"""Scan-controlled configuration: the Table 2 options over a TAP.

Walks a METRO router's IEEE 1149.1 TAP through the operations the
paper describes (Section 5.1, Scan Support): read the IDCODE,
reconfigure dilation and fast reclamation through the configuration
chain, disable a port for isolated testing while the router keeps
routing, and fall back to the second TAP port (MultiTAP) when the
first scan path fails.  Then does the same network-wide (Section 5.3):
every router of the Figure 1 network on one daisy chain per stage,
read by IDCODE, and a per-stage reclamation policy loaded by scan.

Run:  python examples/scan_configuration.py
"""

from repro.core.parameters import RouterParameters
from repro.core.router import MetroRouter
from repro.network.builder import build_network
from repro.network.topology import figure1_plan
from repro.scan.chain import (
    ScanChain,
    attach_scan,
    disable_port,
    enable_port,
    set_dilation,
    set_fast_reclaim,
)
from repro.scan.netconfig import NetworkScanFabric
from repro.scan.registers import config_chain_width, make_idcode


def main():
    params = RouterParameters(i=8, o=8, w=8, max_d=2, sp=2)
    router = MetroRouter(params, name="hub")
    attach_scan(router)
    scan = ScanChain([router], port=0)  # a lone router is a chain of one

    [idcode] = scan.read_idcodes()
    print("IDCODE: {:#010x} (expected {:#010x})".format(
        idcode, make_idcode(params)))
    print("Configuration chain: {} bits for {} ports".format(
        config_chain_width(params), params.i + params.o))

    print("\nDilation {} (radix {})".format(
        router.config.dilation, router.config.radix))
    scan.configure(0, set_dilation(1))
    print("After scan write: dilation {} (radix {})".format(
        router.config.dilation, router.config.radix))
    scan.configure(0, set_dilation(2))

    port_id = router.config.forward_port_id(3)
    scan.configure(0, set_fast_reclaim([port_id], True))
    print("\nFast reclamation on forward port 3: {}".format(
        router.config.fast_reclaim[port_id]))

    victim = router.config.backward_port_id(5)
    scan.configure(0, disable_port(victim, drive=True))
    print("Backward port 5 disabled for isolated testing "
          "(off-port drive on); other {} ports still in service".format(
              params.i + params.o - 1))
    scan.configure(0, enable_port(victim))
    print("...and returned to service.")

    print("\nMultiTAP: killing scan port 0, continuing on port 1")
    router.multitap.kill_port(0)
    backup = ScanChain([router], port=1)
    print("Port 1 reads IDCODE: {:#010x}".format(backup.read_idcodes()[0]))

    network_wide()


def network_wide():
    """Figure 1's 24 routers on per-stage scan chains: the board map,
    then fast reclamation everywhere but stage 1 (detailed blocked
    replies where diagnosis wants them, Section 5.1), read back from
    each router's live configuration."""
    network = build_network(figure1_plan(), seed=0)
    fabric = NetworkScanFabric(network)
    print("\nFigure 1 network, one scan chain per stage:")
    for row in fabric.inventory():
        codes = sorted(set(row["idcodes"]))
        print("  stage {}: {} routers, IDCODE {}".format(
            row["stage"], row["routers"],
            ", ".join("{:#010x}".format(code) for code in codes)))
    fabric.set_fast_reclaim_policy(detailed_stages=(1,))
    print("Scan policy: fast reclamation except in stage 1")
    for stage, routers in enumerate(network.routers):
        ports = [
            router.config.fast_reclaim[router.config.forward_port_id(port)]
            for router in routers for port in range(router.params.i)
        ]
        print("  stage {}: {}/{} forward ports fast-reclaim".format(
            stage, sum(ports), len(ports)))


if __name__ == "__main__":
    main()
