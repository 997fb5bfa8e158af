"""Golden pin of the scan traffic one router's operations drive.

Every Table 2 operation reaches a router as a (TMS, TDI) sequence on
one port of its MultiTAP (paper, Section 5.1).  This fixture records,
for Figure 1's router (0, 0, 0) on TAP ports 0 and 1, the sequence each
one-router operation drives: IDCODE, config read, config write, port
disable and enable, fast reclaim, dilation, SAMPLE and EXTEST, in that
order on one router, so a change to the host's TAP walk that moves a
single clock shows up as a diff.

If a change is *intentional*, regenerate with::

    PYTHONPATH=src python tests/scan/test_scan_traffic.py --regen

and review the fixture diff like any other code change.
"""

import json
import os
import sys

if __name__ == "__main__":  # ``--regen`` runs this file as a script
    sys.path.insert(0, os.path.normpath(os.path.join(__file__, "../../..")))

from repro.network.builder import build_network
from repro.network.topology import figure1_plan
from repro.scan import registers as R
from repro.scan.chain import (
    ScanChain,
    attach_scan,
    disable_port,
    enable_port,
    set_dilation,
    set_fast_reclaim,
)

GOLDEN_PATH = os.path.join(
    os.path.dirname(os.path.dirname(__file__)), "fixtures", "scan_traffic.json"
)

ROUTER = (0, 0, 0)
PORTS = (0, 1)


def _operations(router):
    """(name, operation on a chain of one) in the order they run."""
    config = router.config
    victim = config.backward_port_id(1)
    image = R.encode_config(config)
    image[0] = 0  # forward port 0 out of service

    return [
        ("idcode", lambda scan: scan.read_idcodes()),
        ("config-read", lambda scan: scan.read_config_bits(0)),
        ("config-write", lambda scan: scan.write_config(0, image)),
        ("port-disable", lambda scan: scan.configure(
            0, disable_port(victim, drive=True))),
        ("extest", lambda scan: scan.extest_drive(0, 1, 0x9)),
        ("sample", lambda scan: scan.sample_boundary(0)),
        ("port-enable", lambda scan: scan.configure(0, enable_port(victim))),
        ("fast-reclaim", lambda scan: scan.configure(
            0, set_fast_reclaim([config.forward_port_id(2)], True))),
        ("dilation", lambda scan: scan.configure(0, set_dilation(1))),
    ]


def _traffic(port):
    """Operation name -> the TMS and TDI bits it drove, as strings."""
    network = build_network(figure1_plan(), seed=0)
    router = network.router_grid[ROUTER]
    multitap = attach_scan(router, sp=2)
    driven = []
    step = multitap.step

    def record(tap_port, tms, tdi):
        driven.append((tap_port, tms, tdi))
        return step(tap_port, tms, tdi)

    multitap.step = record
    scan = ScanChain([router], port=port)
    traffic = {}
    for name, operation in _operations(router):
        del driven[:]
        operation(scan)
        assert {tap_port for tap_port, _, _ in driven} == {port}, name
        traffic[name] = {
            "tms": "".join(str(tms) for _, tms, _ in driven),
            "tdi": "".join(str(tdi) for _, _, tdi in driven),
        }
    return traffic


def _state():
    return {"router": list(ROUTER),
            "ports": {str(port): _traffic(port) for port in PORTS}}


def test_one_router_scan_traffic_matches_fixture():
    with open(GOLDEN_PATH) as handle:
        golden = json.load(handle)
    state = _state()
    for port in PORTS:
        for name, bits in golden["ports"][str(port)].items():
            assert state["ports"][str(port)][name] == bits, (port, name)
    assert state == golden


def _regen():
    state = _state()
    with open(GOLDEN_PATH, "w") as handle:
        json.dump(state, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print("wrote {} ({} operations on each of ports {})".format(
        GOLDEN_PATH, len(state["ports"]["0"]), list(PORTS)))


if __name__ == "__main__":
    if "--regen" in sys.argv:
        _regen()
    else:
        print(__doc__)
