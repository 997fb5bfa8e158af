"""Fault tolerance end to end: dynamic faults, retry, diagnose, mask.

Demonstrates the paper's full fault story on the Figure 1 network:

1. traffic flows normally;
2. a router dies and a wire goes dead *while the network runs* —
   sources detect damaged connections (silence, missing statuses) and
   their stochastic retries route around the faults;
3. the scan system then localizes the dead wire with port-isolation
   tests, which leave the facing ports of a failing wire disabled;
4. traffic continues with no further timeouts.

Run:  python examples/fault_tolerant_operation.py
"""

from repro import Message, build_network, figure1_plan
from repro.faults import DeadLink, DeadRouter, FaultInjector
from repro.faults.diagnosis import diagnose_stage
from repro.faults.injector import router_to_router_channels


def send_wave(network, tag):
    messages = [
        network.send(src, Message(dest=(src + 5) % 16, payload=[tag, src]))
        for src in range(16)
    ]
    network.run_until_quiet(max_cycles=200000)
    delivered = sum(1 for m in messages if m.outcome == "delivered")
    retries = sum(m.attempts - 1 for m in messages)
    return delivered, retries


def main():
    network = build_network(figure1_plan(), seed=11)
    injector = FaultInjector(network)

    delivered, retries = send_wave(network, tag=1)
    print("Healthy network:    {}/16 delivered, {} retries".format(
        delivered, retries))

    # Strike: one router and one wire die mid-operation.
    dead_wire = router_to_router_channels(network)[9]
    injector.now(DeadRouter(1, 0, 3))
    injector.now(DeadLink(src_key=dead_wire[0], dst_key=dead_wire[1]))
    print("\nInjected: dead router r1.0.3 and dead wire {} -> {}".format(
        dead_wire[0], dead_wire[1]))

    delivered, retries = send_wave(network, tag=2)
    failures = dict(network.log.attempt_failures)
    print("Faulted network:    {}/16 delivered, {} retries".format(
        delivered, retries))
    print("Attempt failures so far: {}".format(failures))

    # Diagnose and mask the dead wire so nobody stumbles on it again.
    masked = []
    for stage in range(network.plan.n_stages - 1):
        masked.extend(diagnose_stage(network, stage))
    print("\nScan diagnosis masked {} wire(s): {}".format(
        len(masked), ["{} -> {}".format(s, d) for s, d in masked]))

    before = dict(network.log.attempt_failures)
    delivered, retries = send_wave(network, tag=3)
    after = network.log.attempt_failures
    new_timeouts = after.get("timeout", 0) - before.get("timeout", 0)
    print("Masked network:     {}/16 delivered, {} retries, "
          "{} new timeouts".format(delivered, retries, new_timeouts))


if __name__ == "__main__":
    main()
