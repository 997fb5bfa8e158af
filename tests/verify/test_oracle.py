"""The conformance oracle is silent on healthy networks.

Every test here drives real traffic with the oracle attached and
asserts zero violations — the oracle's false-positive contract.  (Its
detection power is established separately by test_mutations.py.)
"""

import random

import pytest

from repro.endpoint.messages import DELIVERED, Message
from repro.endpoint.traffic import UniformRandomTraffic
from repro.faults.injector import FaultInjector, router_to_router_channels
from repro.faults.model import DeadLink, DeadRouter
from repro.network.builder import build_network
from repro.network.topology import figure1_plan
from repro.verify import Oracle, OracleViolationError, Violation, attach_oracle
from repro.verify.scenario import random_scenario


def test_single_message_run_is_clean():
    network = build_network(figure1_plan(), seed=3)
    oracle = attach_oracle(network)
    message = network.send(5, Message(dest=15, payload=[1, 2, 3, 4]))
    assert network.run_until_quiet(max_cycles=5000)
    assert message.outcome == DELIVERED
    oracle.check_quiescent(network.engine.cycle)
    oracle.assert_clean()
    assert oracle.ok
    assert oracle.cycles_checked > 0


def test_concurrent_traffic_is_clean():
    network = build_network(figure1_plan(), seed=31)
    oracle = attach_oracle(network)
    msgs = [
        network.send(src, Message(dest=(src + 7) % 16, payload=[src]))
        for src in range(16)
    ]
    assert network.run_until_quiet(max_cycles=20000)
    assert all(m.outcome == DELIVERED for m in msgs)
    oracle.check_quiescent(network.engine.cycle)
    oracle.assert_clean()


def test_hotspot_contention_is_clean():
    """Blocking, DROPs and retries — the paths most likely to trip a
    naive checker — produce no violations on a correct router."""
    network = build_network(figure1_plan(), seed=3, fast_reclaim=True)
    oracle = attach_oracle(network)
    msgs = [
        network.send(src, Message(dest=15, payload=[src % 16] * 6))
        for src in range(15)
    ]
    assert network.run_until_quiet(max_cycles=50000)
    assert all(m.outcome == DELIVERED for m in msgs)
    oracle.check_quiescent(network.engine.cycle)
    oracle.assert_clean()


@pytest.mark.stress
def test_chaos_with_transient_faults_is_clean():
    """Dying and healing links/routers must not register as protocol
    violations on the surviving, healthy routers."""
    network = build_network(figure1_plan(), seed=103, fast_reclaim=True)
    oracle = attach_oracle(network)
    injector = FaultInjector(network)
    rng = random.Random(99)
    channels = router_to_router_channels(network)
    for strike in range(4):
        src_key, dst_key = channels[rng.randrange(len(channels))]
        fault = DeadLink(src_key=src_key, dst_key=dst_key)
        start = 500 + strike * 700
        injector.at(start, fault)
        injector.revert_at(start + 400, fault)
    router_fault = DeadRouter(1, 0, 1)
    injector.at(1500, router_fault)
    injector.revert_at(3000, router_fault)

    traffic = UniformRandomTraffic(16, 4, rate=0.03, message_words=8, seed=7)
    traffic.attach(network)
    network.run(4000)
    for endpoint in network.endpoints:
        endpoint.traffic_source = None
    assert network.run_until_quiet(max_cycles=100000)
    oracle.check_quiescent(network.engine.cycle)
    oracle.assert_clean()


@pytest.mark.parametrize("seed", [11, 12, 13, 14])
def test_random_scenarios_are_clean(seed):
    result = random_scenario(seed, n_messages=3).run()
    assert result.clean, result.violations[:5]


def test_cascade_oracle_clean_on_lockstep_slices():
    from repro.network.cascaded import CascadedNetwork
    from repro.verify import attach_cascade_oracle

    cascaded = CascadedNetwork(figure1_plan(), c=2, seed=51)
    oracle = attach_cascade_oracle(cascaded)
    wide = cascaded.send_wide(3, 12, [0x5A, 0xC3, 0x0F])
    assert cascaded.run_until_quiet(max_cycles=5000)
    assert wide.outcome == DELIVERED
    assert cascaded.inuse_mismatches == 0
    oracle.assert_clean()
    assert oracle.ok


def test_cascade_oracle_flags_inuse_disagreement():
    """Tearing a circuit down in one slice only is the wired-AND
    IN-USE fault of Section 5.1; the cascade oracle must localize it."""
    from repro.network.cascaded import CascadedNetwork
    from repro.verify import attach_cascade_oracle

    cascaded = CascadedNetwork(figure1_plan(), c=2, seed=51)
    oracle = attach_cascade_oracle(cascaded)
    cascaded.send_wide(3, 12, [0x5A] * 8)
    # Step until some router in slice 0 holds a circuit...
    victim = None
    for _ in range(200):
        cascaded.step()
        for router in cascaded.slices[0].all_routers():
            owners = router.backward_owner_ports()
            for owner in owners:
                if owner is not None:
                    victim = (router, owner)
                    break
            if victim:
                break
        if victim:
            break
    assert victim is not None, "no circuit ever locked"
    router, owner = victim
    router.force_teardown(owner)  # ...and break it in that slice only
    cascaded.step()
    assert cascaded.inuse_mismatches > 0
    assert not oracle.ok
    rules = {v.rule for v in oracle.violations}
    assert "cascade-inuse-mismatch" in rules
    flagged = [v for v in oracle.violations
               if v.rule == "cascade-inuse-mismatch"]
    assert flagged[0].router == router.name


def _masked_port_run(backend="reference"):
    """Disable a backward port out from under the first circuit to lock
    one; returns the oracle after three more cycles."""
    network = build_network(figure1_plan(), seed=41, backend=backend)
    oracle = attach_oracle(network)
    network.send(2, Message(dest=13, payload=[7] * 200))
    victim = None
    for _ in range(200):
        network.run(1)
        for router in network.router_grid.values():
            for q, end in enumerate(router.backward_ends):
                if end is None:
                    continue
                if router._bwd_owner[q] is not None:
                    victim = (router, q)
                    break
            if victim:
                break
        if victim:
            break
    assert victim is not None, "no circuit ever locked"
    router, q = victim
    router.config.port_enabled[router.config.backward_port_id(q)] = False
    network.run(3)
    return oracle


def test_masked_port_carrying_data_is_flagged():
    """Disabling a port out from under a live circuit (a mask without
    quiescing first) must trip the data-on-masked-port rule."""
    from repro.verify.oracle import RULE_MASKED_PORT

    assert RULE_MASKED_PORT in _masked_port_run().violation_rules()


def test_quiesced_mask_is_clean():
    """The manager's quiesce-then-mask ordering leaves no data on the
    wire, so the same rule stays silent."""
    from repro.scan.netconfig import NetworkScanFabric

    network = build_network(figure1_plan(), seed=42)
    oracle = attach_oracle(network)
    fabric = NetworkScanFabric(network)
    src_key, dst_key = router_to_router_channels(network)[0]
    upstream = network.router_grid[src_key[1:4]]
    downstream = network.router_grid[dst_key[1:4]]
    upstream.quiesce_backward_port(src_key[4])
    downstream.force_teardown(dst_key[4])
    fabric.disable_port(src_key[1:4], upstream.config.backward_port_id(src_key[4]))
    fabric.disable_port(
        dst_key[1:4], downstream.config.forward_port_id(dst_key[4])
    )
    message = network.send(2, Message(dest=13, payload=[3, 1, 4]))
    assert network.run_until_quiet(max_cycles=20000)
    assert message.outcome == DELIVERED
    oracle.check_quiescent(network.engine.cycle)
    oracle.assert_clean()


def test_violation_error_lists_offenders():
    oracle = Oracle([])
    oracle.violations.append(
        Violation(cycle=7, router="r0.0.1", port=2, rule="ownership",
                  detail="port free but owned")
    )
    assert not oracle.ok
    with pytest.raises(OracleViolationError) as err:
        oracle.assert_clean()
    text = str(err.value)
    assert "r0.0.1" in text
    assert "ownership" in text
    assert "@7" in text
