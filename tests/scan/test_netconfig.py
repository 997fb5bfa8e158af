"""Network-wide scan configuration."""

import pytest

from repro.endpoint.messages import BLOCKED, BLOCKED_FAST, DELIVERED, Message
from repro.network.builder import build_network
from repro.network.topology import figure1_plan
from repro.scan.chain import disable_port, enable_port
from repro.scan.netconfig import NetworkScanFabric
from repro.scan.registers import make_idcode


@pytest.fixture
def network():
    return build_network(figure1_plan(), seed=66)


def test_inventory_matches_board(network):
    fabric = NetworkScanFabric(network)
    rows = fabric.inventory()
    assert [row["stage"] for row in rows] == [0, 1, 2]
    assert [row["routers"] for row in rows] == [8, 8, 8]
    for stage_index, row in enumerate(rows):
        params = network.plan.stages[stage_index].params
        assert row["idcodes"] == [make_idcode(params)] * 8


def test_configure_single_router(network):
    fabric = NetworkScanFabric(network)
    fabric.configure_router(
        (1, 0, 2), lambda config: config.swallow.__setitem__(1, True)
    )
    assert network.router_grid[(1, 0, 2)].config.swallow[1]
    assert not network.router_grid[(1, 0, 1)].config.swallow[1]


def test_reclaim_policy_applies_per_stage(network):
    fabric = NetworkScanFabric(network)
    fabric.set_fast_reclaim_policy(detailed_stages=[1])
    for (stage, _b, _i), router in network.router_grid.items():
        fast_bits = [
            router.config.fast_reclaim[router.config.forward_port_id(p)]
            for p in range(router.params.i)
        ]
        if stage == 1:
            assert not any(fast_bits)
        else:
            assert all(fast_bits)


def test_mixed_policy_blocking_modes_in_traffic(network):
    """With stage 1 detailed and the rest fast, hotspot traffic shows
    both failure flavours and every detailed block is at stage 2
    (1-indexed), reproducing the Section 5.1 mixed-mode story over an
    all-scan configuration path."""
    fabric = NetworkScanFabric(network)
    fabric.set_fast_reclaim_policy(detailed_stages=[1])
    messages = [
        network.send(src, Message(dest=0, payload=[src] * 4))
        for src in range(1, 16)
    ]
    assert network.run_until_quiet(max_cycles=100000)
    assert all(m.outcome == DELIVERED for m in messages)
    for message in messages:
        for cause, stage in zip(
            [c for c in message.failure_causes if c in (BLOCKED, BLOCKED_FAST)],
            message.blocked_stages,
        ):
            if cause == BLOCKED:
                assert stage == 2


def test_disable_and_reenable_via_fabric(network):
    fabric = NetworkScanFabric(network)
    router = network.router_grid[(0, 0, 0)]
    port_id = router.config.backward_port_id(1)
    fabric.configure_router((0, 0, 0), disable_port(port_id, drive=True))
    assert not router.config.port_enabled[port_id]
    assert router.config.off_port_drive[port_id]
    fabric.configure_router((0, 0, 0), enable_port(port_id))
    assert router.config.port_enabled[port_id]


def test_configure_all(network):
    fabric = NetworkScanFabric(network)

    def bump_turn_delay(config):
        config.set_turn_delay(0, 2)

    fabric.configure_all(bump_turn_delay)
    assert all(
        router.config.turn_delay[0] == 2 for router in network.all_routers()
    )
