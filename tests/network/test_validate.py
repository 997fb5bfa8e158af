"""The network linter."""

import pytest

from repro.network.builder import build_network
from repro.network.topology import figure1_plan
from repro.network.validate import validate_network

from tests.mutants import seeded


@pytest.fixture
def network():
    return build_network(figure1_plan(), seed=88)


def test_built_network_is_clean(network):
    assert validate_network(network) == []


def test_detects_wrong_dilation(network):
    network.router_grid[(0, 0, 0)].config.dilation = 1
    problems = validate_network(network)
    assert any("dilation" in p for p in problems)


def test_detects_wrong_swallow(network):
    router = network.router_grid[(1, 0, 0)]
    router.config.swallow[2] = not router.config.swallow[2]
    problems = validate_network(network)
    assert any("swallow" in p for p in problems)


def test_detects_wrong_turn_delay(network):
    router = network.router_grid[(0, 0, 3)]
    router.config.turn_delay[router.config.forward_port_id(0)] = 5
    problems = validate_network(network)
    assert any("turn delay" in p for p in problems)


def test_the_turn_delay_test_catches_a_check_of_the_source_end_only(network):
    """Seeded linter bug (``docs/testing.md``, the mutation table): the
    turn delay set wrong is a forward port's, the far end of its wire."""
    with seeded("validate-turn-delay-source-only"):
        with pytest.raises(AssertionError):
            test_detects_wrong_turn_delay(network)


def test_detects_detached_port(network):
    router = network.router_grid[(2, 0, 0)]
    router.forward_ends[1] = None
    problems = validate_network(network)
    assert any("unattached" in p for p in problems)


def test_single_disabled_port_keeps_reachability(network):
    router = network.router_grid[(0, 0, 0)]
    router.config.port_enabled[router.config.backward_port_id(0)] = False
    problems = validate_network(network)
    assert not any("no enabled route" in p for p in problems)


def test_overmasking_isolates_and_is_reported(network):
    """Disable both wires into endpoint 3: the linter must flag every
    source as cut off from it, and nothing else."""
    for (src_key, dst_key), _channel in network.channels.items():
        if dst_key[0] == "endpoint" and dst_key[3] == 3:
            _, stage, block, index, port = src_key
            router = network.router_grid[(stage, block, index)]
            router.config.port_enabled[
                router.config.backward_port_id(port)
            ] = False
    assert validate_network(network) == [
        "no enabled route from endpoint {} to endpoint 3".format(src)
        for src in range(16)
    ]


def test_the_reachability_test_catches_a_validator_that_ignores_disabled_ports(
    network,
):
    """Seeded linter bug (``docs/testing.md``, the mutation table)."""
    with seeded("validate-ignores-disabled-ports"):
        with pytest.raises(AssertionError):
            test_overmasking_isolates_and_is_reported(network)


def test_multiple_problems_all_reported(network):
    network.router_grid[(0, 0, 0)].config.dilation = 1
    router = network.router_grid[(1, 1, 2)]
    router.config.swallow[0] = not router.config.swallow[0]
    problems = validate_network(network)
    assert len(problems) >= 2
