"""Scan-layer round trip: Table 2 written and read back over MultiTAP.

The existing netconfig tests check that scan *writes* land in the live
``RouterConfig``; these tests close the loop in pure scan traffic: the
configuration is written through a chain, then *read back* through the
chain (CONFIG capture shifted out through every other router's BYPASS
bit) and decoded — every Table 2 field must survive the full
serialize/shift/capture/deserialize journey and agree with
``repro.core.parameters``.
"""

import pytest

from repro.core.parameters import RouterConfig
from repro.network.builder import build_network
from repro.network.topology import figure1_plan
from repro.scan import registers as R
from repro.scan.chain import attach_scan
from repro.scan.netconfig import NetworkScanFabric


@pytest.fixture
def network():
    return build_network(figure1_plan(), seed=66)


def decoded_config(router, bits):
    scratch = RouterConfig(router.params)
    R.decode_config(scratch, bits)
    return scratch


TABLE2_FIELDS = (
    "port_enabled",
    "off_port_drive",
    "fast_reclaim",
    "turn_delay",
    "swallow",
    "dilation",
)


def assert_configs_equal(actual, expected):
    for field in TABLE2_FIELDS:
        assert getattr(actual, field) == getattr(expected, field), field


def test_default_config_reads_back(network):
    fabric = NetworkScanFabric(network)
    router = network.router_grid[(1, 0, 2)]
    bits = fabric.chains[1].read_config_bits(2)
    assert len(bits) == R.config_chain_width(router.params)
    assert_configs_equal(decoded_config(router, bits), router.config)


def test_every_table2_field_round_trips(network):
    """Mutate every Table 2 option on one router by scan, then read it
    all back by scan: the wire encoding loses nothing."""
    fabric = NetworkScanFabric(network)
    key, slot = (1, 0, 2), 2

    def mutate(config):
        config.port_enabled[3] = False
        config.port_enabled[6] = False
        config.off_port_drive[6] = True
        config.fast_reclaim[1] = True
        config.fast_reclaim[5] = True
        config.set_turn_delay(0, 5)
        config.set_turn_delay(7, 2)
        config.swallow[1] = True
        config.swallow[3] = True
        config.dilation = 1

    fabric.configure_router(key, mutate)
    router = network.router_grid[key]

    # The live config took the write...
    assert router.config.port_enabled[3] is False
    assert router.config.dilation == 1

    # ...and the scan read-back reproduces every field exactly.
    bits = fabric.chains[1].read_config_bits(slot)
    readback = decoded_config(router, bits)
    assert_configs_equal(readback, router.config)

    # Independently, it matches the expectation built directly on
    # core.parameters (no scan involved).
    expected = RouterConfig(router.params)
    mutate(expected)
    assert_configs_equal(readback, expected)


def test_read_back_is_non_destructive(network):
    fabric = NetworkScanFabric(network)
    router = network.router_grid[(0, 0, 5)]
    fabric.configure_router(
        (0, 0, 5), lambda config: config.swallow.__setitem__(2, True)
    )
    before = R.encode_config(router.config)
    fabric.chains[0].read_config_bits(5)
    assert R.encode_config(router.config) == before


def test_neighbours_unaffected_by_targeted_write(network):
    fabric = NetworkScanFabric(network)
    fabric.configure_router(
        (2, 0, 1), lambda config: config.fast_reclaim.__setitem__(0, True)
    )
    for slot in range(8):
        router = network.routers[2][slot]
        bits = fabric.chains[2].read_config_bits(slot)
        assert_configs_equal(decoded_config(router, bits), router.config)
        if slot != 1:
            assert not any(router.config.fast_reclaim)


def test_round_trip_through_redundant_multitap_port(network):
    """MultiTAP redundancy: after the primary TAP port dies, the same
    write/read-back works through the spare port's chain."""
    for router in network.routers[1]:
        attach_scan(router, sp=2)
        router.multitap.kill_port(0)
    fabric = NetworkScanFabric(network, port=1)
    key = (1, 1, 0)
    slot = network.routers[1].index(network.router_grid[key])
    fabric.configure_router(
        key, lambda config: config.set_turn_delay(2, 3)
    )
    router = network.router_grid[key]
    assert router.config.turn_delay[2] == 3
    bits = fabric.chains[1].read_config_bits(slot)
    assert_configs_equal(decoded_config(router, bits), router.config)
