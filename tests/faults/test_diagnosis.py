"""Scan-driven fault localization and masking."""

import pytest

from repro.core.words import RouterStatus
from repro.endpoint.messages import DELIVERED, Message, TIMEOUT
from repro.faults.diagnosis import (
    diagnose_stage,
    port_isolation_test,
    suspect_stage_from_statuses,
)
from repro.faults.injector import FaultInjector, router_to_router_channels
from repro.faults.model import CorruptLink, DeadLink
from repro.network.builder import build_network
from repro.network.topology import figure1_plan

from tests.mutants import seeded


def _network(seed=21):
    return build_network(figure1_plan(), seed=seed)


def _facing_configs(network, src_key, dst_key):
    """``(config, port id)`` of the two ports facing one wire."""
    _, s_stage, s_block, s_index, s_port = src_key
    _, d_stage, d_block, d_index, d_port = dst_key
    up = network.router_grid[(s_stage, s_block, s_index)].config
    down = network.router_grid[(d_stage, d_block, d_index)].config
    return (
        (up, up.backward_port_id(s_port)),
        (down, down.forward_port_id(d_port)),
    )


class TestStatusLocalization:
    def test_all_clean(self):
        expected = [0x10, 0x20, 0x30]
        statuses = [RouterStatus(False, c, 5) for c in expected]
        assert suspect_stage_from_statuses(expected, statuses) is None

    def test_checksum_mismatch_localizes(self):
        expected = [0x10, 0x20, 0x30]
        statuses = [
            RouterStatus(False, 0x10, 5),
            RouterStatus(False, 0xFF, 5),  # corrupted entering stage 1
            RouterStatus(False, 0x30, 5),
        ]
        assert suspect_stage_from_statuses(expected, statuses) == 1

    def test_blocked_status_localizes(self):
        expected = [0x10, 0x20, 0x30]
        statuses = [
            RouterStatus(False, 0x10, 5),
            RouterStatus(True, 0x0, 0),
        ]
        assert suspect_stage_from_statuses(expected, statuses) == 1

    def test_truncated_status_list_localizes(self):
        expected = [0x10, 0x20, 0x30]
        statuses = [RouterStatus(False, 0x10, 5)]
        assert suspect_stage_from_statuses(expected, statuses) == 1


class TestPortIsolation:
    def test_healthy_wire_passes(self):
        network = _network()
        src_key, dst_key = router_to_router_channels(network)[0]
        passed, observations = port_isolation_test(network, src_key, dst_key)
        assert passed
        assert len(observations) == 5

    def test_dead_wire_fails(self):
        network = _network()
        src_key, dst_key = router_to_router_channels(network)[1]
        FaultInjector(network).now(DeadLink(src_key=src_key, dst_key=dst_key))
        passed, observations = port_isolation_test(network, src_key, dst_key)
        assert not passed
        # The mask: both facing ports stay disabled, no driver left on.
        for config, port_id in _facing_configs(network, src_key, dst_key):
            assert not config.port_enabled[port_id]
            assert not config.off_port_drive[port_id]

    def test_stuck_bits_fail(self):
        network = _network()
        src_key, dst_key = router_to_router_channels(network)[2]
        FaultInjector(network).now(
            CorruptLink(src_key=src_key, dst_key=dst_key, probability=1.0, mask=0b1)
        )
        passed, observations = port_isolation_test(network, src_key, dst_key)
        assert not passed
        # Every observation differs in exactly the corrupted bit.
        assert all((drove ^ seen) == 0b1 for drove, seen in observations)

    def test_ports_restored_after_test(self):
        network = _network()
        src_key, dst_key = router_to_router_channels(network)[3]
        passed, _observations = port_isolation_test(network, src_key, dst_key)
        assert passed
        for config, port_id in _facing_configs(network, src_key, dst_key):
            assert config.port_enabled[port_id]
            assert not config.off_port_drive[port_id]

    def test_rejects_endpoint_wires(self):
        network = _network()
        endpoint_wire = next(
            key for key in network.channels if key[0][0] == "endpoint"
        )
        with pytest.raises(ValueError):
            port_isolation_test(network, *endpoint_wire)


class TestStageSweep:
    def test_sweep_finds_only_the_faulty_wire(self):
        network = _network()
        victims = [
            key
            for key in router_to_router_channels(network)
            if key[0][1] == 0
        ]
        bad = victims[4]
        FaultInjector(network).now(DeadLink(src_key=bad[0], dst_key=bad[1]))
        failing = diagnose_stage(network, stage=0)
        assert failing == [bad]

    def test_clean_network_sweep_is_empty(self):
        network = _network()
        assert diagnose_stage(network, stage=1) == []


class TestMasking:
    def test_masked_link_never_used(self):
        """After diagnose_stage, a dead wire causes no more timeouts:
        the allocator simply never selects the disabled port."""
        network = _network(seed=22)
        bad = router_to_router_channels(network)[6]
        FaultInjector(network).now(DeadLink(src_key=bad[0], dst_key=bad[1]))
        masked = diagnose_stage(network, stage=bad[0][1])
        assert bad in masked
        before = dict(network.log.attempt_failures)
        # The same six waves that make the unmasked control time out.
        for _round in range(6):
            messages = [
                network.send(src, Message(dest=(src + 5) % 16, payload=[1, 2]))
                for src in range(16)
            ]
            assert network.run_until_quiet(max_cycles=120000)
            assert all(m.outcome == DELIVERED for m in messages)
        after = network.log.attempt_failures
        for cause in (TIMEOUT, "died"):
            assert after.get(cause, 0) == before.get(cause, 0), cause

    def test_the_masking_test_catches_a_mask_on_the_neighbouring_wire(self):
        """Seeded FaultManager bug (``docs/testing.md``, the mutation
        table): a failing wire gets its ports back and the mask lands
        on the upstream router's neighbouring backward port instead."""
        with seeded("diagnosis-masks-neighbour"):
            with pytest.raises(AssertionError):
                self.test_masked_link_never_used()

    def test_unmasked_dead_link_does_cause_timeouts(self):
        """Control for the test above: without masking, some attempts
        randomly select the dead wire and time out."""
        network = _network(seed=22)
        bad = router_to_router_channels(network)[6]
        FaultInjector(network).now(DeadLink(src_key=bad[0], dst_key=bad[1]))
        for _round in range(6):
            messages = [
                network.send(src, Message(dest=(src + 5) % 16, payload=[1, 2]))
                for src in range(16)
            ]
            network.run_until_quiet(max_cycles=120000)
        causes = network.log.attempt_failures
        assert causes.get(TIMEOUT, 0) + causes.get("died", 0) >= 1
