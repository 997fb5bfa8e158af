"""Paper-fidelity tests for the subtler protocol features.

Each test here pins one specific behaviour the paper describes in
prose, exercised end to end over a real network.
"""

import pytest

from repro.core.parameters import RouterParameters
from repro.endpoint.messages import BLOCKED, BLOCKED_FAST, DELIVERED, Message
from repro.network.builder import build_network
from repro.network.topology import NetworkPlan, StageSpec, figure1_plan
from repro.scan.chain import ScanChain, disable_port, set_fast_reclaim


class TestSelectiveReclamationModes:
    """Section 5.1: 'the mode of path reclamation is solely determined
    by the configuration of the forward port on the router at which
    the blocking occurred', so the system can select portions of the
    network for detailed information while the rest reclaims fast."""

    def _mixed_network(self, detailed_stage=1, seed=44):
        network = build_network(figure1_plan(), seed=seed, fast_reclaim=True)
        for (stage, _b, _i), router in network.router_grid.items():
            if stage == detailed_stage:
                for port in range(router.params.i):
                    router.config.fast_reclaim[
                        router.config.forward_port_id(port)
                    ] = False
        return network

    def test_blocking_stage_determines_mode(self):
        network = self._mixed_network(detailed_stage=1)
        # Hotspot: everyone to endpoint 0 forces blocking at several
        # stages; observe both failure flavours, and every *detailed*
        # block must localize to stage 2 (the 1-indexed detailed stage).
        messages = [
            network.send(src, Message(dest=0, payload=[src] * 4))
            for src in range(1, 16)
        ]
        assert network.run_until_quiet(max_cycles=100000)
        assert all(m.outcome == DELIVERED for m in messages)
        detailed_stages = []
        fast_count = 0
        for message in messages:
            for cause, stage in zip(
                [c for c in message.failure_causes if c in (BLOCKED, BLOCKED_FAST)],
                message.blocked_stages,
            ):
                if cause == BLOCKED:
                    detailed_stages.append(stage)
                else:
                    fast_count += 1
        # Any detailed report can only have come from the detailed stage.
        assert all(stage == 2 for stage in detailed_stages)


class TestMultipleReversals:
    """Section 5.1: 'Any number of data transmission reversals may
    occur during a single connection.'"""

    def test_three_round_protocol(self):
        """Client sends, server replies, client sends again on the SAME
        circuit (the receiver's re-enter-collect path), server replies
        again."""
        network = build_network(figure1_plan(), seed=45)
        # A server that echoes each round back.
        network.endpoints[9].reply_handler = lambda payload, ok: (list(payload), 0)
        first = network.send(2, Message(dest=9, payload=[1, 2]))
        assert network.run_until_quiet(max_cycles=10000)
        assert first.outcome == DELIVERED
        assert first.reply_payload[:2] == [1, 2]
        # The protocol layer above METRO reuses circuits per message in
        # this implementation; a second message re-opens and re-reverses.
        second = network.send(2, Message(dest=9, payload=[3, 4]))
        assert network.run_until_quiet(max_cycles=10000)
        assert second.reply_payload[:2] == [3, 4]


class TestDynamicReconfigurationViaScan:
    """Table 2: 'Port enables and fast reclamation may be reconfigured
    during operation.'"""

    def test_toggle_fast_reclaim_mid_run_via_scan(self):
        network = build_network(figure1_plan(), seed=46)
        router = network.router_grid[(0, 0, 0)]
        scan = ScanChain([router])
        port_id = router.config.forward_port_id(0)
        assert not router.config.fast_reclaim[port_id]
        # Traffic flows...
        network.send(0, Message(dest=5, payload=[1]))
        network.run(4)
        # ...while the scan system flips the mode.
        scan.configure(0, set_fast_reclaim([port_id], True))
        assert router.config.fast_reclaim[port_id]
        assert network.run_until_quiet(max_cycles=10000)
        assert len(network.log.delivered()) == 1

    def test_disable_port_mid_run_via_scan(self):
        network = build_network(figure1_plan(), seed=47)
        router = network.router_grid[(0, 0, 1)]
        scan = ScanChain([router])
        victim = router.config.backward_port_id(0)
        scan.configure(0, disable_port(victim, drive=False))
        # The network keeps working without that output.
        messages = [
            network.send(src, Message(dest=(src + 3) % 16, payload=[src]))
            for src in range(16)
        ]
        assert network.run_until_quiet(max_cycles=60000)
        assert all(m.outcome == DELIVERED for m in messages)


class TestVariableLengths:
    """'(Unlimited) Variable Length Message Support' over one network."""

    @pytest.mark.parametrize("length", [0, 1, 3, 17, 64, 250])
    def test_lengths(self, length):
        network = build_network(figure1_plan(), seed=48)
        payload = [v & 0xF for v in range(length)]
        message = network.send(1, Message(dest=12, payload=payload))
        assert network.run_until_quiet(max_cycles=20000)
        assert message.outcome == DELIVERED


class TestHeaderPaddingOnDeeperNetworks:
    """A 5-stage radix-2 network (32 endpoints) exercises multi-word
    headers with mid-stream swallowing at w=4."""

    def _plan(self):
        four_port = RouterParameters(i=4, o=4, w=4, max_d=2)
        two_port = RouterParameters(i=2, o=2, w=4, max_d=2)
        return NetworkPlan(
            32,
            2,
            2,
            [StageSpec(four_port, 2)] * 4 + [StageSpec(two_port, 1)],
        )

    def test_structure(self):
        plan = self._plan()
        assert plan.n_stages == 5
        assert plan.stage_radices() == [2, 2, 2, 2, 2]

    def test_delivery_across_five_stages(self):
        network = build_network(self._plan(), seed=49)
        # Header: 4+2 = 6 bits over w=4 -> two words, swallow mid-path.
        flags = network.codec.swallow_flags()
        assert sum(flags) == 2
        for src, dest in [(0, 31), (17, 4), (31, 0), (8, 8)]:
            message = network.send(src, Message(dest=dest, payload=[9, 9, 9]))
            assert network.run_until_quiet(max_cycles=20000)
            assert message.outcome == DELIVERED, (src, dest)
        assert network.log.receiver_checksum_failures == 0


class TestDataIdleTransparency:
    """Section 5.1: DATA-IDLE fills variable delays without the source
    or destination needing to know pipeline details."""

    def test_slow_replier_holds_circuit_with_idles(self):
        network = build_network(figure1_plan(), seed=50)
        network.endpoints[6].reply_handler = lambda payload, ok: ([0xF], 30)
        message = network.send(3, Message(dest=6, payload=[1]))
        assert network.run_until_quiet(max_cycles=10000)
        assert message.outcome == DELIVERED
        assert message.reply_payload[0] == 0xF
        # The 30 idle cycles appear as extra latency, not as a failure.
        assert message.latency > 30
