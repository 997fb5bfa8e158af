"""End-to-end integration: messages across whole METRO networks."""

import pytest

from repro.core.parameters import RouterParameters
from repro.endpoint.messages import DELIVERED, Message
from repro.network.builder import build_network
from repro.network.topology import NetworkPlan, StageSpec, figure1_plan, figure3_plan
from repro.verify import attach_oracle


def _deliver_one(network, src, dest, payload):
    """Send one message under the conformance oracle and drain."""
    oracle = getattr(network, "_test_oracle", None)
    if oracle is None:
        oracle = network._test_oracle = attach_oracle(network)
    message = network.send(src, Message(dest=dest, payload=payload))
    assert network.run_until_quiet(max_cycles=5000)
    oracle.check_quiescent(network.engine.cycle)
    oracle.assert_clean()
    return message


class TestSingleMessage:
    def test_figure1_paper_path_endpoint_6_to_16(self):
        """The bold path of Figure 1: endpoint 6 to endpoint 16 (1-based)."""
        network = build_network(figure1_plan(), seed=3)
        message = _deliver_one(network, 5, 15, [0x1, 0x2, 0x3, 0x4])
        assert message.outcome == DELIVERED
        assert message.attempts == 1
        assert message.latency > 0

    def test_every_pair_delivers(self):
        network = build_network(figure1_plan(), seed=5)
        for src in range(16):
            for dest in range(16):
                if src == dest:
                    continue
                message = network.send(src, Message(dest=dest, payload=[src, dest]))
                assert network.run_until_quiet(max_cycles=5000), (src, dest)
                assert message.outcome == DELIVERED, (src, dest, message)

    def test_payload_integrity_at_receiver(self):
        network = build_network(figure1_plan(), seed=7)
        message = _deliver_one(network, 0, 9, [0xA, 0xB, 0xC])
        assert message.outcome == DELIVERED
        assert network.log.receiver_deliveries == 1
        assert network.log.receiver_checksum_failures == 0

    def test_self_message(self):
        network = build_network(figure1_plan(), seed=11)
        message = _deliver_one(network, 4, 4, [1])
        assert message.outcome == DELIVERED

    def test_long_message(self):
        # "(Unlimited) Variable Length Message Support"
        network = build_network(figure1_plan(), seed=13)
        payload = [v & 0xF for v in range(200)]
        message = _deliver_one(network, 2, 14, payload)
        assert message.outcome == DELIVERED

    def test_empty_payload(self):
        network = build_network(figure1_plan(), seed=17)
        message = _deliver_one(network, 1, 8, [])
        assert message.outcome == DELIVERED

    def test_network_quiescent_after_delivery(self):
        network = build_network(figure1_plan(), seed=19)
        _deliver_one(network, 3, 12, [5, 6])
        for router in network.all_routers():
            assert router.is_quiescent()
            assert router.busy_backward_ports() == []


class TestFigure3Network:
    def test_unloaded_latency_near_paper_28_cycles(self):
        """Paper: 'The unloaded message latency is 28 clock cycles from
        message injection to acknowledgment receipt' for 20-byte
        messages on the 3-stage radix-4 network."""
        network = build_network(figure3_plan(), seed=23)
        payload = list(range(20))  # 20 bytes at w=8
        message = _deliver_one(network, 10, 53, payload)
        assert message.outcome == DELIVERED
        # Our protocol details differ slightly (explicit checksum word,
        # close handshake); require the same regime, not the exact value.
        assert 25 <= message.latency <= 45, message.latency

    def test_many_random_pairs(self):
        import random

        rng = random.Random(99)
        network = build_network(figure3_plan(), seed=29)
        for _ in range(40):
            src = rng.randrange(64)
            dest = rng.randrange(64)
            message = network.send(src, Message(dest=dest, payload=[1, 2, 3, 4]))
            assert network.run_until_quiet(max_cycles=5000)
            assert message.outcome == DELIVERED


class TestConcurrentTraffic:
    def test_simultaneous_messages_all_deliver(self):
        network = build_network(figure1_plan(), seed=31)
        msgs = []
        for src in range(16):
            dest = (src + 7) % 16
            msgs.append(network.send(src, Message(dest=dest, payload=[src])))
        assert network.run_until_quiet(max_cycles=20000)
        for message in msgs:
            assert message.outcome == DELIVERED
        # Retries may occur under contention, but everything lands.
        assert len(network.log.delivered()) == 16

    def test_hotspot_contention_resolves_by_retry(self):
        """Everyone sends to endpoint 0: heavy blocking, but source-
        responsible retry + random selection eventually delivers all."""
        network = build_network(figure1_plan(), seed=37)
        oracle = attach_oracle(network)
        msgs = [
            network.send(src, Message(dest=0, payload=[src]))
            for src in range(1, 16)
        ]
        assert network.run_until_quiet(max_cycles=50000)
        oracle.check_quiescent(network.engine.cycle)
        oracle.assert_clean()
        for message in msgs:
            assert message.outcome == DELIVERED
        causes = network.log.attempt_failures
        assert causes.get("blocked", 0) > 0  # contention really happened


class TestFastReclamation:
    def test_hotspot_with_fast_reclaim(self):
        network = build_network(figure1_plan(), seed=37, fast_reclaim=True)
        msgs = [
            network.send(src, Message(dest=0, payload=[src]))
            for src in range(1, 16)
        ]
        assert network.run_until_quiet(max_cycles=50000)
        for message in msgs:
            assert message.outcome == DELIVERED
        causes = network.log.attempt_failures
        assert causes.get("blocked-fast", 0) > 0
        assert causes.get("blocked", 0) == 0


class TestHwSetupPipelining:
    def test_hw1_network_delivers(self):
        params = RouterParameters(i=4, o=4, w=4, max_d=2, hw=1)
        plan = NetworkPlan(
            16,
            2,
            2,
            [StageSpec(params, 2), StageSpec(params, 2), StageSpec(params, 1)],
        )
        network = build_network(plan, seed=41)
        message = _deliver_one(network, 3, 9, [0x1, 0x2])
        assert message.outcome == DELIVERED

    def test_hw2_network_delivers(self):
        params = RouterParameters(i=4, o=4, w=4, max_d=2, hw=2)
        plan = NetworkPlan(
            16,
            2,
            2,
            [StageSpec(params, 2), StageSpec(params, 2), StageSpec(params, 1)],
        )
        network = build_network(plan, seed=43)
        message = _deliver_one(network, 3, 9, [0x1, 0x2])
        assert message.outcome == DELIVERED


class TestVariableTurnDelay:
    @pytest.mark.parametrize("delay", [1, 2, 3])
    def test_uniform_link_delays(self, delay):
        network = build_network(figure1_plan(), seed=47, link_delay=delay)
        message = _deliver_one(network, 2, 13, [9, 9])
        assert message.outcome == DELIVERED

    def test_nonuniform_link_delays(self):
        """Per-port wire lengths may differ (Section 5.1)."""
        import random

        rng = random.Random(53)
        network = build_network(
            figure1_plan(), seed=53, link_delay=lambda link: rng.choice([1, 2, 3])
        )
        for src, dest in [(0, 15), (7, 8), (3, 3)]:
            message = network.send(src, Message(dest=dest, payload=[src]))
            assert network.run_until_quiet(max_cycles=10000)
            assert message.outcome == DELIVERED


class TestDeterministicWiring:
    def test_butterfly_wiring_delivers(self):
        network = build_network(figure1_plan(), seed=59, randomize_wiring=False)
        message = _deliver_one(network, 6, 10, [3])
        assert message.outcome == DELIVERED


class TestStageChecksums:
    def test_stage_checksum_verification_passes_clean_network(self):
        network = build_network(
            figure1_plan(),
            seed=61,
            endpoint_kwargs={"verify_stage_checksums": True},
        )
        message = _deliver_one(network, 1, 14, [7, 7, 7])
        assert message.outcome == DELIVERED
        assert "corrupted" not in message.failure_causes


class TestRequestReplyConvenience:
    def test_request_returns_reply_payload(self):
        network = build_network(figure1_plan(), seed=63)
        network.endpoints[9].reply_handler = (
            lambda payload, ok: ([v ^ 0xF for v in payload], 3)
        )
        reply = network.request(2, 9, [0x1, 0x2, 0x3])
        assert reply == [0xE, 0xD, 0xC]

    def test_request_ack_only_is_empty(self):
        network = build_network(figure1_plan(), seed=64)
        assert network.request(0, 5, [7]) == []

    def test_request_raises_on_undeliverable(self):
        import pytest as _pytest

        from repro.faults.injector import FaultInjector
        from repro.faults.model import DeadRouter

        network = build_network(
            figure1_plan(), seed=65,
            endpoint_kwargs={"max_attempts": 2, "reply_timeout": 60},
        )
        injector = FaultInjector(network)
        # Kill every final-stage router serving dest 3's block: dest 3
        # becomes unreachable.
        for (stage, block, index) in list(network.router_grid):
            if stage == 2 and block == 0:
                injector.now(DeadRouter(stage, block, index))
        with _pytest.raises(RuntimeError):
            network.request(9, 3, [1])
