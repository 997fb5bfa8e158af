"""Generalized analytical model: arbitrary messages and networks."""

import pytest

from repro.latency_model import general as G
from repro.latency_model.implementations import table3_implementations
from repro.network.topology import figure1_plan, figure3_plan

IMPLS = {(i.name, i.technology): i for i in table3_implementations()}
ORBIT = IMPLS[("METROJR-ORBIT", "1.2u Gate Array")]
ORBIT2 = IMPLS[("METROJR-ORBIT 2-cascade", "1.2u Gate Array")]
ORBIT4 = IMPLS[("METROJR-ORBIT 4-cascade", "1.2u Gate Array")]


class TestTMessage:
    def test_reduces_to_t_20_32(self):
        assert G.t_message(ORBIT, 20) == pytest.approx(1250)
        assert G.t_message(ORBIT2, 20) == pytest.approx(750)

    def test_scales_linearly_in_payload(self):
        base = G.t_message(ORBIT, 20)
        double = G.t_message(ORBIT, 40)
        # +160 bits at 6.25 ns/bit.
        assert double - base == pytest.approx(1000)

    def test_custom_radices(self):
        # A 64-node, 3-stage radix-4 network (the Figure 3 shape).
        radices = G.plan_radices(figure3_plan())
        assert radices == (4, 4, 4)
        t = G.t_message(ORBIT, 20, stage_radices=radices)
        # 3 stages x 50 ns + (160 + hbits) bits x 6.25; hbits: 6 bits
        # in one 4-bit... two 4-bit words -> 8 bits.
        assert t == pytest.approx(3 * 50 + 168 * 6.25)

    def test_plan_radices_figure1(self):
        assert G.plan_radices(figure1_plan()) == (2, 2, 4)


class TestBandwidth:
    def test_orbit_port_bandwidth(self):
        # 4 bits per 25 ns = 160 Mbit/s.
        assert G.bandwidth_per_port(ORBIT) == pytest.approx(160)

    def test_cascade_multiplies_bandwidth(self):
        assert G.bandwidth_per_port(ORBIT4) == pytest.approx(640)

    def test_saturation_rate(self):
        # 20 bytes + 8 header bits = 168 bits -> 42 words -> 1050 ns.
        rate = G.saturation_messages_per_us(ORBIT, 20)
        assert rate == pytest.approx(1000.0 / 1050, rel=1e-6)

    def test_saturation_rate_cascade(self):
        # 160 + 16 = 176 bits over 8-bit words -> 22 cycles -> 550 ns.
        rate = G.saturation_messages_per_us(ORBIT2, 20)
        assert rate == pytest.approx(1000.0 / 550, rel=1e-6)


class TestCrossover:
    def test_cascade_always_wins_here(self):
        # With hw=0, header replication costs little: the 2-cascade
        # wins from the first byte.
        assert G.crossover_message_bytes(ORBIT, ORBIT2) == 1

    def test_hw_crossover(self):
        """hw=1 at 2 ns vs hw=0 at 5 ns (full custom): the faster clock
        wins immediately for any realistic message."""
        hw0 = IMPLS[("METROJR", "0.8u Full Custom")]
        hw1 = IMPLS[("METROJR hw=1", "0.8u Full Custom")]
        assert G.crossover_message_bytes(hw0, hw1) == 1

    def test_no_crossover_returns_none(self):
        # An implementation never beats itself.
        assert G.crossover_message_bytes(ORBIT, ORBIT) is None
