"""Single-router protocol behaviour, driven through raw channels."""

import pytest

from repro.core import words as W
from repro.core.parameters import RouterConfig, RouterParameters
from repro.core.random_source import RandomStream
from repro.core.router import (
    BLOCKED_STATE,
    FORWARD_STATE,
    IDLE_STATE,
    MetroRouter,
    REVERSED_STATE,
    SETUP_STATE,
)
from repro.sim.channel import Channel
from repro.sim.engine import Engine

from tests.mutants import seeded


class RouterHarness:
    """One router wired to raw channels, with every wire logged.

    After each step the harness samples every backward wire (words the
    router sent downstream) and every forward wire (words the router
    sent upstream), so tests never lose in-flight words.
    """

    def __init__(self, params=None, dilation=2, delay=1, **router_kwargs):
        self.params = params or RouterParameters(i=4, o=4, w=8, max_d=2)
        config = RouterConfig(self.params, dilation=dilation)
        self.router = MetroRouter(
            self.params,
            name="dut",
            config=config,
            random_stream=RandomStream(7),
            **router_kwargs
        )
        self.engine = Engine()
        self.engine.add_component(self.router)
        self.fwd = []  # our ends (A side) of the forward-port channels
        self.bwd = []  # our ends (B side) of the backward-port channels
        for p in range(self.params.i):
            channel = Channel(delay=delay, name="f{}".format(p))
            self.engine.add_channel(channel)
            self.router.attach_forward(p, channel.b)
            self.fwd.append(channel.a)
        for q in range(self.params.o):
            channel = Channel(delay=delay, name="b{}".format(q))
            self.engine.add_channel(channel)
            self.router.attach_backward(q, channel.a)
            self.bwd.append(channel.b)
        self.bwd_log = [[] for _ in range(self.params.o)]
        self.fwd_log = [[] for _ in range(self.params.i)]
        self.bcb_log = [[] for _ in range(self.params.i)]

    def step(self, n=1):
        for _ in range(n):
            self.engine.step()
            for q in range(self.params.o):
                word = self.bwd[q].recv()
                if word is not None:
                    self.bwd_log[q].append(word)
            for p in range(self.params.i):
                word = self.fwd[p].recv()
                if word is not None:
                    self.fwd_log[p].append(word)
                bcb = self.fwd[p].recv_bcb()
                if bcb is not None:
                    self.bcb_log[p].append(bcb)

    def send(self, port, words_list, settle=1):
        for word in words_list:
            self.fwd[port].send(word)
            self.step()
        self.step(settle)

    def downstream_data(self, q):
        return [w.value for w in self.bwd_log[q] if w.kind == W.DATA]

    def upstream_kinds(self, p):
        return [w.kind for w in self.fwd_log[p]]


def test_head_word_routes_and_shifts():
    h = RouterHarness()
    # direction bits = top log2(2) = 1 bit of the head word (dilation 2).
    h.send(0, [W.data(0b10000001)], settle=3)
    q = h.router.connected_backward_port(0)
    assert q in (2, 3)  # direction 1's dilation group
    assert h.downstream_data(q) == [0b00000010]  # shifted left one bit


def test_direction_zero_group():
    h = RouterHarness()
    h.send(1, [W.data(0b00000001)], settle=2)
    assert h.router.connected_backward_port(1) in (0, 1)


def test_swallow_drops_head_word():
    h = RouterHarness()
    h.router.config.swallow = [True] * 4
    h.send(0, [W.data(0b10000000), W.data(0xAB)], settle=3)
    q = h.router.connected_backward_port(0)
    assert h.downstream_data(q) == [0xAB]  # the head word never re-appears


def test_data_pipelines_in_order():
    h = RouterHarness()
    payload = [0x11, 0x22, 0x33, 0x44]
    h.send(0, [W.data(0)] + [W.data(v) for v in payload], settle=4)
    q = h.router.connected_backward_port(0)
    assert h.downstream_data(q) == [0x00] + payload  # shifted head first


def test_bubble_becomes_data_idle_downstream():
    """A silent cycle on an open connection turns into DATA-IDLE."""
    h = RouterHarness()
    h.send(0, [W.data(0)])
    h.step(3)  # no input driven
    q = h.router.connected_backward_port(0)
    kinds = [w.kind for w in h.bwd_log[q]]
    assert W.IDLE in kinds
    assert h.router.connection_state(0) == FORWARD_STATE


def test_dp_pipeline_latency():
    """With dp=3 the head word exits two cycles later than with dp=1."""
    latencies = {}
    for dp in (1, 3):
        params = RouterParameters(i=4, o=4, w=8, max_d=2, dp=dp)
        h = RouterHarness(params=params)
        h.fwd[0].send(W.data(0))
        for cycle in range(1, 12):
            h.step()
            q = h.router.connected_backward_port(0)
            if q is not None and h.bwd_log[q]:
                latencies[dp] = cycle
                break
            h.fwd[0].send(W.data(1))  # keep the connection alive
    assert latencies[3] - latencies[1] == 2


def test_blocked_when_group_full_detailed_reply():
    h = RouterHarness()
    # Occupy both direction-0 outputs.
    h.send(0, [W.data(0)])
    h.send(1, [W.data(0)])
    assert h.router.connection_state(0) == FORWARD_STATE
    assert h.router.connection_state(1) == FORWARD_STATE
    # Third request for direction 0 blocks.
    h.send(2, [W.data(0)], settle=1)
    assert h.router.connection_state(2) == BLOCKED_STATE
    # Send data (swallowed) then TURN: expect STATUS(blocked) + DROP.
    h.send(2, [W.data(0x55), W.TURN_WORD], settle=5)
    reply = h.fwd_log[2]
    assert [w.kind for w in reply] == [W.STATUS, W.DROP]
    assert reply[0].value.blocked is True
    assert h.router.connection_state(2) == IDLE_STATE


def test_blocked_fast_reclaim_sends_bcb():
    h = RouterHarness()
    for port in range(4):
        h.router.config.fast_reclaim[h.router.config.forward_port_id(port)] = True
    h.send(0, [W.data(0)])
    h.send(1, [W.data(0)])
    h.send(2, [W.data(0)], settle=3)
    assert h.bcb_log[2] == [1]
    # The port drains in-flight words, then a DROP releases it.
    h.send(2, [W.DROP_WORD], settle=2)
    assert h.router.connection_state(2) == IDLE_STATE
    # The established connections were untouched.
    assert h.router.connection_state(0) == FORWARD_STATE
    assert h.router.connection_state(1) == FORWARD_STATE


def test_turn_reverses_and_injects_status():
    h = RouterHarness()
    payload = [0xDE, 0xAD]
    h.send(0, [W.data(0)] + [W.data(v) for v in payload] + [W.TURN_WORD], settle=3)
    q = h.router.connected_backward_port(0)
    assert h.router.connection_state(0) == REVERSED_STATE
    # The TURN itself went downstream last.
    assert h.bwd_log[q][-1].kind == W.TURN
    # Downstream replies with a data word.
    h.bwd[q].send(W.data(0x7A))
    h.step(4)
    reply = h.fwd_log[0]
    assert reply[0].kind == W.STATUS
    assert reply[0].value.blocked is False
    # STATUS checksum covers the forwarded words (shifted head + payload).
    assert reply[0].value.checksum == W.checksum_of([0x00] + payload)
    assert reply[0].value.words_forwarded == 3
    data_words = [w.value for w in reply if w.kind == W.DATA]
    assert data_words == [0x7A]


def test_idle_fills_reversal_bubbles():
    h = RouterHarness()
    h.send(0, [W.data(0), W.TURN_WORD], settle=5)
    # No reverse data yet: upstream sees STATUS then DATA-IDLE filler.
    reply = h.fwd_log[0]
    assert reply[0].kind == W.STATUS
    assert len(reply) >= 2
    assert all(w.kind == W.IDLE for w in reply[1:])


def test_double_turn_returns_to_forward():
    h = RouterHarness()
    h.send(0, [W.data(0), W.TURN_WORD], settle=3)
    q = h.router.connected_backward_port(0)
    assert h.router.connection_state(0) == REVERSED_STATE
    # Destination answers then hands the direction back.
    h.bwd[q].send(W.data(0x11))
    h.step()
    marker = len(h.bwd_log[q])
    h.bwd[q].send(W.TURN_WORD)
    h.step(4)
    assert h.router.connection_state(0) == FORWARD_STATE
    # The TURN reached the source side.
    assert h.fwd_log[0][-1].kind == W.TURN
    # Forward data flows again, preceded by a fresh STATUS downstream.
    h.send(0, [W.data(0x42)], settle=3)
    new_words = h.bwd_log[q][marker:]
    kinds = [w.kind for w in new_words]
    assert W.STATUS in kinds
    values = [w.value for w in new_words if w.kind == W.DATA]
    assert 0x42 in values
    assert kinds.index(W.STATUS) < kinds.index(W.DATA)


def test_drop_tears_down_and_frees_port():
    h = RouterHarness()
    h.send(0, [W.data(0), W.data(1)])
    q = h.router.connected_backward_port(0)
    h.send(0, [W.DROP_WORD], settle=2)
    assert h.router.connection_state(0) == IDLE_STATE
    assert h.router.busy_backward_ports() == []
    assert h.bwd_log[q][-1].kind == W.DROP  # teardown propagated
    # The freed output is immediately reusable.
    h.send(1, [W.data(0)])
    h.send(2, [W.data(0)], settle=1)
    assert len(h.router.busy_backward_ports()) == 2


def test_back_to_back_connections_on_same_port():
    h = RouterHarness()
    for round_number in range(3):
        h.send(0, [W.data(0), W.data(round_number)], settle=1)
        assert h.router.connection_state(0) == FORWARD_STATE
        h.send(0, [W.DROP_WORD], settle=2)
        assert h.router.connection_state(0) == IDLE_STATE


def test_watchdog_frees_silent_connection():
    h = RouterHarness(signal_timeout=10)
    h.send(0, [W.data(0)])
    q = h.router.connected_backward_port(0)
    assert q is not None
    h.step(15)  # upstream goes silent
    assert h.router.connection_state(0) == IDLE_STATE
    assert h.router.busy_backward_ports() == []
    assert h.bwd_log[q][-1].kind == W.DROP  # downstream was torn down


def test_watchdog_disabled_with_none():
    h = RouterHarness(signal_timeout=None)
    h.send(0, [W.data(0)])
    h.step(100)
    assert h.router.connection_state(0) == FORWARD_STATE


def test_default_watchdog_fires_on_the_64th_silent_cycle():
    """``MetroRouter``'s own default dead-signal timeout is 64 cycles:
    a forward connection whose source goes silent is still open after
    63 silent cycles and torn down on the 64th."""
    h = RouterHarness()
    h.fwd[0].send(W.data(0))
    while h.router.connection_state(0) != FORWARD_STATE:
        h.step()
    q = h.router.connected_backward_port(0)
    h.step(63)
    assert h.router.connection_state(0) == FORWARD_STATE
    assert h.router.busy_backward_ports() == [q]
    h.step()
    assert h.router.connection_state(0) == IDLE_STATE
    assert h.router.busy_backward_ports() == []


def test_setup_survives_a_header_stall_shorter_than_the_timeout():
    """With ``hw >= 1`` a connection waits in setup for its next header
    word; 63 silent cycles there are not a dead source, and the header
    word that finally arrives routes the connection."""
    params = RouterParameters(i=4, o=4, w=8, max_d=2, hw=2)
    h = RouterHarness(params=params)
    h.send(0, [W.data(1)], settle=1)
    assert h.router.connection_state(0) == SETUP_STATE
    h.step(62)  # with the settle cycle above: 63 silent setup cycles
    assert h.router.connection_state(0) == SETUP_STATE
    h.send(0, [W.data(0), W.data(0x5A)], settle=3)
    q = h.router.connected_backward_port(0)
    assert q in (2, 3)  # the direction the first header word carried
    assert h.downstream_data(q) == [0x5A]


def test_a_bcb_pulse_is_answered_past_an_unwired_backward_port():
    """A partly wired router: direction 0's backward ports have no
    wire.  A connection holding one of them (parked behind its forward
    port, disabled right after it routed, so its head word never
    leaves) does not stop the BCB scan from answering a pulse on a
    wired port: the connection there is torn down downstream, the pulse
    goes upstream one stage higher and the port is free again."""
    params = RouterParameters(i=4, o=4, w=8, max_d=2)
    router = MetroRouter(
        params, name="dut", config=RouterConfig(params, dilation=2),
        random_stream=RandomStream(7),
    )
    engine = Engine()
    engine.add_component(router)
    fwd = []
    for p in range(params.i):
        channel = Channel(name="f{}".format(p))
        engine.add_channel(channel)
        router.attach_forward(p, channel.b)
        fwd.append(channel.a)
    bwd = {}
    for q in router.config.backward_group(1):
        channel = Channel(name="b{}".format(q))
        engine.add_channel(channel)
        router.attach_backward(q, channel.a)
        bwd[q] = channel.b
    fwd[0].send(W.data(0x00))  # direction 0: an unwired port
    fwd[1].send(W.data(0x80))  # direction 1: a wired one
    engine.run(2)
    router.config.port_enabled[0] = False
    assert router.connected_backward_port(0) in (0, 1)
    q = router.connected_backward_port(1)
    engine.step()
    assert bwd[q].recv() == W.data(0x00)  # the shifted head word
    bwd[q].send_bcb(1)
    engine.run(2)
    assert fwd[1].recv_bcb() == 2
    assert bwd[q].recv() == W.DROP_WORD
    assert q not in router.busy_backward_ports()


def test_the_bcb_test_catches_a_scan_that_reads_an_unwired_port():
    """Seeded router bug (``docs/testing.md``): the BCB scan skips a
    port only when it is unwired *and* silent, so it reads the pulse
    pipe of a port with no wire."""
    with seeded("router-bcb-reads-unwired-port"):
        with pytest.raises(AttributeError):
            test_a_bcb_pulse_is_answered_past_an_unwired_backward_port()


def test_the_timeout_test_catches_a_default_of_65():
    """Seeded router bug (``docs/testing.md``)."""
    with seeded("router-timeout-default-65"):
        with pytest.raises(AssertionError):
            test_default_watchdog_fires_on_the_64th_silent_cycle()


def test_the_stall_test_catches_a_setup_reset_on_the_first_silent_cycle():
    """Seeded router bug (``docs/testing.md``): the setup state's
    watchdog test is negated."""
    with seeded("router-setup-watchdog-negated"):
        with pytest.raises(AssertionError):
            test_setup_survives_a_header_stall_shorter_than_the_timeout()


def test_disabled_forward_port_ignores_traffic():
    h = RouterHarness()
    h.router.config.port_enabled[h.router.config.forward_port_id(0)] = False
    h.send(0, [W.data(0)], settle=2)
    assert h.router.connection_state(0) == IDLE_STATE
    assert h.router.busy_backward_ports() == []


def test_disabled_backward_port_halves_group():
    h = RouterHarness()
    config = h.router.config
    config.port_enabled[config.backward_port_id(0)] = False
    h.send(0, [W.data(0)], settle=1)
    assert h.router.connected_backward_port(0) == 1
    h.send(1, [W.data(0)], settle=1)
    assert h.router.connection_state(1) == BLOCKED_STATE


def test_dilation_one_uses_all_outputs_as_radix_4():
    h = RouterHarness(dilation=1)
    # direction bits = 2, taken from the top of the head word.
    h.send(0, [W.data(0b11000000)], settle=1)
    assert h.router.connected_backward_port(0) == 3


def test_hw1_consumes_header_word():
    params = RouterParameters(i=4, o=4, w=8, max_d=2, hw=1)
    h = RouterHarness(params=params)
    # With hw=1 the direction rides in the LOW bits of the first word.
    h.send(0, [W.data(0b1), W.data(0xCC)], settle=3)
    q = h.router.connected_backward_port(0)
    assert q in (2, 3)
    assert h.downstream_data(q) == [0xCC]  # header word was consumed


def test_hw2_consumes_two_words():
    params = RouterParameters(i=4, o=4, w=8, max_d=2, hw=2)
    h = RouterHarness(params=params)
    h.send(0, [W.data(0), W.data(0), W.data(0x77)], settle=3)
    q = h.router.connected_backward_port(0)
    assert h.downstream_data(q) == [0x77]


def test_status_counts_only_data_words():
    h = RouterHarness()
    h.send(
        0,
        [W.data(0), W.data(1), W.IDLE_WORD, W.data(2), W.TURN_WORD],
        settle=3,
    )
    reply = h.fwd_log[0]
    status = reply[0].value
    # Shifted head + two data words; the IDLE is not counted.
    assert status.words_forwarded == 3


def test_reverse_drop_from_downstream_closes():
    h = RouterHarness()
    h.send(0, [W.data(0), W.TURN_WORD], settle=3)
    q = h.router.connected_backward_port(0)
    h.bwd[q].send(W.data(0x1))
    h.step()
    h.bwd[q].send(W.DROP_WORD)
    h.step(4)
    assert h.fwd_log[0][-1].kind == W.DROP
    assert h.router.connection_state(0) == IDLE_STATE
    assert h.router.busy_backward_ports() == []


def test_source_drop_while_reversed_tears_down_both_sides():
    """A reply timeout at the source closes against the reverse flow."""
    h = RouterHarness()
    h.send(0, [W.data(0), W.TURN_WORD], settle=3)
    q = h.router.connected_backward_port(0)
    assert h.router.connection_state(0) == REVERSED_STATE
    marker = len(h.bwd_log[q])
    h.send(0, [W.DROP_WORD], settle=2)
    assert h.router.connection_state(0) == IDLE_STATE
    assert any(w.kind == W.DROP for w in h.bwd_log[q][marker:])


def test_concurrent_connections_do_not_interfere():
    h = RouterHarness()
    h.send(0, [W.data(0b00000000)])
    h.send(1, [W.data(0b10000000)])
    h.send(2, [W.data(0b00000001)])
    h.send(3, [W.data(0b10000001)], settle=2)
    ports = [h.router.connected_backward_port(p) for p in range(4)]
    assert None not in ports
    assert len(set(ports)) == 4
    assert ports[0] in (0, 1) and ports[2] in (0, 1)
    assert ports[1] in (2, 3) and ports[3] in (2, 3)


def test_drop_then_immediate_new_head_on_same_wire():
    """Regression: a new circuit request one cycle behind a DROP must
    open a fresh connection while the old pipeline drains — no word of
    either stream may be lost (back-to-back connections)."""
    h = RouterHarness()
    # First connection with some payload, closed, and a new head word
    # follows the DROP with NO idle gap on the wire.
    stream = [
        W.data(0b00000000),  # head 1 (direction 0)
        W.data(0x11),
        W.DROP_WORD,
        W.data(0b10000000),  # head 2 (direction 1), right behind
        W.data(0x22),
    ]
    for word in stream:
        h.fwd[0].send(word)
        h.step()
    h.step(4)
    # New connection is live in direction 1.
    q2 = h.router.connected_backward_port(0)
    assert q2 in (2, 3)
    assert h.downstream_data(q2) == [0b00000000, 0x22]  # shifted head 2
    # Old connection delivered everything, including its DROP.
    old_q = [q for q in (0, 1) if h.bwd_log[q]][0]
    kinds = [w.kind for w in h.bwd_log[old_q]]
    assert h.downstream_data(old_q) == [0x00, 0x11]
    assert kinds[-1] == W.DROP
    assert old_q not in h.router.busy_backward_ports()


def test_drop_then_new_head_with_deep_pipeline():
    """Same back-to-back race with dp=3: the old DROP is still three
    stages deep when the new head arrives."""
    params = RouterParameters(i=4, o=4, w=8, max_d=2, dp=3)
    h = RouterHarness(params=params)
    stream = [
        W.data(0b00000000),
        W.data(0x33),
        W.DROP_WORD,
        W.data(0b10000000),
        W.data(0x44),
    ]
    for word in stream:
        h.fwd[0].send(word)
        h.step()
    h.step(8)
    q2 = h.router.connected_backward_port(0)
    assert q2 in (2, 3)
    assert 0x44 in h.downstream_data(q2)
    assert h.router.busy_backward_ports() == [q2]


class TestVariableTurnDelayPorts:
    """Section 5.1: per-port wire depths; turns must work regardless."""

    def _harness_with_mixed_delays(self):
        params = RouterParameters(i=4, o=4, w=8, max_d=2)
        h = RouterHarness.__new__(RouterHarness)
        h.params = params
        config = RouterConfig(params, dilation=2)
        h.router = MetroRouter(
            params, name="dut", config=config, random_stream=RandomStream(7)
        )
        h.engine = Engine()
        h.engine.add_component(h.router)
        h.fwd, h.bwd = [], []
        delays_f = [1, 2, 3, 1]
        delays_b = [3, 1, 2, 1]
        for p in range(4):
            channel = Channel(delay=delays_f[p], name="f{}".format(p))
            h.engine.add_channel(channel)
            h.router.attach_forward(p, channel.b)
            h.fwd.append(channel.a)
            config.set_turn_delay(config.forward_port_id(p), delays_f[p])
        for q in range(4):
            channel = Channel(delay=delays_b[q], name="b{}".format(q))
            h.engine.add_channel(channel)
            h.router.attach_backward(q, channel.a)
            h.bwd.append(channel.b)
            config.set_turn_delay(config.backward_port_id(q), delays_b[q])
        h.bwd_log = [[] for _ in range(4)]
        h.fwd_log = [[] for _ in range(4)]
        h.bcb_log = [[] for _ in range(4)]
        return h

    def test_turn_over_mixed_depth_wires(self):
        h = self._harness_with_mixed_delays()
        h.send(0, [W.data(0), W.data(0xAA), W.TURN_WORD], settle=8)
        q = h.router.connected_backward_port(0)
        assert h.bwd_log[q][-1].kind == W.TURN
        assert h.router.connection_state(0) == REVERSED_STATE
        # Reply over the deep wire still arrives intact.
        h.bwd[q].send(W.data(0x5C))
        h.step(8)
        data_back = [w.value for w in h.fwd_log[0] if w.kind == W.DATA]
        assert data_back == [0x5C]

    def test_each_port_pairing_works(self):
        h = self._harness_with_mixed_delays()
        for p in range(4):
            h.send(p, [W.data(0 if p < 2 else 0x80), W.data(p)], settle=6)
            q = h.router.connected_backward_port(p)
            assert q is not None, p
            assert p in [w.value for w in h.bwd_log[q] if w.kind == W.DATA]
            h.send(p, [W.DROP_WORD], settle=8)
            assert h.router.connection_state(p) == IDLE_STATE
