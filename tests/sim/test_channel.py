"""Channel pipeline semantics: wires are shift registers."""

import pickle

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core import words as W
from repro.sim.channel import Channel

from tests.mutants import seeded


def test_delay_one_word_arrives_next_cycle():
    channel = Channel(delay=1)
    channel.a.send(W.data(5))
    assert channel.b.recv() is None  # not visible until the clock edge
    channel.advance()
    assert channel.b.recv() == W.data(5)
    channel.advance()
    assert channel.b.recv() is None


@pytest.mark.parametrize("delay", [1, 2, 3, 7])
def test_delay_n_takes_n_cycles(delay):
    channel = Channel(delay=delay)
    channel.a.send(W.data(9))
    for _ in range(delay - 1):
        channel.advance()
        assert channel.b.recv() is None
    channel.advance()
    assert channel.b.recv() == W.data(9)


def test_streams_stay_in_order():
    channel = Channel(delay=2)
    received = []
    for value in range(5):
        channel.a.send(W.data(value))
        channel.advance()
        word = channel.b.recv()
        if word is not None:
            received.append(word.value)
    for _ in range(2):
        channel.advance()
        word = channel.b.recv()
        if word is not None:
            received.append(word.value)
    assert received == [0, 1, 2, 3, 4]


def test_directions_are_independent():
    channel = Channel(delay=1)
    channel.a.send(W.data(1))
    channel.b.send(W.data(2))
    channel.advance()
    assert channel.b.recv() == W.data(1)
    assert channel.a.recv() == W.data(2)


def test_bcb_travels_opposite_to_data():
    channel = Channel(delay=3)
    channel.b.send_bcb(1)
    for _ in range(2):
        channel.advance()
        assert channel.a.recv_bcb() is None
    channel.advance()
    assert channel.a.recv_bcb() == 1
    channel.advance()
    assert channel.a.recv_bcb() is None


def test_bcb_does_not_leak_to_sender_side():
    channel = Channel(delay=1)
    channel.b.send_bcb(4)
    channel.advance()
    assert channel.b.recv_bcb() is None
    assert channel.a.recv_bcb() == 4


def test_dead_channel_delivers_nothing():
    channel = Channel(delay=1)
    channel.a.send(W.data(1))
    channel.b.send_bcb(1)
    channel.dead = True
    channel.advance()
    assert channel.b.recv() is None
    assert channel.a.recv_bcb() is None


def test_fault_transform_applies_on_delivery():
    channel = Channel(delay=1)
    channel.fault_a_to_b = lambda word: W.data(word.value ^ 0xF) if word.kind == W.DATA else word
    channel.a.send(W.data(0b1010))
    channel.advance()
    assert channel.b.recv() == W.data(0b0101)
    # The reverse direction is untouched.
    channel.b.send(W.data(0b1010))
    channel.advance()
    assert channel.a.recv() == W.data(0b1010)


def test_delay_zero_rejected():
    with pytest.raises(ValueError):
        Channel(delay=0)


def test_in_flight_counts_both_directions():
    channel = Channel(delay=2)
    channel.a.send(W.data(1))
    channel.b.send(W.data(2))
    channel.advance()
    assert channel.in_flight() == 2


class TestHalfDuplexMonitor:
    def test_data_collision_counted(self):
        channel = Channel(delay=1)
        channel.a.send(W.data(1))
        channel.b.send(W.data(2))
        channel.advance()
        assert channel.half_duplex_violations == 1

    def test_control_against_flow_exempt(self):
        channel = Channel(delay=1)
        channel.a.send(W.data(1))
        channel.b.send(W.DROP_WORD)  # abort signaling: allowed
        channel.advance()
        assert channel.half_duplex_violations == 0

    def test_bcb_sideband_exempt(self):
        channel = Channel(delay=1)
        channel.a.send(W.data(1))
        channel.b.send_bcb(1)
        channel.advance()
        assert channel.half_duplex_violations == 0

    def test_alternating_directions_clean(self):
        channel = Channel(delay=1)
        channel.a.send(W.data(1))
        channel.advance()
        channel.b.send(W.data(2))
        channel.advance()
        assert channel.half_duplex_violations == 0


# ---------------------------------------------------------------------------
# Property: the channel against a model that always shifts everything
# ---------------------------------------------------------------------------
#
# ``verify --backend-diff`` cannot see a bug in ``Channel``: both engines
# run it.  This can.  The model keeps no liveness summary and skips
# nothing; the channel must agree with it on every observable, every
# cycle, across a pickle round-trip (which drops the summary).

_LANES = ("a_data", "b_data", "a_bcb", "b_bcb")


class _NaiveChannel:
    """Four shift registers of ``delay`` slots, all shifted every cycle."""

    def __init__(self, delay):
        self.lanes = {lane: [None] * delay for lane in _LANES}
        self.violations = 0

    def advance(self, staged):
        down, up = staged["a_data"], staged["b_data"]
        if down and up and down.kind == up.kind == W.DATA:
            self.violations += 1
        for lane in _LANES:
            self.lanes[lane] = [staged[lane]] + self.lanes[lane][:-1]

    def observe(self):
        """What each end reads this cycle, and the data words in flight."""
        heads = {lane: slots[-1] for lane, slots in self.lanes.items()}
        in_flight = sum(
            word is not None
            for lane in ("a_data", "b_data")
            for word in self.lanes[lane]
        )
        return heads, in_flight, self.violations


def _observe(channel):
    heads = {
        "a_data": channel.b.recv(),
        "b_data": channel.a.recv(),
        "a_bcb": channel.b.recv_bcb(),
        "b_bcb": channel.a.recv_bcb(),
    }
    return heads, channel.in_flight(), channel.half_duplex_violations


_WORDS = st.one_of(
    st.none(),
    st.builds(W.data, st.integers(0, 15)),
    st.sampled_from([W.IDLE_WORD, W.TURN_WORD, W.DROP_WORD]),
)
_PULSES = st.one_of(st.none(), st.integers(1, 3))
#: One cycle: what each end stages (None: that end stays silent).
_CYCLE = st.fixed_dictionaries(
    {"a_data": _WORDS, "b_data": _WORDS, "a_bcb": _PULSES, "b_bcb": _PULSES}
)
_SILENCE = dict.fromkeys(_LANES)


@settings(max_examples=200, deadline=None)
@given(
    delay=st.integers(1, 4),
    script=st.lists(_CYCLE, min_size=1, max_size=24),
    pickle_at=st.integers(0, 24),
)
# A pulse alone on an otherwise silent wire, then silence while it flies.
@example(
    delay=3,
    script=[dict(_SILENCE, b_bcb=2)] + [_SILENCE] * 4,
    pickle_at=2,
)
def test_channel_matches_the_always_shift_model(delay, script, pickle_at):
    channel = Channel(delay=delay)
    model = _NaiveChannel(delay)
    for cycle, staged in enumerate(script):
        if cycle == pickle_at:
            channel = pickle.loads(pickle.dumps(channel))
        for end in "ab":
            if staged[end + "_data"] is not None:
                getattr(channel, end).send(staged[end + "_data"])
            if staged[end + "_bcb"] is not None:
                getattr(channel, end).send_bcb(staged[end + "_bcb"])
        channel.advance()
        model.advance(staged)
        assert _observe(channel) == model.observe(), (cycle, staged)


def test_the_property_catches_a_stale_liveness_summary():
    """``channel-stale-liveness``: a lone ``send_bcb`` leaves the wire
    marked silent, so ``advance`` never shifts the pulse."""
    with seeded("channel-stale-liveness"):
        with pytest.raises(AssertionError):
            test_channel_matches_the_always_shift_model()
