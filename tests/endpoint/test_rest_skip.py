"""The at-rest skip hands out exactly the per-cycle messages.

A Bernoulli source draws ahead to its next message (``gap()``), and an
endpoint at rest skips its source calls until then, telling the source
how many it skipped (``skip(n)``) when it leaves rest (DESIGN.md,
"Idle is one test").  Both runs here make the same draws: the
reference wraps every source in :class:`_PerCall`, which has no
``gap``, so its endpoint calls it every cycle as before.  The
(cycle, destination, payload) of every message must agree, for the
uniform, hotspot and fixed-partner sources at rates 0, 1 and in
between, under an external ``submit()``, a source swap,
``max_outstanding=2`` and a snapshot restored in the middle of a rest.
"""

import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.endpoint.messages import Message, message_fingerprint
from repro.endpoint.traffic import (
    HotspotTraffic,
    PermutationTraffic,
    UniformRandomTraffic,
)
from repro.harness.load_sweep import figure1_network
from repro.sim.backends import BACKENDS
from repro.sim.snapshot import restore_network, snapshot_network

from tests.mutants import seeded

KINDS = ("uniform", "hotspot", "partner")
_RATES = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.001, 0.2))


def _traffic(kind, rate, seed):
    if kind == "uniform":
        return UniformRandomTraffic(16, 4, rate=rate, message_words=3, seed=seed)
    if kind == "hotspot":
        return HotspotTraffic(16, 4, rate=rate, hotspot=2, fraction=0.3,
                              message_words=3, seed=seed)
    return PermutationTraffic(16, 4, rate=rate, permutation="shift",
                              message_words=3, seed=seed)


def _key(message):
    return None if message is None else (message.dest, message.payload)


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(KINDS),
    rate=_RATES,
    leaves=st.lists(st.integers(0, 600), max_size=12),
    pickle_at=st.integers(0, 12),
)
def test_a_source_that_skips_hands_out_the_per_call_messages(
    kind, rate, leaves, pickle_at
):
    """Rest for ``gap()`` calls or leave after ``leave`` of them, then
    call: every skipped call would have returned None, and the call
    that follows returns the message the per-call source returns."""
    per_call = _traffic(kind, rate, 5).source_for(3)
    skipping = _traffic(kind, rate, 5).source_for(3)
    cycle = 0
    for step, leave in enumerate(leaves):
        if step == pickle_at:
            skipping = pickle.loads(pickle.dumps(skipping))
        rest = min(skipping.gap(), leave)
        for _ in range(rest):
            assert per_call(cycle) is None, cycle
            cycle += 1
        skipping.skip(rest)
        assert _key(skipping(cycle)) == _key(per_call(cycle)), cycle
        cycle += 1


class _PerCall:
    """A source without ``gap``: its endpoint calls it every cycle."""

    def __init__(self, source):
        self.source = source

    def __call__(self, cycle):
        return self.source(cycle)


def _messages(network):
    """Every message of the run: logged, queued or in flight."""
    pending = []
    for endpoint in network.endpoints:
        pending += [message for _, message in endpoint._queue]
        pending += [send.message for send in endpoint._sends.values()]
    return {
        "log": message_fingerprint(network.log),
        "pending": sorted(
            (m.source, m.queued_cycle, m.dest, m.payload) for m in pending
        ),
    }


def _run(skip, kind, rate, backend, outstanding, submit_at, swap_at,
         swap_rate, restore_at, cycles):
    """Run Figure 1's network with one traffic source per endpoint, an
    external submit at endpoint 4, a new source at endpoint 6 and a
    snapshot restored, each at its cycle.  Returns the run's messages
    and which endpoints were resting just before each of the three."""
    wrap = (lambda source: source) if skip else _PerCall
    network = figure1_network(
        seed=11, backend=backend,
        endpoint_kwargs={"max_outstanding": outstanding},
    )
    traffic = _traffic(kind, rate, 7)
    for endpoint in network.endpoints:
        endpoint.traffic_source = wrap(traffic.source_for(endpoint.index))
    resting = {}
    events = sorted([(submit_at, "submit"), (swap_at, "swap"),
                     (restore_at, "restore")])
    for at, event in events:
        network.run(at - network.engine.cycle)
        resting[event] = [
            e.index for e in network.endpoints if e._resting is not None
        ]
        if event == "submit":
            network.send(4, Message(dest=9, payload=[1, 2, 3]))
        elif event == "swap":
            swap = _traffic(kind, swap_rate, 8)
            network.endpoints[6].traffic_source = wrap(swap.source_for(6))
        else:
            network = restore_network(
                pickle.loads(pickle.dumps(snapshot_network(network)))
            ).network
    network.run(cycles - network.engine.cycle)
    return _messages(network), resting


def check_the_skip(kind, rate, outstanding, submit_at, swap_at, swap_rate,
                   restore_at, backend="reference", cycles=400):
    """The skipping run hands out the reference run's messages; returns
    which endpoints it had resting before each event."""
    args = (kind, rate, backend, outstanding, submit_at, swap_at,
            swap_rate, restore_at, cycles)
    skipped, resting = _run(True, *args)
    reference, never = _run(False, *args)
    assert not any(never.values())
    assert skipped == reference
    return resting


@settings(max_examples=15, deadline=None)
@given(
    kind=st.sampled_from(KINDS),
    rate=_RATES,
    outstanding=st.sampled_from([1, 2]),
    submit_at=st.integers(0, 399),
    swap_at=st.integers(0, 399),
    swap_rate=_RATES,
    restore_at=st.integers(0, 399),
    backend=st.sampled_from(sorted(BACKENDS)),
)
def test_an_endpoint_that_skips_sends_the_per_cycle_messages(
    kind, rate, outstanding, submit_at, swap_at, swap_rate, restore_at,
    backend,
):
    check_the_skip(kind, rate, outstanding, submit_at, swap_at, swap_rate,
                   restore_at, backend)


#: Light uniform traffic: endpoint 6 rests when its source is swapped
#: for one that sends at once, and the snapshot lands mid-rest.
_LIGHT = dict(kind="uniform", rate=0.01, outstanding=1, submit_at=150,
              swap_at=250, swap_rate=1.0, restore_at=330)


def test_the_light_example_rests_at_each_event():
    resting = check_the_skip(**_LIGHT)
    assert 4 in resting["submit"] and 6 in resting["swap"]
    assert resting["restore"]


@pytest.mark.parametrize("bug", [
    # skip(n) uses up n - 1 drawn values: a rest leaves a failed draw.
    "source-skip-undercounts",
    # A resting endpoint ignores a new source until the old one's gap ends.
    "endpoint-skip-survives-new-source",
])
def test_the_skip_test_catches_a_seeded_bug(bug):
    with seeded(bug):
        with pytest.raises(AssertionError):
            check_the_skip(**_LIGHT)
