"""Snapshots of a network with every observer bound.

The hub, the conformance Oracle and the run-log stream ride engine
snapshots as engine observers, and the hub's word counters ride the
channels.  A run split by a snapshot must finish with the straight
run's counters, violations and run-log deltas.
"""

import io

import pytest

from repro.core import words as W
from repro.sim.backends import BACKENDS
from repro.sim.snapshot import (
    SNAPSHOT_FORMAT_VERSION,
    Snapshot,
    SnapshotFormatError,
    restore_network,
    snapshot_network,
)
from repro.telemetry import TelemetryStream, read_run_log
from repro.verify import attach_oracle
from repro.verify.oracle import RULE_HALF_DUPLEX, Oracle

from tests.telemetry.test_observer_pins import (
    CYCLES,
    channel_words,
    pinned_network,
)
from tests.verify.test_oracle_rules import _watch_sweeps

#: Where the run is split: a flush boundary of the pinned stream.
SPLIT = 200
#: The cycle a wire is made to collide on: the last one before the
#: split, so the straight run reports it on cycle ``SPLIT`` and the
#: resumed run must report it on its first tick.
COLLIDE = SPLIT - 1


def _collide(network):
    """Stage DATA both ways on one injection wire, then run the cycle."""
    channel = network.channels[
        max(key for key in network.channels if key[0][0] == "endpoint")
    ]
    channel.a.send(W.data(1))
    channel.b.send(W.data(2))
    before = channel.half_duplex_violations
    network.run(1)
    assert channel.half_duplex_violations == before + 1
    return channel


def _rows(violations):
    return [(v.cycle, v.router, v.port, v.rule, v.detail) for v in violations]


def _deltas(handle):
    return [
        event for event in read_run_log(handle.getvalue().splitlines())
        if event["event"] == "metrics.delta"
    ]


def _observer(network, kind):
    return next(o for o in network.engine.observers if isinstance(o, kind))


@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_a_split_run_finishes_with_the_straight_runs_observations(backend):
    network, hub, stream, handle = pinned_network(backend)
    oracle = attach_oracle(network)
    network.run(COLLIDE)
    channel = _collide(network)
    network.run(CYCLES - SPLIT)
    stream.close()
    straight = _deltas(handle)
    assert (SPLIT, channel.name, None, RULE_HALF_DUPLEX) in [
        row[:4] for row in _rows(oracle.violations)
    ]

    first, _hub, first_stream, first_handle = pinned_network(backend)
    attach_oracle(first)
    first.run(COLLIDE)
    _collide(first)
    snap = snapshot_network(first)
    first_stream.close()
    resumed = restore_network(snap).network
    # A restored stream is inert; the resumed leg streams on a new one.
    second_handle = io.StringIO()
    second_stream = TelemetryStream(
        second_handle, flush_every=100, window_cycles=100, meta={"pin": 1}
    ).bind(resumed)
    roracle = _observer(resumed, Oracle)
    assert roracle.violations == []
    resumed.run(1)
    # The collision the snapshot carried in its counters is reported
    # on the restored Oracle's first tick, as in the straight run.
    assert _rows(roracle.violations) == _rows(oracle.violations)[:1]
    resumed.run(CYCLES - SPLIT - 1)
    second_stream.close()

    assert resumed.engine.cycle == network.engine.cycle == CYCLES
    assert channel_words(resumed.telemetry.snapshot()) == channel_words(
        hub.snapshot()
    )
    assert resumed.telemetry.snapshot() == hub.snapshot()
    assert _rows(roracle.violations) == _rows(oracle.violations)
    # The first leg's deltas are the straight run's up to the split;
    # the second leg's first delta restarts from zero (a new stream),
    # and every later one is the straight run's again.
    before = _deltas(first_handle)
    after = _deltas(second_handle)
    assert [e["series"] for e in before[:-1]] == [
        e["series"] for e in straight[: len(before) - 1]
    ]
    assert [(e["cycle"], e["series"]) for e in after[1:]] == [
        (e["cycle"], e["series"]) for e in straight[len(before):]
    ]


@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_a_restored_oracle_sweeps_on_its_first_tick(backend):
    """The total a live Oracle compares with is the process's; the
    restored one has none to compare with, so it sweeps once."""
    network, _hub, _stream, _handle = pinned_network(backend)
    attach_oracle(network)
    network.run(50)
    resumed = restore_network(snapshot_network(network)).network
    watched = _watch_sweeps(_observer(resumed, Oracle))
    resumed.run(1)
    swept = watched.iterations
    assert swept > 0
    resumed.run(50)
    assert watched.iterations == swept


def test_a_snapshot_whose_channels_hold_the_hub_is_refused(tmp_path):
    """A v1 file whose channels hold the hub is refused by the version gate."""
    network, hub, _stream, _handle = pinned_network()
    network.run(20)
    for channel in network.channels.values():
        channel.telemetry = hub
    snap = snapshot_network(network)
    snap.version = 1
    path = snap.save(str(tmp_path / "v1.snap"))
    with pytest.raises(SnapshotFormatError,
                       match="v1 is incompatible.*expected v{}".format(
                           SNAPSHOT_FORMAT_VERSION)):
        Snapshot.load(path)
