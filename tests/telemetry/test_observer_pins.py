"""Golden pin of what the telemetry observers write for one seeded run.

``test_hub.py`` checks that ``channel.words`` is counted at all; this
fixture pins *what* is counted.  A loaded Figure 1 network with a
metrics hub and a run-log stream bound runs a fixed window, and the
fixture holds:

* the ``channel.words`` (fwd, rev) count of every link group;
* the ``channel.in_flight`` occupancy histogram;
* every byte of the run log except the wall-clock ``t`` fields.

A change to how a wire counts its words, to the hub's occupancy
sampling or to the run-log encoding (series order included) shows up
as a diff here.  If a change is *intentional*, regenerate with::

    PYTHONPATH=src python tests/telemetry/test_observer_pins.py --regen

and review the fixture diff like any other code change.  Every
registered backend is held to the same fixture.
"""

import io
import json
import os
import re
import sys
from unittest import mock

import pytest

from repro.endpoint.traffic import UniformRandomTraffic
from repro.harness.load_sweep import figure1_network
from repro.sim.backends import BACKENDS
from repro.telemetry import TelemetryHub, TelemetryStream
from repro.telemetry.stream import _SERIES_ORDER

if __name__ == "__main__":  # ``--regen`` runs this file as a script
    sys.path.insert(0, os.path.normpath(os.path.join(__file__, "../../..")))

from tests.mutants import seeded

PIN_PATH = os.path.join(
    os.path.dirname(os.path.dirname(__file__)), "fixtures", "observer_pins.json"
)

CYCLES = 400

#: The wall-clock field of a run-log record; everything else is pinned.
_WALL_CLOCK = re.compile(r', "t": [-+.0-9e]+')


def pinned_network(backend="reference"):
    """The pinned run's network, hub and stream, before any cycle runs."""
    hub = TelemetryHub(spans=False)
    network = figure1_network(seed=5, backend=backend, telemetry=hub)
    UniformRandomTraffic(
        n_endpoints=network.plan.n_endpoints,
        w=network.codec.w,
        rate=0.05,
        message_words=8,
        seed=6,
    ).attach(network)
    handle = io.StringIO()
    stream = TelemetryStream(
        handle, flush_every=100, window_cycles=100, meta={"pin": 1}
    )
    stream.bind(network)
    return network, hub, stream, handle


def channel_words(snapshot):
    """``{link group: [fwd, rev]}`` from a hub snapshot."""
    words = {}
    for labels, _kind, count in snapshot.labeled("channel.words"):
        pair = words.setdefault(labels["link"], [0, 0])
        pair[labels["dir"] == "rev"] += count
    return dict(sorted(words.items()))


def run_log_lines(text):
    """The run log's lines with the wall-clock ``t`` fields cut out."""
    return [_WALL_CLOCK.sub("", line) for line in text.splitlines()]


def pinned_state(backend="reference"):
    network, hub, stream, handle = pinned_network(backend)
    network.run(CYCLES)
    stream.close()
    snapshot = hub.snapshot()
    return {
        "cycles": CYCLES,
        "channel_words": channel_words(snapshot),
        "in_flight": json.loads(json.dumps(
            snapshot.histogram("channel.in_flight")._data()
        )),
        "run_log": run_log_lines(handle.getvalue()),
    }


def _golden():
    with open(PIN_PATH) as handle:
        return json.load(handle)


@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_channel_words_match_the_pin(backend):
    state = pinned_state(backend)
    golden = _golden()
    # Every link group carried words both ways: the pin says something.
    assert all(fwd and rev for fwd, rev in state["channel_words"].values())
    assert state["channel_words"] == golden["channel_words"]


@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_in_flight_histogram_matches_the_pin(backend):
    state = pinned_state(backend)
    assert state["in_flight"]["count"] == CYCLES // 16
    assert state["in_flight"] == _golden()["in_flight"]


@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_run_log_bytes_match_the_pin(backend):
    state = pinned_state(backend)
    golden = _golden()
    assert len(state["run_log"]) == len(golden["run_log"])
    for line, pinned in zip(state["run_log"], golden["run_log"]):
        assert line == pinned


def test_the_pin_catches_reverse_words_counted_forward():
    """Seeded bug ``channel-words-reverse-as-forward``
    (``docs/testing.md``): a wire bumps its forward counter for the
    words it carries backward."""
    with seeded("channel-words-reverse-as-forward"):
        with pytest.raises(AssertionError):
            test_channel_words_match_the_pin("reference")


def test_the_pin_catches_a_wrong_run_log_sort_key():
    """Seeded bug ``stream-sort-key-by-name`` (``docs/testing.md``):
    the series of a run-log delta are ordered by name alone.  The sort
    keys are derived once per process, so the bug runs on an empty
    cache, as it would in a fresh process."""
    with seeded("stream-sort-key-by-name"):
        with mock.patch.dict(_SERIES_ORDER, clear=True):
            with pytest.raises(AssertionError):
                test_run_log_bytes_match_the_pin("reference")


def test_the_wall_clock_is_all_that_is_cut():
    lines = pinned_state()["run_log"]
    assert all('"t":' not in line for line in lines)
    events = [json.loads(line)["event"] for line in lines]
    assert events[0] == "run.start" and events[-1] == "run.end"
    # One per flush, and the one ``close`` adds: the wires of the last
    # cycle count their words as they advance, after the flush's tick.
    assert events.count("metrics.delta") == CYCLES // 100 + 1


if __name__ == "__main__":
    if "--regen" not in sys.argv[1:]:
        sys.exit("usage: python tests/telemetry/test_observer_pins.py --regen")
    with open(PIN_PATH, "w") as handle:
        json.dump(pinned_state(), handle, indent=1, sort_keys=True)
        handle.write("\n")
    print("wrote", PIN_PATH)
