"""Golden-trace regression: a fixed-seed run must never silently drift.

One small multibutterfly (the Figure 1 network) carries a fixed
closed-loop workload for a fixed number of cycles.  The committed
fixture pins the *exact* per-cycle waveform on the first endpoints'
injection channels, a checksum over all recorded lanes, and every
delivered message's (source, dest, submit cycle, latency, attempts).

Any change to router arbitration, channel pipelining, endpoint
protocol, seeding, or engine ordering shows up here as a diff against
the fixture — bit-level regressions cannot hide behind aggregate
statistics.  If a change is *intentional*, regenerate with::

    PYTHONPATH=src python tests/test_golden_trace.py --regen

and review the fixture diff like any other code change.

Every registered backend is held to the same fixture: backend
equivalence is byte-for-byte, so there is exactly one expectation and
``--regen`` (which runs the reference backend) writes one file.
"""

import hashlib
import json
import os

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "fixtures", "golden_trace.json"
)

SEED = 1234
RATE = 0.05
MESSAGE_WORDS = 5
CYCLES = 300
RECORDED_ENDPOINTS = 4


def _golden_state(backend="reference"):
    """Run the fixed scenario and distill it to comparable primitives."""
    from repro.core.random_source import derive_seed
    from repro.endpoint.traffic import UniformRandomTraffic
    from repro.network.builder import build_network
    from repro.network.topology import figure1_plan
    from repro.sim.waveform import WaveformRecorder

    network = build_network(
        figure1_plan(), seed=SEED, fast_reclaim=True, backend=backend
    )

    # The injection channels of the first few endpoints, in index order.
    injection = {}
    for link in network.links:
        if link.src.kind == "endpoint" and link.src.index < RECORDED_ENDPOINTS:
            name = "ep{}".format(link.src.index)
            injection[name] = network.channels[(link.src.key(), link.dst.key())]
    recorder = WaveformRecorder(
        dict(sorted(injection.items())), max_cycles=CYCLES
    )
    network.engine.add_component(recorder)

    traffic = UniformRandomTraffic(
        n_endpoints=network.plan.n_endpoints,
        w=network.codec.w,
        rate=RATE,
        message_words=MESSAGE_WORDS,
        seed=derive_seed(SEED, "golden-traffic"),
    )
    traffic.attach(network)
    network.run(CYCLES)

    lanes = {
        name: "".join(_symbol(word) for word in lane)
        for name, lane in recorder.lanes.items()
    }
    checksum = hashlib.sha256(
        json.dumps(lanes, sort_keys=True).encode("utf-8")
    ).hexdigest()
    deliveries = sorted(
        [m.source, m.dest, m.queued_cycle, m.total_latency, m.attempts]
        for m in network.log.delivered()
    )
    return {
        "seed": SEED,
        "cycles": CYCLES,
        "final_cycle": network.engine.cycle,
        "lanes": lanes,
        "waveform_sha256": checksum,
        "n_delivered": len(deliveries),
        "deliveries": deliveries,
    }


def _symbol(word):
    from repro.sim.waveform import _symbol as symbol

    return symbol(word)


import pytest

from repro.sim.backends import BACKENDS


@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_golden_trace_matches_fixture(backend):
    with open(GOLDEN_PATH) as handle:
        golden = json.load(handle)
    state = _golden_state(backend)
    assert state["n_delivered"] > 0  # the scenario actually exercises routing
    # Per-cycle waveforms, lane by lane, so a mismatch names the lane.
    assert sorted(state["lanes"]) == sorted(golden["lanes"])
    for name in sorted(golden["lanes"]):
        assert state["lanes"][name] == golden["lanes"][name], name
    assert state["waveform_sha256"] == golden["waveform_sha256"]
    assert state["deliveries"] == golden["deliveries"]
    assert state == golden


def test_golden_trace_is_reproducible_in_process():
    # The scenario itself is deterministic: two fresh runs agree exactly.
    assert _golden_state() == _golden_state()


def _regen():
    os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
    state = _golden_state()
    with open(GOLDEN_PATH, "w") as handle:
        json.dump(state, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print("wrote {} ({} deliveries, checksum {})".format(
        GOLDEN_PATH, state["n_delivered"], state["waveform_sha256"][:12]))


if __name__ == "__main__":
    import sys

    if "--regen" in sys.argv:
        _regen()
    else:
        print(__doc__)
