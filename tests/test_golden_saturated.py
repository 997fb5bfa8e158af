"""Golden pin of the saturated Figure 3 path.

``tests/test_golden_trace.py`` pins a lightly loaded Figure 1 run, where
most attempts get through on the first try.  This fixture pins the run
the simulator spends most of its host time on: the Figure 3 network
past its knee (rate 0.32, 20-word messages, fast reclamation), where
connections block, BCB drops propagate and sources retry.  It records
every delivered message's (source, dest, queued cycle, latency,
attempts, blocked stages) and the attempt-failure tally by cause, so a
change to the router's forward path, the wire or the endpoint's retry
loop that moves a single allocation or random draw shows up as a diff.

If a change is *intentional*, regenerate with::

    PYTHONPATH=src python tests/test_golden_saturated.py --regen

and review the fixture diff like any other code change.  Every
registered backend is held to the same fixture.
"""

import json
import os
import sys

import pytest

from repro.sim.backends import BACKENDS

if __name__ == "__main__":  # ``--regen`` runs this file as a script
    sys.path.insert(0, os.path.normpath(os.path.join(__file__, "../..")))

from tests.mutants import seeded

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "fixtures", "golden_saturated.json"
)

SEED = 19
RATE = 0.32
MESSAGE_WORDS = 20
CYCLES = 640


def _saturated_state(backend="reference"):
    """Run the saturated Figure 3 point and distill it to primitives."""
    from repro.endpoint.traffic import UniformRandomTraffic
    from repro.harness.load_sweep import figure3_network

    network = figure3_network(seed=SEED, fast_reclaim=True, backend=backend)
    UniformRandomTraffic(
        network.plan.n_endpoints, network.codec.w, rate=RATE,
        message_words=MESSAGE_WORDS, seed=SEED + 1,
    ).attach(network)
    network.run(CYCLES)
    log = network.log
    deliveries = sorted(
        [m.source, m.dest, m.queued_cycle, m.total_latency, m.attempts,
         list(m.blocked_stages)]
        for m in log.delivered()
    )
    return {
        "seed": SEED,
        "rate": RATE,
        "cycles": CYCLES,
        "final_cycle": network.engine.cycle,
        "n_delivered": len(deliveries),
        "deliveries": deliveries,
        "attempt_failures": dict(sorted(log.attempt_failures.items())),
    }


@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_saturated_figure3_matches_fixture(backend):
    with open(GOLDEN_PATH) as handle:
        golden = json.load(handle)
    state = _saturated_state(backend)
    # The point is past the knee: attempts block and are retried.
    assert sum(state["attempt_failures"].values()) > state["n_delivered"] // 2
    assert state["attempt_failures"] == golden["attempt_failures"]
    assert state["deliveries"] == golden["deliveries"]
    assert state == golden


def test_the_pin_catches_a_wrong_direction():
    """Seeded router bug ``wrong-direction`` (``tests/mutants.py``):
    routing takes the next dilation group up, which moves deliveries."""
    with open(GOLDEN_PATH) as handle:
        golden = json.load(handle)
    with seeded("wrong-direction"):
        state = _saturated_state()
    assert state["deliveries"] != golden["deliveries"]


def _regen():
    os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
    state = _saturated_state()
    with open(GOLDEN_PATH, "w") as handle:
        json.dump(state, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print("wrote {} ({} deliveries, failures {})".format(
        GOLDEN_PATH, state["n_delivered"], state["attempt_failures"]))


if __name__ == "__main__":
    import sys

    if "--regen" in sys.argv:
        _regen()
    else:
        print(__doc__)
