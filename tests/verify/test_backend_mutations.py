"""The backend-layer seeded mutation is caught by the backend prover.

``events-jump-past-hint`` (``tests/mutants.py``: an edit of
``EventEngine._next_event``) plants the bug a clock-jumping engine
invites: the jump lands one cycle past the nearest event any
component, observer or hook named, so that event is skipped.  This
module asserts that :func:`repro.verify.backend_diff.diff_point`
reports a byte-level divergence from the reference backend on seeded
``service`` soaks, whose open-loop clients name their next arrival
(a skipped arrival cycle delays a request).

The ``collective`` family does not catch it: its sources answer 0
(work waiting, no jump) or ``inf``, so there is no finite hint to
overshoot.  The conformance oracle does not either: a late request
breaks no protocol rule.

That is the point of the exercise: the equivalence prover must be
demonstrably sensitive to a single-site bug in the surviving fast
backend, not just green on correct code.  The clean controls pin the
other half of the claim — with no mutation seeded, the identical
workloads are silent.
"""

from repro.verify.backend_diff import diff_point
from repro.verify.scenario import random_scenario

from tests.mutants import seeded

#: (kind, seed) pairs the mutated events engine walks to a report.
DIFF_POINTS = [("service", seed) for seed in range(4)]


def _scenario_oracle_run(max_cycles=8000):
    """A random scenario on the events backend, oracle attached.

    Checks quiescence unconditionally: on a run that failed to drain,
    the leak inventory is exactly what the oracle should report.
    """
    network, oracle, _sent = random_scenario(seed=0, n_messages=3).start(
        "events"
    )
    network.run_until_quiet(max_cycles=max_cycles)
    oracle.check_quiescent(network.engine.cycle)
    return oracle


def test_backend_diff_catches_mutation():
    for point in DIFF_POINTS:
        with seeded("events-jump-past-hint"):
            result = diff_point(*point, backend="events")
        assert not result.ok, (point, "backend_diff missed events-jump-past-hint")
        assert result.mismatches


def test_diff_points_clean_without_mutation():
    for point in DIFF_POINTS:
        result = diff_point(*point, backend="events")
        assert result.ok, result.mismatches


def test_oracle_workloads_clean_without_mutation():
    _scenario_oracle_run().assert_clean()
