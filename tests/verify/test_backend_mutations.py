"""The backend-layer seeded mutation is caught by the backend prover.

``events-live-is-true`` (``tests/mutants.py``: an edit of
``EventEngine.step``) plants the bug a wire-skipping engine invites:
it advances only a wire a send has just marked ``True``, so once
``advance()`` has recounted ``live`` as an int, a word that no sender
re-stages stops shifting.  This module asserts that
:func:`repro.verify.backend_diff.diff_point` reports a byte-level
divergence from the reference backend on seeded ``scenario`` runs,
whose multi-cycle wires stop a word mid-pipe (the oracle reports it
too), and on a ``traffic`` run, whose one-cycle wires strand only a
trailing word its receiver ignores: no message changes, but the
``channel.in_flight`` metrics count it.

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
DIFF_POINTS = [("scenario", 1), ("scenario", 2), ("scenario", 3), ("traffic", 0)]


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
    """The backend prover fails under ``events-live-is-true``."""
    for point in DIFF_POINTS:
        with seeded("events-live-is-true"):
            result = diff_point(*point, backend="events")
        assert not result.ok, (point, "backend_diff missed events-live-is-true")
        assert result.mismatches


def test_diff_points_clean_without_mutation():
    for point in DIFF_POINTS:
        result = diff_point(*point, backend="events")
        assert result.ok, result.mismatches


def test_oracle_workloads_clean_without_mutation():
    _scenario_oracle_run().assert_clean()
