"""The backend-layer seeded mutation is caught by *both* provers.

``events-skip-wake`` plants the one bug an activity-gated engine
invites: a parked component is not re-scheduled when a word reaches
its ports.  This module asserts that

* :func:`repro.verify.backend_diff.diff_point` reports a byte-level
  divergence from the reference backend on a seeded scenario and on a
  seeded collective (whose dependency release submits work from the
  observer tick, the wake path a parked source depends on), and
* the protocol :class:`~repro.verify.oracle.Oracle` records a concrete
  rule, not merely a failed run: the stalled words never drain, so
  :meth:`Oracle.check_quiescent` inventories the stuck FSMs
  (``quiescence-leak``).

That is the point of the exercise: the equivalence prover must be
demonstrably sensitive to a single-site bug in the surviving fast
backend, not just green on correct code.  The clean controls pin the
other half of the claim — with no mutation seeded, the identical
workloads are silent.
"""

from functools import partial

import pytest

from repro.core import mutation
from repro.verify import families
from repro.verify.backend_diff import diff_point
from repro.verify.oracle import RULE_LEAK
from repro.verify.scenario import random_scenario

#: (kind, seed) pairs the mutated events engine walks to a report.  A
#: skipped wake can also hand a router a payload word as a header and
#: crash the run outright; these seeds stall instead.
DIFF_POINTS = [("scenario", 0), ("collective", 10)]


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


def test_every_backend_mutation_is_covered():
    assert mutation.BACKEND_MUTATIONS == {mutation.EVENTS_SKIP_WAKE}


def test_backend_mutations_are_registered_but_separate():
    # The backend layer's mutations are known to the seeding machinery
    # but must not bleed into ALL_MUTATIONS: the reference-protocol
    # coverage test enumerates that set exactly.
    assert mutation.BACKEND_MUTATIONS <= mutation.KNOWN_MUTATIONS
    assert not (mutation.BACKEND_MUTATIONS & mutation.ALL_MUTATIONS)
    with pytest.raises(ValueError):
        with mutation.seeded("events-no-such-mutation"):
            pass


def test_backend_diff_catches_mutation(monkeypatch):
    # The stalled DAG never completes and its network never goes quiet:
    # cap the collective's drive loop (a clean run needs ~1200 cycles)
    # so the mutated side does not burn the whole 200000-cycle budget.
    monkeypatch.setattr(
        families,
        "finish_collective",
        partial(families.finish_collective, max_cycles=4000),
    )
    for point in DIFF_POINTS:
        with mutation.seeded(mutation.EVENTS_SKIP_WAKE):
            result = diff_point(*point, backend="events")
        assert not result.ok, (point, "backend_diff missed events-skip-wake")
        assert result.mismatches


def test_oracle_catches_mutation():
    with mutation.seeded(mutation.EVENTS_SKIP_WAKE):
        oracle = _scenario_oracle_run()
    assert not oracle.ok, "oracle missed events-skip-wake"
    assert RULE_LEAK in oracle.violation_rules(), oracle.violation_rules()


def test_diff_points_clean_without_mutation():
    for point in DIFF_POINTS:
        result = diff_point(*point, backend="events")
        assert result.ok, result.mismatches


def test_oracle_workloads_clean_without_mutation():
    _scenario_oracle_run().assert_clean()
