"""Seeded workload bugs must be caught by the workload harness.

The DAG-release observer is the one place a silent bug would corrupt
every collective result at once, so two seeded bugs edit its release
rule, ``CollectiveObserver._release_successors`` (``tests/mutants.py``:
``workload-drop-dep-edge``, ``workload-premature-release``), and this
module proves the harness detects both:

* a dropped dependency edge deadlocks the downstream subgraph — the
  run reports ``incomplete`` (and the SLO gate fails it);
* a premature release reorders transfers ahead of their dependencies —
  the trajectory digest diverges from the clean run and the
  per-message dependency audit finds a violation.

The clean control run, executed in the same process, pins that the
unedited observer is back once the seeded block ends.
"""

from repro.harness.load_sweep import figure1_network
from repro.harness.workload_sweep import run_collective_point, workload_slo_failures
from repro.workloads.collective import (
    CollectiveSchedule,
    CollectiveWorkload,
    finish_collective,
)

from tests.mutants import seeded


def _clean():
    return run_collective_point(seed=6, algorithm="ring", words=8)


def test_dropped_dependency_edge_deadlocks_and_gates():
    clean = _clean()
    assert not clean.incomplete

    with seeded("workload-drop-dep-edge"):
        broken = run_collective_point(seed=6, algorithm="ring", words=8)

    # The first successor of the first delivery never hears about it:
    # its dependency count stays pinned, the downstream chain deadlocks.
    assert broken.incomplete
    assert broken.completed_ops < clean.completed_ops
    failures = workload_slo_failures([broken], {})
    assert failures and "incomplete" in failures[0]

    # The edit is gone outside the seeded scope.
    again = _clean()
    assert not again.incomplete
    assert again.log_digest == clean.log_digest


def test_premature_release_diverges_the_trajectory():
    # Premature release only bites multi-dependency ops (for a
    # single-dependency op the first delivery IS the last), so the
    # probe schedule is recursive doubling: two deps per op past step 0.
    clean = run_collective_point(seed=6, algorithm="recursive-doubling",
                                 words=8)
    assert not clean.incomplete

    with seeded("workload-premature-release"):
        broken = run_collective_point(seed=6, algorithm="recursive-doubling",
                                      words=8)

    # The byte-exact trajectory check catches the reordering...
    assert broken.log_digest != clean.log_digest

    # ...and it is a real ordering violation, not just a different
    # hash: some op was released before a dependency was delivered.
    network = figure1_network(seed=6)
    schedule = CollectiveSchedule.recursive_doubling_all_reduce(
        16, words_per_rank=8
    )
    workload = CollectiveWorkload(schedule, w=network.codec.w, seed=7)
    with seeded("workload-premature-release"):
        finish_collective(network, workload.attach(network))
    state = workload.state
    violations = [
        (op.op_id, dep)
        for op in schedule.ops
        for dep in op.deps
        if state.released_cycle[op.op_id] is not None
        and (
            state.done_cycle[dep] is None
            or state.released_cycle[op.op_id] < state.done_cycle[dep]
        )
    ]
    assert violations

    # The clean run obeys every edge — the audit itself is sound.
    network = figure1_network(seed=6)
    workload = CollectiveWorkload(
        CollectiveSchedule.recursive_doubling_all_reduce(16, words_per_rank=8),
        w=network.codec.w,
        seed=7,
    )
    finish_collective(network, workload.attach(network))
    state = workload.state
    assert not [
        (op.op_id, dep)
        for op in workload.schedule.ops
        for dep in op.deps
        if state.released_cycle[op.op_id] < state.done_cycle[dep]
    ]
