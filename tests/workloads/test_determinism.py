"""Workload determinism: backends, parallel workers, snapshot/restore.

The acceptance claims of the workload engine:

* a collective DAG run and a request/response soak are byte-identical
  on every registered backend;
* sweeping them through the parallel :class:`TrialRunner` with
  ``workers=2`` reproduces the serial results exactly;
* an engine snapshot taken mid-workload restores (on any backend) and
  finishes to the uninterrupted run's exact trajectory.

The first and third are the ``collective`` and ``service`` rows of the
table both provers run (``repro.verify.families``): one curated trial
of each is in ``tests/verify/test_backend_diff.py`` and
``test_resume_diff.py``; here hypothesis drives further seeds through
the same provers, and the assertions that are not equivalence claims
(the figure-sized instance completes, the split is mid-DAG, the
restored observer shares the restored workload's state) keep their
tests.  The second is a harness claim and runs the sweeps' specs.
"""

import pickle

import pytest

from repro.harness.parallel import TrialRunner, run_trials
from repro.harness.sweeps import sweep_specs
from repro.harness.workload_sweep import run_collective_point
from repro.sim.backends import BACKENDS
from repro.sim.snapshot import restore_network, snapshot_network
from repro.verify.backend_diff import diff_point
from repro.verify.families import FAMILIES
from repro.verify.resume_diff import resume_at

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

#: Every registered backend the reference is compared against.
CANDIDATES = [backend for backend in BACKENDS if backend != "reference"]


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**20))
def test_random_collectives_identical_across_backends(seed):
    # The seed picks the algorithm (ring, recursive doubling,
    # all-to-all, pipeline), the vector size and the network wiring.
    for backend in CANDIDATES:
        report = diff_point("collective", seed, backend=backend)
        assert report.ok, (backend, report.mismatches)


@settings(max_examples=4, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**20))
def test_random_collective_sweeps_identical_serial_vs_parallel(seed):
    specs = sweep_specs(
        "collective", fault_levels=((0, 0), (2, 0)), seed=seed,
        algorithm="ring", words=6,
    )
    serial = run_trials(specs, workers=1)
    parallel = run_trials(specs, workers=2)
    assert [r.as_dict() for r in serial] == [r.as_dict() for r in parallel]
    assert (
        [r.content_hash() for r in serial]
        == [r.content_hash() for r in parallel]
    )


def test_figure3_ring_all_reduce_completes_every_step():
    """The acceptance instance: a 64-endpoint ring all-reduce."""
    result = run_collective_point(
        seed=0, algorithm="ring", words=8, network="figure3"
    )
    assert not result.incomplete
    assert result.n_endpoints == 64
    assert result.completed_ops == 2 * 63 * 64
    assert all(row["done"] is not None for row in result.steps)


def test_service_sweep_identical_serial_vs_parallel():
    specs = sweep_specs(
        "service", rates=(0.0005, 0.001), seed=3, measure_cycles=1500
    )
    serial = run_trials(specs, workers=1)
    parallel = run_trials(specs, workers=2)
    assert [r.as_dict() for r in serial] == [r.as_dict() for r in parallel]


def test_trial_runner_caches_collective_points(tmp_path):
    specs = sweep_specs(
        "collective", fault_levels=((0, 0),), seed=2, algorithm="ring", words=6
    )
    first = run_trials(specs, cache_dir=str(tmp_path))
    runner = TrialRunner(cache_dir=str(tmp_path))
    second = run_trials(specs, runner=runner)
    assert runner.stats.cached == 1
    assert [r.as_dict() for r in first] == [r.as_dict() for r in second]


# ---------------------------------------------------------------------------
# Snapshot/restore mid-workload
# ---------------------------------------------------------------------------

def test_snapshot_resumes_collective_to_identical_trajectory():
    row = FAMILIES["collective"]
    split = row.splits[-1]  # the latest cycle the family's rule draws
    for seed in range(8):  # every algorithm is drawn at least once
        network, riders = row.start(seed, "reference")
        network.run(split)
        assert not riders["workload"].finished  # genuinely mid-DAG
    snap = pickle.loads(
        pickle.dumps(
            snapshot_network(network, extras=riders),
            protocol=pickle.HIGHEST_PROTOCOL,
        )
    )
    for backend in BACKENDS:
        restored = restore_network(snap, backend=backend)
        resumed_workload = restored.extras["workload"]
        # The restored observer and the restored workload share one
        # live DAG state — the identity the release protocol needs.
        observers = restored.network.engine.observers
        assert any(
            getattr(o, "state", None) is resumed_workload.state
            for o in observers
        ), backend
        # From that split, the restored run finishes on the straight
        # run's trajectory: the proof itself.
        assert not resume_at("collective", seed, split, "reference", backend)


@pytest.mark.slow
@settings(max_examples=4, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**20),
    split=st.integers(min_value=1, max_value=150),
)
def test_snapshot_collective_full_backend_matrix(seed, split):
    for capture_backend in BACKENDS:
        for restore_backend in BACKENDS:
            assert not resume_at(
                "collective", seed, split, capture_backend, restore_backend
            ), (capture_backend, restore_backend)
