"""Workload determinism: backends, parallel workers, snapshot/restore.

The acceptance claims of the workload engine:

* a collective DAG run is byte-identical (same ``log_digest``, same
  completion cycle) on every registered backend — including the
  64-endpoint Figure-3 ring all-reduce;
* sweeping it through the parallel :class:`TrialRunner` with
  ``workers=2`` reproduces the serial results exactly;
* an engine snapshot taken mid-workload restores (on any backend) and
  finishes to the uninterrupted run's exact trajectory.

Hypothesis drives randomized instances of the first two claims; the
curated figure-sized instances pin the acceptance numbers.
"""

import pickle

import pytest

from repro.harness.load_sweep import figure1_network
from repro.harness.parallel import TrialRunner
from repro.harness.workload_sweep import (
    collective_fault_sweep,
    run_collective_point,
    run_service_point,
    service_sweep,
)
from repro.sim.backends import BACKENDS
from repro.sim.snapshot import restore_network, snapshot_network
from repro.workloads.collective import (
    CollectiveSchedule,
    CollectiveWorkload,
    finish_collective,
    run_collective,
)

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

ALGORITHMS = ("ring", "recursive-doubling", "all-to-all", "pipeline")


def _fingerprint(result):
    return (result.log_digest, result.total_cycles, result.completed_ops)


@settings(max_examples=8, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**20),
    algorithm=st.sampled_from(ALGORITHMS),
)
def test_random_collectives_identical_across_backends(seed, algorithm):
    results = {
        backend: run_collective_point(seed=seed, algorithm=algorithm,
                                      words=6, backend=backend)
        for backend in BACKENDS
    }
    reference = results["reference"]
    assert not reference.incomplete
    for backend, result in results.items():
        assert _fingerprint(result) == _fingerprint(reference), backend


@settings(max_examples=4, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**20))
def test_random_collective_sweeps_identical_serial_vs_parallel(seed):
    kwargs = dict(
        fault_levels=((0, 0), (2, 0)), seed=seed, algorithm="ring", words=6
    )
    serial = collective_fault_sweep(workers=1, **kwargs)
    parallel = collective_fault_sweep(workers=2, **kwargs)
    assert [r.as_dict() for r in serial] == [r.as_dict() for r in parallel]
    assert (
        [r.content_hash() for r in serial]
        == [r.content_hash() for r in parallel]
    )


def test_figure3_ring_all_reduce_identical_across_backends():
    """The acceptance instance: a 64-endpoint ring all-reduce."""
    results = {
        backend: run_collective_point(seed=0, algorithm="ring", words=8,
                                      network="figure3", backend=backend)
        for backend in BACKENDS
    }
    reference = results["reference"]
    assert not reference.incomplete
    assert reference.n_endpoints == 64
    assert reference.completed_ops == 2 * 63 * 64
    assert all(row["done"] is not None for row in reference.steps)
    for backend, result in results.items():
        assert _fingerprint(result) == _fingerprint(reference), backend


def test_service_point_identical_across_backends():
    results = {
        backend: run_service_point(0.001, seed=1, backend=backend)
        for backend in BACKENDS
    }
    reference = results["reference"]
    assert reference.delivered_count > 0
    for backend, other in results.items():
        assert other.log_digest == reference.log_digest, backend
        assert other.as_dict() == reference.as_dict(), backend
        assert other.per_client_counts == reference.per_client_counts


def test_service_sweep_identical_serial_vs_parallel():
    kwargs = dict(rates=(0.0005, 0.001), seed=3, measure_cycles=3000)
    serial = service_sweep(workers=1, **kwargs)
    parallel = service_sweep(workers=2, **kwargs)
    assert [r.as_dict() for r in serial] == [r.as_dict() for r in parallel]


def test_trial_runner_caches_collective_points(tmp_path):
    kwargs = dict(fault_levels=((0, 0),), seed=2, algorithm="ring", words=6)
    first = collective_fault_sweep(
        cache_dir=str(tmp_path), **kwargs
    )
    runner = TrialRunner(cache_dir=str(tmp_path))
    second = collective_fault_sweep(runner=runner, **kwargs)
    assert runner.stats.cached == 1
    assert [r.as_dict() for r in first] == [r.as_dict() for r in second]


# ---------------------------------------------------------------------------
# Snapshot/restore mid-workload
# ---------------------------------------------------------------------------


def _collective_setup(backend=None, seed=7):
    kwargs = {"backend": backend} if backend else {}
    network = figure1_network(seed=seed, **kwargs)
    schedule = CollectiveSchedule.ring_all_reduce(16, words_per_rank=8)
    workload = CollectiveWorkload(schedule, w=network.codec.w, seed=seed + 1)
    return network, workload


def test_snapshot_resumes_collective_to_identical_trajectory():
    network, workload = _collective_setup()
    straight = run_collective(network, workload)
    assert not straight.incomplete

    network, workload = _collective_setup()
    workload.attach(network)
    network.run(200)
    assert not workload.finished  # genuinely mid-DAG
    snap = pickle.loads(
        pickle.dumps(
            snapshot_network(network, extras={"workload": workload}),
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
        resumed = finish_collective(restored.network, resumed_workload)
        assert _fingerprint(resumed) == _fingerprint(straight), backend


@pytest.mark.slow
def test_snapshot_collective_full_backend_matrix():
    network, workload = _collective_setup()
    straight = run_collective(network, workload)

    for capture_backend in BACKENDS:
        network, workload = _collective_setup(backend=capture_backend)
        workload.attach(network)
        network.run(200)
        snap = pickle.loads(
            pickle.dumps(
                snapshot_network(network, extras={"workload": workload}),
                protocol=pickle.HIGHEST_PROTOCOL,
            )
        )
        for restore_backend in BACKENDS:
            restored = restore_network(snap, backend=restore_backend)
            resumed = finish_collective(
                restored.network, restored.extras["workload"]
            )
            assert _fingerprint(resumed) == _fingerprint(straight), (
                capture_backend,
                restore_backend,
            )


def test_snapshot_resumes_service_soak():
    def soak(interrupt):
        from repro.workloads.service import RequestResponseWorkload, run_service

        network = figure1_network(seed=5)
        workload = RequestResponseWorkload(
            n_endpoints=network.plan.n_endpoints,
            w=network.codec.w,
            rate=0.001,
            clients=2,
            service_time=(0, 8),
            seed=6,
        )
        if not interrupt:
            run_service(network, workload, warmup_cycles=400,
                        measure_cycles=2000)
            return network

        workload.attach(network)
        network.run(400)
        snap = pickle.loads(
            pickle.dumps(snapshot_network(network), protocol=pickle.HIGHEST_PROTOCOL)
        )
        restored = restore_network(snap, backend="events")
        net = restored.network
        net.run(2000)
        end = net.engine.cycle
        for endpoint in net.endpoints:
            if endpoint.traffic_source is not None:
                endpoint.traffic_source.stop(end)
        net.run_until_quiet(max_cycles=8000)
        return net

    from repro.workloads.collective import collective_log_digest

    straight = soak(interrupt=False)
    resumed = soak(interrupt=True)
    assert collective_log_digest(resumed.log) == collective_log_digest(
        straight.log
    )
