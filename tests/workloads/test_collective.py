"""Collective schedules: generators, DAG release, per-step reporting."""

import pickle

import pytest

from repro.harness.load_sweep import figure1_network
from repro.harness.workload_sweep import run_collective_point
from repro.workloads.collective import (
    CollectiveSchedule,
    CollectiveWorkload,
    ModelShape,
    finish_collective,
)


def _op_index(network):
    """op_id -> message for every collective message in the log."""
    return {
        m.op_id: m
        for m in network.log.messages
        if getattr(m, "op_id", None) is not None
    }


# ---------------------------------------------------------------------------
# Schedule generators
# ---------------------------------------------------------------------------


def test_ring_all_reduce_shape():
    schedule = CollectiveSchedule.ring_all_reduce(8, words_per_rank=16)
    # 2(n-1) steps of n transfers each.
    assert len(schedule) == 2 * 7 * 8
    assert len(schedule.steps()) == 14
    # Chunked message size.
    assert all(op.words == 2 for op in schedule.ops)
    # Step-s ops depend on exactly the upstream neighbor's step-s-1 op.
    for op in schedule.ops:
        if op.step == 0:
            assert op.deps == ()
        else:
            (dep,) = op.deps
            parent = schedule.ops[dep]
            assert parent.step == op.step - 1
            assert parent.dest == op.src


def test_recursive_doubling_requires_power_of_two():
    with pytest.raises(ValueError):
        CollectiveSchedule.recursive_doubling_all_reduce(6)
    schedule = CollectiveSchedule.recursive_doubling_all_reduce(8)
    assert len(schedule.steps()) == 3
    assert len(schedule) == 3 * 8


def test_all_to_all_covers_every_pair():
    schedule = CollectiveSchedule.all_to_all(5, words_per_pair=4)
    pairs = {(op.src, op.dest) for op in schedule.ops}
    assert pairs == {
        (i, j) for i in range(5) for j in range(5) if i != j
    }


def test_pipeline_parallel_forward_then_backward():
    schedule = CollectiveSchedule.pipeline_parallel(
        4, n_microbatches=2, activation_words=6
    )
    # Per microbatch: n-1 forward hops + n-1 backward hops.
    assert len(schedule) == 2 * 2 * 3
    # The first backward hop of a microbatch depends on its last
    # forward hop.
    backward = [op for op in schedule.ops if op.src > op.dest]
    first_bwd = backward[0]
    assert any(
        schedule.ops[dep].dest == schedule.n_endpoints - 1
        for dep in first_bwd.deps
    )


def test_dag_rejects_forward_and_self_references():
    schedule = CollectiveSchedule(4)
    schedule.add_op(0, 1, 4)
    with pytest.raises(ValueError):
        schedule.add_op(1, 2, 4, deps=(5,))
    with pytest.raises(ValueError):
        schedule.add_op(2, 2, 4)


def test_model_shape_serializes_layers():
    schedule = ModelShape([32, 64], algorithm="ring").schedule(4)
    # Two layers' ring all-reduces, tagged (layer, step).
    layers = {op.step[0] for op in schedule.ops}
    assert layers == {0, 1}
    # Every first-step op of layer 1 waits on layer 0's last step.
    last_layer0 = [
        op.op_id
        for op in schedule.ops
        if op.step == (0, max(s for (l, s) in (o.step for o in schedule.ops) if l == 0))
    ]
    for op in schedule.ops:
        if op.step[0] == 1 and op.step[1] == 0:
            assert set(last_layer0) <= set(op.deps)


# ---------------------------------------------------------------------------
# Execution on a live network
# ---------------------------------------------------------------------------


def test_ring_all_reduce_completes_and_respects_dependencies():
    network = figure1_network(seed=11)
    schedule = CollectiveSchedule.ring_all_reduce(16, words_per_rank=12)
    workload = CollectiveWorkload(schedule, w=network.codec.w, seed=3)
    result = finish_collective(network, workload.attach(network))

    assert not result.incomplete
    assert result.completed_ops == len(schedule)
    assert result.total_cycles is not None

    # The DAG invariant the observer enforces: no op's message was
    # handed to the network before every dependency was *delivered*.
    by_op = _op_index(network)
    for op in schedule.ops:
        message = by_op[op.op_id]
        for dep in op.deps:
            assert by_op[dep].done_cycle is not None
            assert message.queued_cycle > by_op[dep].done_cycle - 1, (
                "op {} started at {} before dep {} delivered at {}".format(
                    op.op_id,
                    message.queued_cycle,
                    dep,
                    by_op[dep].done_cycle,
                )
            )


def test_per_step_report_is_monotone_and_complete():
    result = run_collective_point(seed=5, algorithm="ring", words=8)
    assert len(result.steps) == 2 * 15
    dones = [row["done"] for row in result.steps]
    assert all(done is not None for done in dones)
    assert dones == sorted(dones)
    assert all(row["skew"] >= 0 for row in result.steps)
    assert result.straggler_rank() in result.per_rank_done


def test_collective_point_under_faults_still_completes():
    clean = run_collective_point(seed=5, algorithm="ring", words=8)
    degraded = run_collective_point(
        seed=5, algorithm="ring", words=8, n_dead_links=4
    )
    assert not degraded.incomplete
    # Retries around the dead links cost attempts (and usually time).
    assert degraded.mean_attempts >= clean.mean_attempts


def test_result_is_plain_picklable_data():
    result = run_collective_point(seed=1, algorithm="all-to-all", words=6)
    clone = pickle.loads(pickle.dumps(result))
    assert clone.as_dict() == result.as_dict()
    assert isinstance(result.content_hash(), str)


def test_recursive_doubling_and_pipeline_complete():
    for algorithm in ("recursive-doubling", "pipeline"):
        result = run_collective_point(seed=4, algorithm=algorithm, words=6)
        assert not result.incomplete, algorithm
        assert result.failed_ops == 0, algorithm
