"""Request/response services: open-loop arrivals, tails, SLO gate."""

import math

import pytest

from repro.harness.load_sweep import figure1_network
from repro.harness.workload_sweep import run_service_point
from repro.workloads.service import (
    RequestResponseWorkload,
    ServiceResult,
    run_service,
    service_slo_failures,
)


class _FakeRequest:
    def __init__(self, latency, client_id=(1, 0)):
        self.total_latency = latency
        self.client_id = client_id


def _result(latencies, abandoned=0, label="unit"):
    return ServiceResult(
        label=label,
        requests=[_FakeRequest(v) for v in latencies],
        abandoned=abandoned,
        measure_cycles=1000,
        n_client_endpoints=1,
        clients=1,
        offered_rate=0.001,
        backlog=0,
        log_digest="-",
    )


# ---------------------------------------------------------------------------
# Percentiles and the SLO gate (pure data, no network)
# ---------------------------------------------------------------------------


def test_nearest_rank_percentiles():
    result = _result(list(range(1, 1001)))
    assert result.latency_percentile(50) == 501.0
    assert result.latency_percentile(99) == 991.0
    assert result.latency_percentile(99.9) == 1000.0
    assert result.as_dict()["p999_latency"] == 1000.0


def test_empty_result_has_nan_tails_and_fails_slo():
    result = _result([])
    assert math.isnan(result.latency_percentile(99))
    assert math.isnan(result.mean_latency)
    # NaN must fail the gate, not silently pass it.
    assert service_slo_failures(result, {"p99": 100.0})


def test_slo_gate_reports_each_violation():
    result = _result([10.0] * 99 + [5000.0])
    assert service_slo_failures(result, {"p50": 100.0, "p99": 6000.0}) == []
    failures = service_slo_failures(result, {"p99": 100.0})
    assert len(failures) == 1
    assert "p99" in failures[0] and "unit" in failures[0]


def test_slo_gate_abandoned_bound_is_opt_in():
    result = _result([10.0], abandoned=3)
    assert service_slo_failures(result, {"p50": 100.0}) == []
    failures = service_slo_failures(result, {"p50": 100.0, "abandoned": 0})
    assert len(failures) == 1 and "abandoned" in failures[0]


def test_slo_gate_rejects_unknown_keys():
    with pytest.raises(ValueError):
        service_slo_failures(_result([1.0]), {"p42": 1.0})


# ---------------------------------------------------------------------------
# Client sources (unit level)
# ---------------------------------------------------------------------------


def _source(rate=0.01, clients=2, burst_prob=0.0, burst_size=1, seed=7):
    workload = RequestResponseWorkload(
        n_endpoints=4, w=8, servers=(0,), clients=clients, rate=rate,
        burst_prob=burst_prob, burst_size=burst_size, seed=seed,
    )
    return workload.source_for(1)


def test_open_loop_arrivals_backdate_queued_cycle():
    source = _source()
    due = source.next_arrival_cycle()
    assert due >= 1
    # Poll long after the arrival: the latency clock still starts at
    # the arrival, not at the poll.
    message = source(due + 500)
    assert message is not None
    assert message.queued_cycle == due
    assert message.request_id == 0


def test_arrival_hint_is_always_concrete():
    source = _source()
    for cycle in range(0, 2000, 50):
        hint = source.next_arrival_cycle()
        assert hint is not None
        source(cycle)
        assert source.next_arrival_cycle() is not None


def test_bursts_share_the_trigger_arrival_cycle():
    source = _source(burst_prob=1.0, burst_size=3)
    first = source(10_000)
    assert first is not None
    extras = [source(10_000) for _ in range(2)]
    assert all(m is not None for m in extras)
    assert {m.queued_cycle for m in extras} == {first.queued_cycle}
    assert first.client_id == extras[0].client_id


def test_stop_drops_future_arrivals_but_keeps_the_backlog():
    source = _source(rate=0.05, clients=4)
    dues = sorted(source.next_arrival_cycle() for _ in range(1))
    horizon = dues[0]
    source.stop(horizon + 1)
    # The arrival that already happened is still emitted...
    message = source(horizon + 100)
    assert message is not None
    assert message.queued_cycle <= horizon
    # ...but no new arrival processes run after the stop.
    remaining = []
    while True:
        m = source(10**9)
        if m is None:
            break
        remaining.append(m)
        assert m.queued_cycle <= horizon
    assert source.next_arrival_cycle() == float("inf")


# ---------------------------------------------------------------------------
# Live soaks
# ---------------------------------------------------------------------------


def test_service_point_serves_every_client():
    result = run_service_point(0.002, seed=2)
    assert result.delivered_count > 0
    assert result.abandoned_count == 0
    assert len(result.per_client_counts) == (
        result.n_client_endpoints * result.clients
    )
    stats = result.as_dict()
    assert stats["p50_latency"] <= stats["p95_latency"] <= stats["p99_latency"]
    assert stats["p99_latency"] <= stats["p999_latency"]
    assert result.throughput > 0
    # Client identity survives into the report.
    assert all(
        isinstance(key, tuple) and len(key) == 2
        for key in result.per_client_counts
    )


def test_drain_does_not_censor_the_tail():
    network = figure1_network(seed=9, endpoint_kwargs={"max_outstanding": 2})
    workload = RequestResponseWorkload(
        n_endpoints=network.plan.n_endpoints,
        w=network.codec.w,
        rate=0.004,
        clients=4,
        service_time=(0, 16),
        seed=5,
    )
    run_service(network, workload, warmup_cycles=500, measure_cycles=3000)
    requests = [
        m for m in network.log.messages
        if getattr(m, "request_id", None) is not None
    ]
    assert requests
    # Every request that arrived was resolved — the drain phase kept
    # running until the open-loop backlog was empty, so no in-window
    # straggler is missing from the tail statistics.
    assert all(m.outcome is not None for m in requests)
    end = 500 + 3000
    assert max(m.done_cycle for m in requests) > end


def test_service_runs_under_idle_compression():
    network = figure1_network(seed=4, backend="events")
    workload = RequestResponseWorkload(
        n_endpoints=network.plan.n_endpoints,
        w=network.codec.w,
        rate=0.0002,
        clients=1,
        seed=3,
    )
    result = run_service(
        network, workload, warmup_cycles=500, measure_cycles=4000
    )
    assert result.delivered_count > 0
    # Sparse arrivals leave real idle gaps; the precomputed arrival
    # hints let the event backend jump them instead of ticking through.
    assert network.engine.compressed_cycles > 0
