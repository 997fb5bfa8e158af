"""Metrics registry: instruments, snapshots, pickling and merging."""

import pickle

import pytest

from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    MetricsSnapshot,
    bucket_bounds,
    bucket_index,
)


# -- bucketing -----------------------------------------------------------


def test_bucket_index_powers_of_two():
    assert bucket_index(0) == 0
    assert bucket_index(0.5) == 0
    assert bucket_index(-3) == 0
    assert bucket_index(1) == 1
    assert bucket_index(2) == 2
    assert bucket_index(3) == 2
    assert bucket_index(4) == 3
    assert bucket_index(1023) == 10
    assert bucket_index(1024) == 11


def test_bucket_bounds_cover_their_values():
    for value in (0, 1, 2, 3, 7, 100, 4096, 12345):
        low, high = bucket_bounds(bucket_index(value))
        assert low <= max(value, 0) < high or value < 1


# -- instruments ---------------------------------------------------------


def test_counter_increments():
    counter = Counter()
    counter.inc()
    counter.inc(5)
    assert counter.value == 6


def test_gauge_last_write_wins():
    gauge = Gauge()
    assert gauge.updates == 0
    gauge.set(3.5)
    gauge.set(1.0)
    assert gauge.value == 1.0
    assert gauge.updates == 2


def test_histogram_stats_and_percentiles():
    histogram = Histogram()
    for value in range(1, 101):
        histogram.observe(value)
    assert histogram.count == 100
    assert histogram.mean == pytest.approx(50.5)
    assert histogram.low == 1
    assert histogram.high == 100
    assert histogram.percentile(0) == 1.0
    assert histogram.percentile(100) == 100.0
    # Log buckets give factor-of-two accuracy; the median of 1..100
    # must land inside [32, 64) where the true value (50) lives.
    assert 32 <= histogram.percentile(50) < 64


def test_empty_histogram_is_nan():
    histogram = Histogram()
    assert histogram.mean != histogram.mean
    assert histogram.percentile(50) != histogram.percentile(50)


# -- registry ------------------------------------------------------------


def test_registry_get_or_create_is_stable():
    registry = MetricsRegistry()
    a = registry.counter("hits", stage=1)
    b = registry.counter("hits", stage=1)
    c = registry.counter("hits", stage=2)
    assert a is b
    assert a is not c
    assert len(registry) == 2


def test_registry_label_order_is_irrelevant():
    registry = MetricsRegistry()
    a = registry.counter("x", stage=1, router="r0")
    b = registry.counter("x", router="r0", stage=1)
    assert a is b


def test_registry_rejects_kind_conflicts():
    registry = MetricsRegistry()
    registry.counter("x")
    with pytest.raises(ValueError):
        registry.gauge("x")


# -- snapshots -----------------------------------------------------------


def _sample_registry():
    registry = MetricsRegistry()
    registry.counter("sends", endpoint=0).inc(3)
    registry.counter("sends", endpoint=1).inc(4)
    registry.gauge("ports", router="0.0.0").set(8)
    histogram = registry.histogram("latency")
    for value in (10, 20, 40):
        histogram.observe(value)
    return registry


def test_snapshot_pickles_and_compares():
    snapshot = _sample_registry().snapshot()
    clone = pickle.loads(pickle.dumps(snapshot))
    assert clone == snapshot
    assert clone.value("sends", endpoint=0) == 3
    assert clone.value("ports", router="0.0.0") == 8


def test_snapshot_is_independent_of_registry():
    registry = _sample_registry()
    snapshot = registry.snapshot()
    registry.counter("sends", endpoint=0).inc(100)
    registry.histogram("latency").observe(999)
    assert snapshot.value("sends", endpoint=0) == 3
    assert snapshot.histogram("latency").count == 3


def test_merge_counters_and_histograms_add():
    left = _sample_registry().snapshot()
    right = _sample_registry().snapshot()
    merged = left.merge(right)
    assert merged.value("sends", endpoint=0) == 6
    histogram = merged.histogram("latency")
    assert histogram.count == 6
    assert histogram.low == 10 and histogram.high == 40
    # Inputs are untouched.
    assert left.value("sends", endpoint=0) == 3


def test_merge_gauge_last_write_wins_in_merge_order():
    a = MetricsRegistry()
    a.gauge("g").set(1.0)
    b = MetricsRegistry()
    b.gauge("g").set(2.0)
    c = MetricsRegistry()  # never set: must not clobber real writes
    c.gauge("g")
    merged = MetricsSnapshot.merge_all(
        [a.snapshot(), b.snapshot(), c.snapshot()]
    )
    assert merged.value("g") == 2.0


def test_merge_all_is_fold_in_order():
    snapshots = [_sample_registry().snapshot() for _ in range(3)]
    merged = MetricsSnapshot.merge_all(snapshots)
    assert merged.value("sends", endpoint=1) == 12
    # None entries (trials without metrics) are skipped.
    assert MetricsSnapshot.merge_all([None, snapshots[0], None]) == snapshots[0]


def test_merge_rejects_kind_conflicts():
    a = MetricsRegistry()
    a.counter("x").inc()
    b = MetricsRegistry()
    b.gauge("x").set(1)
    with pytest.raises(ValueError):
        a.snapshot().merge(b.snapshot())


def test_total_and_grouping():
    snapshot = _sample_registry().snapshot()
    assert snapshot.total("sends") == 7
    assert {
        labels["endpoint"]: count
        for labels, _kind, count in snapshot.labeled("sends")
    } == {0: 3, 1: 4}


def test_names_get_and_as_dict():
    snapshot = _sample_registry().snapshot()
    assert snapshot.names() == ["latency", "ports", "sends"]
    assert snapshot.get("missing", default=-1) == -1
    rendered = snapshot.as_dict()
    assert rendered["sends{endpoint=0}"] == 3
    assert rendered["latency"]["count"] == 3
