"""Hierarchically-labeled metrics: counters, gauges, log histograms.

The sweeps in :mod:`repro.harness` need more than end-of-run totals:
per-stage blocking counts, latency *distributions*, per-router
occupancy.  This module is the aggregation substrate:

* :class:`MetricsRegistry` — creates and owns metric instruments.  An
  instrument is identified by a name plus a set of labels (``router``,
  ``stage``, ``port``, ``endpoint``, ``cause`` ...); the same
  ``(name, labels)`` pair always returns the same instrument, so
  callers may re-request handles freely (hot paths should still cache
  them).
* :class:`Counter` / :class:`Gauge` / :class:`Histogram` — the three
  instrument kinds.  Histograms are log-bucketed (powers of two), so a
  latency distribution spanning 1..100k cycles costs ~18 integers.
* :class:`MetricsSnapshot` — a picklable, plain-data copy of a
  registry's state.  Snapshots :meth:`~MetricsSnapshot.merge`
  commutatively for counters and histograms, which is what lets the
  parallel :class:`~repro.harness.parallel.TrialRunner` aggregate
  metrics across worker processes: each trial snapshots its own
  registry, and the sweep merges the snapshots in spec order — serial
  and parallel runs therefore produce *identical* merged snapshots.

Determinism: instruments never consume randomness and never affect
simulation behaviour; a metrics-enabled run delivers exactly the same
messages as a disabled one.
"""

import math


def bucket_index(value):
    """The log2 bucket for ``value``: bucket ``b`` covers [2^(b-1), 2^b).

    Bucket 0 collects everything below 1 (including zero and negative
    values, which the simulator's cycle counts never produce but a
    defensive histogram must not choke on).
    """
    if value < 1:
        return 0
    return math.frexp(value)[1]


def bucket_bounds(index):
    """(low, high) covered by bucket ``index`` (low inclusive)."""
    if index <= 0:
        return (0.0, 1.0)
    return (float(2 ** (index - 1)), float(2 ** index))


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0

    def inc(self, amount=1):
        self.value += amount

    def _data(self):
        return self.value

    def _load(self, data):
        self.value = data


class Gauge:
    """A last-write-wins sampled value.

    ``updates`` counts how many times the gauge was set, so a merge can
    distinguish "never sampled" from "sampled and happened to be zero".
    """

    __slots__ = ("value", "updates")

    def __init__(self):
        self.value = 0.0
        self.updates = 0

    def set(self, value):
        self.value = value
        self.updates += 1

    def _data(self):
        return (self.value, self.updates)

    def _load(self, data):
        self.value, self.updates = data


class Histogram:
    """A log2-bucketed distribution with exact count/sum/min/max.

    ``observe(v)`` is O(1); percentiles are estimated by linear
    interpolation inside the containing bucket (clamped by the exact
    min/max), which is accurate to within a factor-of-two bucket width
    — plenty for latency tables, and mergeable across processes.
    """

    __slots__ = ("count", "total", "low", "high", "buckets")

    def __init__(self):
        self.count = 0
        self.total = 0.0
        self.low = None
        self.high = None
        self.buckets = {}

    def observe(self, value):
        self.count += 1
        self.total += value
        if self.low is None or value < self.low:
            self.low = value
        if self.high is None or value > self.high:
            self.high = value
        index = bucket_index(value)
        self.buckets[index] = self.buckets.get(index, 0) + 1

    @property
    def mean(self):
        return self.total / self.count if self.count else float("nan")

    def percentile(self, q):
        """Estimated ``q``-th percentile (0..100)."""
        if not self.count:
            return float("nan")
        if q <= 0:
            return float(self.low)
        if q >= 100:
            return float(self.high)
        target = self.count * q / 100.0
        seen = 0.0
        for index in sorted(self.buckets):
            in_bucket = self.buckets[index]
            if seen + in_bucket >= target:
                lo, hi = bucket_bounds(index)
                lo = max(lo, float(self.low))
                hi = min(hi, float(self.high))
                if hi < lo:
                    hi = lo
                fraction = (target - seen) / in_bucket
                return lo + (hi - lo) * fraction
            seen += in_bucket
        return float(self.high)

    def _data(self):
        return {
            "count": self.count,
            "total": self.total,
            "low": self.low,
            "high": self.high,
            "buckets": dict(self.buckets),
        }

    def _load(self, data):
        self.count = data["count"]
        self.total = data["total"]
        self.low = data["low"]
        self.high = data["high"]
        self.buckets = dict(data["buckets"])


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


def _series_key(name, labels):
    return (name, tuple(sorted(labels.items())))


class MetricsRegistry:
    """Creates, owns and snapshots metric instruments."""

    def __init__(self):
        self._metrics = {}  # (name, sorted label items) -> (kind, instrument)

    def _instrument(self, kind, name, labels):
        key = _series_key(name, labels)
        entry = self._metrics.get(key)
        if entry is None:
            entry = (kind, _KINDS[kind]())
            self._metrics[key] = entry
        elif entry[0] != kind:
            raise ValueError(
                "metric {!r} already registered as a {}".format(key, entry[0])
            )
        return entry[1]

    def counter(self, name, **labels):
        return self._instrument("counter", name, labels)

    def gauge(self, name, **labels):
        return self._instrument("gauge", name, labels)

    def histogram(self, name, **labels):
        return self._instrument("histogram", name, labels)

    def __len__(self):
        return len(self._metrics)

    def snapshot(self):
        """A picklable :class:`MetricsSnapshot` of the current state."""
        return MetricsSnapshot(
            {
                key: (kind, instrument._data())
                for key, (kind, instrument) in self._metrics.items()
            }
        )


def _merge_entry(kind, left, right):
    if kind == "counter":
        return left + right
    if kind == "gauge":
        value, updates = left
        rvalue, rupdates = right
        # Last-write-wins in merge order; merge order is spec order in
        # every sweep, so serial and parallel agree.
        return (rvalue if rupdates else value, updates + rupdates)
    merged = {
        "count": left["count"] + right["count"],
        "total": left["total"] + right["total"],
        "low": _opt(min, left["low"], right["low"]),
        "high": _opt(max, left["high"], right["high"]),
        "buckets": dict(left["buckets"]),
    }
    for index, count in right["buckets"].items():
        merged["buckets"][index] = merged["buckets"].get(index, 0) + count
    return merged


def _opt(op, a, b):
    if a is None:
        return b
    if b is None:
        return a
    return op(a, b)


class MetricsSnapshot:
    """Plain-data metrics state: picklable, mergeable, comparable.

    ``series`` maps ``(name, ((label, value), ...))`` to
    ``(kind, data)`` where ``data`` is the instrument's primitive
    payload.  Everything inside is built-in types, so snapshots pickle
    cheaply across process boundaries and compare with ``==``.
    """

    __slots__ = ("series",)

    def __init__(self, series=None):
        self.series = dict(series or {})

    # -- combination -----------------------------------------------------

    def merge(self, other):
        """A new snapshot combining this one with ``other``.

        Counters and histogram buckets add; gauges keep the most
        recently merged write.  ``merge`` is associative, so folding a
        list of per-trial snapshots in spec order gives the same result
        no matter how the trials were executed.
        """
        series = dict(self.series)
        for key, (kind, data) in other.series.items():
            mine = series.get(key)
            if mine is None:
                series[key] = (kind, _copy_data(kind, data))
            else:
                if mine[0] != kind:
                    raise ValueError(
                        "cannot merge {} into {} for {!r}".format(
                            kind, mine[0], key
                        )
                    )
                series[key] = (kind, _merge_entry(kind, mine[1], data))
        return MetricsSnapshot(series)

    @staticmethod
    def merge_all(snapshots):
        """Fold ``snapshots`` (left to right) into one."""
        merged = MetricsSnapshot()
        for snapshot in snapshots:
            if snapshot is not None:
                merged = merged.merge(snapshot)
        return merged

    def delta_since(self, earlier):
        """The change from ``earlier`` to this snapshot, as a snapshot.

        The defining property is exact reconstruction: folding a run's
        successive deltas in order with :meth:`merge` rebuilds the
        final snapshot *equal by* ``==`` — which is what lets a
        streaming exporter (:mod:`repro.telemetry.stream`) emit
        periodic deltas whose merge is byte-identical to the
        end-of-run snapshot.  Per kind:

        * counters: the difference (omitted when zero — merging an
          implicit zero is a no-op);
        * gauges: the current value with the update-count difference
          (omitted when unsampled since ``earlier``);
        * histograms: count/total/bucket differences plus the
          *cumulative* min/max (mins/maxes only tighten under merge,
          so carrying the running extremes reproduces them exactly).

        Exactness holds for integer-valued observations (every
        instrument in the simulator observes cycle counts or event
        tallies, exact in float arithmetic); pathological non-integer
        floats could reassociate differently.

        Series absent from ``earlier`` are copied whole.  ``earlier``
        must be a previous snapshot of the same registry — instruments
        are never removed, so every earlier series must still exist.
        """
        series = {}
        for key, (kind, data) in self.series.items():
            old = earlier.series.get(key)
            if old is None:
                series[key] = (kind, _copy_data(kind, data))
                continue
            if old[0] != kind:
                raise ValueError(
                    "cannot delta {} against {} for {!r}".format(
                        kind, old[0], key
                    )
                )
            if kind == "counter":
                diff = data - old[1]
                if diff:
                    series[key] = (kind, diff)
            elif kind == "gauge":
                updates_diff = data[1] - old[1][1]
                if updates_diff:
                    series[key] = (kind, (data[0], updates_diff))
            else:
                if data["count"] == old[1]["count"]:
                    continue
                buckets = {}
                for index, count in data["buckets"].items():
                    diff = count - old[1]["buckets"].get(index, 0)
                    if diff:
                        buckets[index] = diff
                series[key] = (
                    kind,
                    {
                        "count": data["count"] - old[1]["count"],
                        "total": data["total"] - old[1]["total"],
                        "low": data["low"],
                        "high": data["high"],
                        "buckets": buckets,
                    },
                )
        return MetricsSnapshot(series)

    # -- queries ---------------------------------------------------------

    def names(self):
        return sorted({name for name, _labels in self.series})

    def value(self, name, **labels):
        """The counter/gauge value (or histogram data) for one series."""
        kind, data = self.series[_series_key(name, labels)]
        if kind == "gauge":
            return data[0]
        return data

    def get(self, name, default=None, **labels):
        key = _series_key(name, labels)
        if key not in self.series:
            return default
        return self.value(name, **labels)

    def labeled(self, name):
        """Every ``(labels_dict, kind, data)`` recorded under ``name``."""
        out = []
        for (series_name, label_items), (kind, data) in sorted(
            self.series.items(), key=lambda kv: repr(kv[0])
        ):
            if series_name == name:
                out.append((dict(label_items), kind, data))
        return out

    def total(self, name):
        """Sum a counter family over all its label sets.

        ``total("router.conn.blocked")`` -> overall count.
        """
        acc = 0
        for _labels, kind, data in self.labeled(name):
            acc += data if kind == "counter" else data[0]
        return acc

    def histogram(self, name, **labels):
        """A :class:`Histogram` rebuilt from this snapshot's data."""
        kind, data = self.series[_series_key(name, labels)]
        if kind != "histogram":
            raise ValueError("{!r} is a {}, not a histogram".format(name, kind))
        histogram = Histogram()
        histogram._load(data)
        return histogram

    def as_dict(self):
        """A JSON-friendly rendering (string keys, plain values)."""
        out = {}
        for (name, label_items), (kind, data) in sorted(
            self.series.items(), key=lambda kv: repr(kv[0])
        ):
            label_text = ",".join(
                "{}={}".format(k, v) for k, v in label_items
            )
            key = "{}{{{}}}".format(name, label_text) if label_text else name
            if kind == "histogram":
                rendered = dict(data)
                rendered["buckets"] = {
                    str(index): count
                    for index, count in sorted(data["buckets"].items())
                }
                out[key] = rendered
            elif kind == "gauge":
                out[key] = data[0]
            else:
                out[key] = data
        return out

    def __eq__(self, other):
        return (
            isinstance(other, MetricsSnapshot) and self.series == other.series
        )

    def __ne__(self, other):
        return not self.__eq__(other)

    def __len__(self):
        return len(self.series)

    def __repr__(self):
        return "<MetricsSnapshot {} series>".format(len(self.series))


def _copy_data(kind, data):
    if kind == "histogram":
        copied = dict(data)
        copied["buckets"] = dict(data["buckets"])
        return copied
    return data
