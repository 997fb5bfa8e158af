"""Generic measured-window experiment runner.

Every simulation-backed figure in the paper reduces to: build a
network, attach a workload, warm it up, measure a window, and report
latency/throughput statistics over the messages that completed inside
the window.  :func:`run_experiment` is that loop;
:class:`ExperimentResult` carries the statistics.
"""

import numpy as np

from repro.harness.cache import result_content_hash


class ExperimentResult:
    """Statistics over one measured window."""

    #: A :class:`~repro.telemetry.metrics.MetricsSnapshot` when the
    #: experiment ran with a telemetry hub bound, else None.  Class
    #: attribute because only a run with a hub sets it: a result
    #: without one carries (and pickles) no such field.  Not for old
    #: cache entries: any source edit moves every cache key, so an
    #: entry written by other code is never served.
    metrics = None

    #: Real results are never quarantine reports; the counterpart
    #: (:class:`~repro.harness.parallel.QuarantinedTrial`) carries
    #: True, so sweep consumers can branch on ``result.quarantined``
    #: uniformly.  A constant of the type, so a class attribute.
    quarantined = False

    def __init__(
        self,
        label,
        delivered,
        abandoned,
        warmup_cycles,
        measure_cycles,
        n_endpoints,
        message_words,
        attempt_failures,
    ):
        self.label = label
        self.delivered_count = len(delivered)
        self.abandoned_count = abandoned
        self.warmup_cycles = warmup_cycles
        self.measure_cycles = measure_cycles
        self.n_endpoints = n_endpoints
        self.message_words = message_words
        self.attempt_failures = dict(attempt_failures)
        self._latencies = np.array(
            [m.total_latency for m in delivered], dtype=float
        )
        self._attempts = np.array([m.attempts for m in delivered], dtype=float)
        self._sources = [m.source for m in delivered]

    # -- latency ---------------------------------------------------------

    @property
    def mean_latency(self):
        return float(self._latencies.mean()) if self.delivered_count else float("nan")

    @property
    def median_latency(self):
        return float(np.median(self._latencies)) if self.delivered_count else float("nan")

    def latency_percentile(self, q):
        return float(np.percentile(self._latencies, q)) if self.delivered_count else float("nan")

    @property
    def mean_attempts(self):
        return float(self._attempts.mean()) if self.delivered_count else float("nan")

    # -- throughput / load -----------------------------------------------

    @property
    def delivered_load(self):
        """Delivered words per endpoint-cycle: the Figure 3 load axis.

        Each endpoint can inject at most one word per cycle, so 1.0 is
        the (unreachable) aggregate injection capacity.
        """
        total_words = self.delivered_count * self.message_words
        return total_words / (self.measure_cycles * self.n_endpoints)

    def per_source_counts(self):
        """Delivered-message count per source endpoint."""
        counts = {e: 0 for e in range(self.n_endpoints)}
        for source in self._sources:
            counts[source] = counts.get(source, 0) + 1
        return counts

    def jain_fairness(self):
        """Jain's fairness index over per-source throughput.

        1.0 = perfectly fair; 1/n = one endpoint hogs everything.
        Stochastic selection should keep loaded networks near 1.
        """
        counts = list(self.per_source_counts().values())
        total = sum(counts)
        if total == 0:
            return float("nan")
        squares = sum(c * c for c in counts)
        return (total * total) / (len(counts) * squares)

    def blocked_fraction(self):
        """Failed attempts (any cause) per delivered message."""
        failures = sum(self.attempt_failures.values())
        if not self.delivered_count:
            return float("nan")
        return failures / self.delivered_count

    @property
    def undeliverable(self):
        """Messages whose retry budget ran out inside the window.

        These are *structural* losses (the source gave up), distinct
        from the latency inflation retries normally absorb — a fault
        sweep bounding degradation should bound these too rather than
        letting abandoned messages quietly vanish from the delivered
        tally.
        """
        return self.abandoned_count

    def content_hash(self):
        """The identity a run journal records for this result.

        Delegates to
        :func:`~repro.harness.cache.result_content_hash` (sha256
        over the canonical pickle), so a cached result can be checked
        against its ``trial.done`` journal record without re-deriving
        the hashing convention.
        """
        return result_content_hash(self)

    def as_dict(self):
        return {
            "label": self.label,
            "delivered": self.delivered_count,
            "abandoned": self.abandoned_count,
            "undeliverable": self.undeliverable,
            "mean_latency": self.mean_latency,
            "median_latency": self.median_latency,
            "p95_latency": self.latency_percentile(95),
            "mean_attempts": self.mean_attempts,
            "delivered_load": self.delivered_load,
            "failures_per_message": self.blocked_fraction(),
        }

    def __repr__(self):
        return "<ExperimentResult {}: n={} mean={:.1f}>".format(
            self.label, self.delivered_count, self.mean_latency
        )


def run_experiment(
    network,
    traffic,
    warmup_cycles=2000,
    measure_cycles=10000,
    label="",
    telemetry=None,
):
    """Warm up, measure, and summarize one workload on one network.

    Messages are attributed to the measured window by *submission*
    time; statistics cover those submitted inside the window that
    eventually completed (after the window the sources stop and the
    network drains, so stragglers finish and the tail isn't censored).

    ``telemetry`` is the :class:`~repro.telemetry.TelemetryHub` already
    bound to ``network`` (if any): its picklable metrics snapshot is
    attached to the result as ``result.metrics``, which is how sweep
    trials ship metrics back across process boundaries.
    """
    traffic.attach(network)
    network.run(warmup_cycles)
    start = network.engine.cycle
    network.run(measure_cycles)
    end = network.engine.cycle

    # Stop generating, let in-flight messages finish.
    for endpoint in network.endpoints:
        endpoint.traffic_source = None
    network.run_until_quiet(max_cycles=measure_cycles * 4)

    window = [
        m
        for m in network.log.delivered()
        if m.queued_cycle is not None and start <= m.queued_cycle < end
    ]
    abandoned = sum(
        1
        for m in network.log.abandoned()
        if m.queued_cycle is not None and start <= m.queued_cycle < end
    )
    result = ExperimentResult(
        label=label,
        delivered=window,
        abandoned=abandoned,
        warmup_cycles=warmup_cycles,
        measure_cycles=measure_cycles,
        n_endpoints=network.plan.n_endpoints,
        message_words=traffic.message_words,
        attempt_failures=network.log.attempt_failures,
    )
    if telemetry is not None:
        result.metrics = telemetry.snapshot()
    return result
