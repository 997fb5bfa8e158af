"""Generic measured-window experiment runner.

Every simulation-backed figure in the paper reduces to: build a
network, attach a workload, warm it up, measure a window, and report
latency/throughput statistics over the messages that completed inside
the window.  :func:`run_experiment` is that loop;
:class:`ExperimentResult` carries the statistics.  :func:`drive_window`
is the drive it shares with the service soak
(:func:`repro.workloads.service.finish_service`), and its conservation
gate.
"""

from repro.harness.cache import result_content_hash
from repro.stats import percentile


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
        self._latencies = sorted(m.total_latency for m in delivered)
        self._attempts = [m.attempts for m in delivered]
        self._sources = [m.source for m in delivered]

    # -- latency ---------------------------------------------------------
    # Latencies and attempt counts are whole numbers, so a plain sum is
    # exact and each mean is correctly rounded (tests/test_stats.py).

    @property
    def mean_latency(self):
        return sum(self._latencies) / self.delivered_count if self.delivered_count else float("nan")

    @property
    def median_latency(self):
        # Exactly np.median: latencies are whole cycles, so the midpoint
        # of the two middle values is exact either way.
        return self.latency_percentile(50)

    def latency_percentile(self, q):
        return percentile(self._latencies, q) if self.delivered_count else float("nan")

    @property
    def mean_attempts(self):
        return sum(self._attempts) / self.delivered_count if self.delivered_count else float("nan")

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
    return finish_experiment(
        network, traffic, warmup_cycles, measure_cycles, label, telemetry
    )


def finish_experiment(network, traffic, warmup_cycles, measure_cycles, label,
                      telemetry):
    """:func:`run_experiment` after ``traffic`` is attached: drive the
    window (:func:`drive_window`; the sources stop at its end) and
    score it."""
    start, end = drive_window(
        network, traffic, warmup_cycles, measure_cycles, _detach_sources
    )
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


class ConservationError(RuntimeError):
    """A workload submitted a message that is neither finished nor in
    flight: the simulator lost it."""


def drive_window(network, workload, warmup_cycles, measure_cycles, stop):
    """Run a measured window to its end, stop the workload, drain.

    The window is absolute: the run goes to cycle ``warmup_cycles``,
    then to ``warmup_cycles + measure_cycles``, so a network restored
    from a snapshot taken anywhere before the window's end scores the
    same window a straight run does.  ``stop(network, end)`` ends the
    workload at the window's edge; the network then drains for up to
    ``4 * measure_cycles`` cycles, so stragglers finish and the tail is
    not censored.  Returns the window's ``(start, end)`` cycles.

    Afterwards every message ``workload`` submitted (its ``generated``
    count) must be delivered, abandoned or still queued or in flight at
    an endpoint; :class:`ConservationError` otherwise.
    """
    start, end = warmup_cycles, warmup_cycles + measure_cycles
    for cycle in (start, end):
        network.run(max(0, cycle - network.engine.cycle))
    stop(network, end)
    network.run_until_quiet(max_cycles=measure_cycles * 4)
    log = network.log
    in_flight = sum(endpoint.pending_count() for endpoint in network.endpoints)
    if workload.generated != len(log.messages) + in_flight:
        abandoned = len(log.abandoned())
        raise ConservationError(
            "{} messages submitted != {} delivered + {} abandoned + {} in "
            "flight".format(
                workload.generated, len(log.messages) - abandoned, abandoned,
                in_flight,
            )
        )
    return start, end


def _detach_sources(network, end):
    """:func:`drive_window`'s ``stop`` for closed-loop sources: they
    leave their endpoints, and what they submitted drains."""
    for endpoint in network.endpoints:
        endpoint.traffic_source = None
