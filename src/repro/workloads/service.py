"""Closed-loop datacenter services with open-loop arrivals.

A latency-SLO service is the other traffic shape a multipath fabric
must carry: many clients issuing requests to a few server endpoints,
each request a round trip (the reply rides METRO's acknowledgment
stream, with a simulated service time at the server), judged not by
the mean but by the tail — p50/p95/p99/p999 against an SLO.

Arrivals are **open loop**: each simulated client draws its next
request time from a Poisson (or bursty) process *independent of the
network's state*, so a slow fabric grows a backlog instead of
politely throttling the load — queueing delay counts against the SLO.
Each physical endpoint multiplexes several such clients (one network
interface, many callers behind it), and a request's latency clock
starts at its *arrival*, not at the cycle the interface got around to
transmitting it: sources pre-stamp ``queued_cycle`` with the true
arrival, which :meth:`~repro.endpoint.interface.Endpoint.submit`
preserves.

The workload is a standard
:class:`~repro.endpoint.traffic.TrafficSource`: picklable, resumable
mid-sequence from an engine snapshot, and byte-identical across both
backends.
"""

import math
import random

from repro.endpoint import messages as M
from repro.endpoint.messages import Message
from repro.endpoint.traffic import TrafficSource, random_payload
from repro.stats import nearest_rank


class _ServiceMessage(Message):
    """One request: a Message that knows which client issued it."""

    __slots__ = ("request_id", "client_id")

    def __init__(self, dest, payload, request_id, client_id):
        super().__init__(dest, payload)
        self.request_id = request_id
        self.client_id = client_id


class _ServiceHandler:
    """A server endpoint's reply handler (picklable callable).

    Returns ``reply_words`` of payload plus a service delay drawn
    uniformly from ``delay_range`` — the variable-latency remote-read
    of the paper's Section 5.1, repurposed as request processing time.
    """

    __slots__ = ("_words", "_delay", "_w", "_rng")

    def __init__(self, words, delay_range, w, seed):
        self._words = words
        self._delay = delay_range
        self._w = w
        self._rng = random.Random(seed)

    def __call__(self, payload, checksum_ok):
        lo, hi = self._delay
        delay = self._rng.randint(lo, hi) if hi > lo else lo
        if not self._words:
            return [], delay
        return random_payload(self._rng, self._words, self._w), delay


class _ClientSource:
    """One endpoint's multiplexed client population (picklable).

    Keeps, per simulated client, the cycle of its next arrival; a poll
    at cycle ``c`` emits the earliest due request (ties broken by
    client id) and immediately draws that client's next arrival — so
    randomness is consumed *per request*, never per cycle.  Requests
    the interface cannot transmit yet simply stay due (the open-loop
    backlog); their pre-stamped ``queued_cycle`` keeps the latency
    clock honest.
    """

    __slots__ = ("_traffic", "_rng", "_index", "_due", "_burst", "_stop_at")

    def __init__(self, traffic, rng, index):
        self._traffic = traffic
        self._rng = rng
        self._index = index
        # Client k's first arrival: an initial gap draw, so clients
        # don't all fire at cycle 0 in lockstep.
        self._due = [self._gap() for _ in range(traffic.clients)]
        self._burst = []  # extra (due_cycle, client) arrivals from bursts
        self._stop_at = None

    def _gap(self):
        traffic = self._traffic
        if traffic.rate <= 0:
            return float("inf")
        u = self._rng.random()
        # Inverse-CDF exponential inter-arrival, floored at 1 cycle.
        return max(1, int(-math.log(1.0 - u) / traffic.rate))

    def __call__(self, cycle):
        if self._burst and self._burst[0][0] <= cycle:
            due, client = self._burst.pop(0)
            return self._emit(due, client)
        best = None
        for client, due in enumerate(self._due):
            if due <= cycle and (best is None or due < self._due[best]):
                best = client
        if best is None:
            return None
        due = self._due[best]
        traffic = self._traffic
        nxt = due + self._gap()
        if self._stop_at is not None and nxt >= self._stop_at:
            # The arrival process ended before this client's next draw.
            nxt = float("inf")
        self._due[best] = nxt
        if traffic.burst_size > 1 and self._rng.random() < traffic.burst_prob:
            # A bursty client issues a back-to-back batch: the extras
            # share the trigger's arrival cycle (they were all waiting
            # on the same upstream event).
            self._burst.extend(
                (due, best) for _ in range(traffic.burst_size - 1)
            )
        return self._emit(due, best)

    def _emit(self, due, client):
        traffic = self._traffic
        message = traffic._request(self._rng, self._index, client)
        # Open-loop semantics: the latency clock starts at the arrival,
        # not at the submit; Endpoint.submit preserves a preset stamp.
        message.queued_cycle = due
        return message

    def stop(self, at_cycle):
        """End the arrival processes: drop everything due ``at_cycle``+.

        Arrivals that already happened (due earlier) stay pending and
        are still emitted on later polls — including the ones a stalled
        interface has not materialized yet, whose dues keep advancing
        through the pre-``at_cycle`` past as they drain.  The drain
        phase must not censor the open-loop backlog's tail.
        """
        self._stop_at = at_cycle
        self._burst = [entry for entry in self._burst if entry[0] < at_cycle]
        for client, due in enumerate(self._due):
            if due >= at_cycle:
                self._due[client] = float("inf")


class RequestResponseWorkload(TrafficSource):
    """Open-loop request/response traffic against server endpoints.

    :param n_endpoints: network size.
    :param w: datapath width (payload values are ``w``-bit).
    :param servers: endpoint indices acting as servers; every other
        endpoint is a client host.
    :param clients: simulated clients multiplexed per client endpoint.
    :param rate: per-client mean arrivals per cycle (Poisson); the
        offered load per client endpoint is ``clients * rate``
        requests/cycle.
    :param burst_prob: probability an arrival triggers a burst.
    :param burst_size: total requests per burst (1 = pure Poisson).
    :param request_words: request payload length.
    :param reply_words: server reply payload length.
    :param service_time: inclusive ``(lo, hi)`` cycles of simulated
        server processing per request.
    :param seed: randomness root (per-endpoint streams derive from it).
    """

    def __init__(self, n_endpoints, w, servers=(0,), clients=4, rate=0.002,
                 burst_prob=0.0, burst_size=1, request_words=8,
                 reply_words=4, service_time=(0, 0), seed=0):
        super().__init__(n_endpoints, w, message_words=request_words, seed=seed)
        self.servers = tuple(sorted(servers))
        if not self.servers:
            raise ValueError("a service needs at least one server endpoint")
        self.clients = clients
        self.rate = rate
        self.burst_prob = burst_prob
        self.burst_size = burst_size
        self.request_words = request_words
        self.reply_words = reply_words
        self.service_time = tuple(service_time)

    def source_for(self, endpoint_index):
        return _ClientSource(self, self._rng(endpoint_index), endpoint_index)

    def attach(self, network):
        """Clients get sources, servers get reply handlers."""
        server_set = set(self.servers)
        for endpoint in network.endpoints:
            if endpoint.index in server_set:
                endpoint.traffic_source = None
                endpoint.reply_handler = _ServiceHandler(
                    self.reply_words,
                    self.service_time,
                    self.w,
                    (self.seed << 8) ^ (endpoint.index * 2617 + 5),
                )
            else:
                endpoint.traffic_source = self.source_for(endpoint.index)
        return self

    def _request(self, rng, endpoint_index, client):
        dest = self.servers[rng.randrange(len(self.servers))]
        request_id = self.generated
        self.generated += 1
        return _ServiceMessage(
            dest=dest,
            payload=random_payload(rng, self.request_words, self.w),
            request_id=request_id,
            client_id=(endpoint_index, client),
        )


class ServiceResult:
    """Tail-latency statistics over one measured window (plain data)."""

    quarantined = False
    metrics = None

    def __init__(self, label, requests, abandoned, measure_cycles,
                 n_client_endpoints, clients, offered_rate, backlog,
                 log_digest):
        self.label = label
        self.delivered_count = len(requests)
        self.abandoned_count = abandoned
        self.measure_cycles = measure_cycles
        self.n_client_endpoints = n_client_endpoints
        self.clients = clients
        self.offered_rate = offered_rate
        #: Requests that had arrived but not completed when the window
        #: closed — the open-loop queue the fabric failed to drain.
        self.backlog = backlog
        self.log_digest = log_digest
        latencies = sorted(
            m.total_latency for m in requests if m.total_latency is not None
        )
        self._latencies = latencies
        self.per_client_counts = {}
        for m in requests:
            key = m.client_id
            self.per_client_counts[key] = self.per_client_counts.get(key, 0) + 1

    def latency_percentile(self, q):
        """Exact nearest-rank percentile over per-request latencies."""
        values = self._latencies
        return float(nearest_rank(values, q)) if values else float("nan")

    @property
    def mean_latency(self):
        values = self._latencies
        return sum(values) / len(values) if values else float("nan")

    @property
    def throughput(self):
        """Completed requests per kilocycle."""
        if not self.measure_cycles:
            return float("nan")
        return 1000.0 * self.delivered_count / self.measure_cycles

    def content_hash(self):
        from repro.harness.cache import result_content_hash

        return result_content_hash(self)

    def as_dict(self):
        return {
            "label": self.label,
            "delivered": self.delivered_count,
            "abandoned": self.abandoned_count,
            "backlog": self.backlog,
            # Requests per kilocycle per client endpoint — same scale
            # as ``throughput``, readable in one table.
            "offered_per_kcycle": 1000.0 * self.offered_rate,
            "throughput": self.throughput,
            "mean_latency": self.mean_latency,
            "p50_latency": self.latency_percentile(50),
            "p95_latency": self.latency_percentile(95),
            "p99_latency": self.latency_percentile(99),
            "p999_latency": self.latency_percentile(99.9),
            "log_digest": self.log_digest,
        }

    def __repr__(self):
        return "<ServiceResult {} n={} p99={:.0f}>".format(
            self.label, self.delivered_count, self.latency_percentile(99)
        )


def service_slo_failures(result, slo):
    """SLO verdicts for one service point.

    ``slo`` maps percentile labels (``"p50"``, ``"p95"``, ``"p99"``,
    ``"p999"``) to latency bounds in cycles; ``"abandoned"``, when
    present, bounds the count of undeliverable requests.  Returns a
    list of human-readable violations — empty means the gate passes.
    The CLI exits with code 1 when any point violates its SLO (see
    ``docs/workloads.md``).
    """
    quantiles = {"p50": 50, "p95": 95, "p99": 99, "p999": 99.9}
    failures = []
    for name, bound in sorted(slo.items()):
        if name == "abandoned":
            continue
        if name not in quantiles:
            raise ValueError("unknown SLO key {!r}".format(name))
        observed = result.latency_percentile(quantiles[name])
        if not observed <= bound:  # NaN (no data) also fails the gate
            failures.append(
                "{}: {} latency {} exceeds SLO {}".format(
                    result.label, name, observed, bound
                )
            )
    abandoned_bound = slo.get("abandoned")
    if abandoned_bound is not None and result.abandoned_count > abandoned_bound:
        failures.append(
            "{}: {} abandoned requests exceed bound {}".format(
                result.label, result.abandoned_count, abandoned_bound
            )
        )
    return failures


def stop_arrivals(network, at_cycle):
    """Stop every arrival process at the window edge ``at_cycle``.

    Arrivals that already happened stay pending inside the sources and
    are still emitted during the drain — detaching the sources instead
    would silently censor exactly the worst-latency tail requests.
    """
    for endpoint in network.endpoints:
        source = endpoint.traffic_source
        if source is not None:
            source.stop(at_cycle)


def finish_service(network, workload, warmup_cycles, measure_cycles, label):
    """Warm up, measure, drain, and summarize one service soak whose
    ``workload`` is attached to ``network``.

    The window is driven by
    :func:`repro.harness.experiment.drive_window`: the arrival processes
    stop at its end and the drain lets stragglers finish, so the tail
    is not censored.  Requests are attributed to the window by
    *arrival* cycle (their open-loop ``queued_cycle``), the same
    discipline as :func:`repro.harness.experiment.run_experiment`,
    minus the closed-loop assumptions.  ``label`` None names the
    result by the workload's rate.
    """
    from repro.harness.experiment import drive_window

    start, end = drive_window(
        network, workload, warmup_cycles, measure_cycles, stop_arrivals
    )
    in_window = [
        m
        for m in network.log.messages
        if getattr(m, "request_id", None) is not None
        and m.queued_cycle is not None
        and start <= m.queued_cycle < end
    ]
    delivered = [m for m in in_window if m.outcome == M.DELIVERED]
    abandoned = sum(1 for m in in_window if m.outcome == M.ABANDONED)
    # The open-loop queue the fabric had failed to drain when the
    # window closed: in-window arrivals still incomplete at ``end``.
    backlog = sum(
        1
        for m in in_window
        if m.done_cycle is None or m.done_cycle > end
    )

    from repro.workloads.collective import collective_log_digest

    n_client_endpoints = network.plan.n_endpoints - len(workload.servers)
    return ServiceResult(
        label=label or "rate={}".format(workload.rate),
        requests=delivered,
        abandoned=abandoned,
        measure_cycles=measure_cycles,
        n_client_endpoints=n_client_endpoints,
        clients=workload.clients,
        offered_rate=workload.rate * workload.clients,
        backlog=backlog,
        log_digest=collective_log_digest(network.log),
    )
