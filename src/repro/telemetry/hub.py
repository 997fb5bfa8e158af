"""The telemetry hub: one engine observer collecting everything.

A :class:`TelemetryHub` owns a :class:`~repro.telemetry.metrics
.MetricsRegistry` and (optionally) a
:class:`~repro.telemetry.spans.SpanRecorder`, and is *bound* to a
network: binding registers the hub as an engine **observer**
(:meth:`~repro.sim.engine.Engine.add_observer`, so its per-cycle
sampling sees fully-staged state regardless of registration order) and
hands every router and endpoint a reference back to the hub.  Routers
and endpoints report protocol events through the narrow hook API
below; the hub translates them into metric increments and span
operations.  A channel is handed its link group's ``channel.words``
counters instead, and counts the words entering it itself.

The hub holds no reference back to its network: routers hold the hub,
and the engine ticks it, so one would make the whole network cyclic
garbage.  It keeps the leaves it reads instead (each router's
backward-port owner list, each channel, the cycle its last tick
closed), and a dropped network is freed at once.

When no hub is bound, components hold the
:data:`~repro.sim.component.NULL_TELEMETRY` singleton and every
hook site is skipped behind an ``enabled`` check — the disabled path
is a single attribute test, and it is the path ``bench/``'s
``fig3_light`` and ``fig3_saturated`` workloads time.

Metric names are documented in ``docs/observability.md``.
"""

from repro.sim.component import NULL_TELEMETRY, Component  # noqa: F401  (re-export)
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.spans import SpanRecorder

#: Router trace kinds promoted to named counter families; everything
#: else lands in the generic ``router.events`` counter.
_ROUTER_COUNTERS = {
    "conn-open": "router.conn.opened",
    "conn-blocked": "router.conn.blocked",
    "conn-turn": "router.conn.turns",
    "conn-drop": "router.conn.drops",
    "bcb-sent": "router.bcb.sent",
    "bcb-propagate": "router.bcb.propagated",
    "watchdog-teardown": "router.watchdog.teardowns",
}


def _port_track(endpoint_index, port):
    return "ep{}/p{}".format(endpoint_index, port)


class TelemetryHub(Component):
    """Collects metrics, spans and samples for one network.

    Metrics are always collected; every protocol event a component
    reports also lands on the span timeline when ``spans`` is on.

    :param spans: record the span timeline (memory-heavier; sweeps
        run metrics-only).
    :param sample_period: cycles between occupancy samples (router
        backward-port busy counts, channel in-flight words); 0
        disables sampling.
    """

    enabled = True
    name = "telemetry-hub"

    def __init__(self, spans=True, sample_period=16):
        self.registry = registry = MetricsRegistry()
        self.spans = SpanRecorder() if spans else None
        self.sample_period = sample_period
        #: The engine cycle after the hub's last tick (the cycle an
        #: exported trace ends on); None until bound.
        self._next_cycle = None
        self._router_labels = {}   # router name -> (stage, "s.b.i" label)
        self._router_counters = {}  # (name, kind, extra) -> Counter
        self._ep_counters = {}      # (endpoint, kind[, cause]) -> Counter
        self._channels = []  # every bound channel, for occupancy samples
        self._samplers = []  # (router._bwd_owner, its busy counter)
        self._hist_latency = registry.histogram("message.latency.cycles")
        self._hist_attempts = registry.histogram("message.attempts")
        self._hist_queueing = registry.histogram("message.queueing.cycles")
        self._hist_occupancy = registry.histogram("channel.in_flight")
        self._util_samples = registry.counter("router.util.samples")

    # ------------------------------------------------------------------
    # Binding
    # ------------------------------------------------------------------

    def bind(self, network):
        """Attach to ``network``: observer, component back-references
        and each channel's word counters."""
        if self._next_cycle is not None:
            raise ValueError("hub is already bound to a network")
        self._next_cycle = network.engine.cycle
        network.telemetry = self
        network.engine.add_observer(self)
        for (stage, block, index), router in network.router_grid.items():
            self._router_labels[router.name] = (
                stage, "{}.{}.{}".format(stage, block, index)
            )
            router.telemetry = self
        for endpoint in network.endpoints:
            endpoint.telemetry = self
        self._bind_channels(network)
        for router in network.all_routers():
            stage, label = self._router_labels[router.name]
            self.registry.gauge(
                "router.util.ports", router=label, stage=stage
            ).set(router.params.o)
            self._samplers.append(
                (
                    router._bwd_owner,
                    self.registry.counter(
                        "router.util.busy", router=label, stage=stage
                    ),
                )
            )
        return self

    def _bind_channels(self, network):
        for link in network.links:
            channel = network.channels[(link.src.key(), link.dst.key())]
            if link.src.kind == "endpoint":
                group = "inject"
            elif link.dst.kind == "endpoint":
                group = "deliver"
            else:
                group = "s{}->s{}".format(link.src.stage, link.dst.stage)
            # The wire counts its own words into its group's pair.
            channel.telemetry = (
                self.registry.counter("channel.words", link=group, dir="fwd"),
                self.registry.counter("channel.words", link=group, dir="rev"),
            )
            self._channels.append(channel)

    # ------------------------------------------------------------------
    # Per-cycle sampling (engine observer)
    # ------------------------------------------------------------------

    def tick(self, cycle):
        self._next_cycle = cycle + 1
        if not self.sample_period or cycle % self.sample_period:
            return
        self._util_samples.inc()
        for owners, busy_counter in self._samplers:
            busy_counter.inc(len(owners) - owners.count(None))
        self._hist_occupancy.observe(
            sum(channel.in_flight() for channel in self._channels)
        )

    # ------------------------------------------------------------------
    # Endpoint hooks
    # ------------------------------------------------------------------

    def attempt_started(self, cycle, endpoint, port, message):
        self._endpoint_counter(endpoint.index, "endpoint.send.attempts").inc()
        if self.spans is not None:
            track = _port_track(endpoint.index, port)
            self.spans.begin(
                cycle,
                track,
                "attempt",
                cat="message",
                args={
                    "dest": message.dest,
                    "attempt": message.attempts,
                    "words": len(message.payload),
                },
            )
            self.spans.begin(cycle, track, "setup", cat="message")

    def attempt_stream(self, cycle, endpoint, port):
        if self.spans is not None:
            track = _port_track(endpoint.index, port)
            self.spans.end(cycle, track)
            self.spans.begin(cycle, track, "stream", cat="message")

    def attempt_turn(self, cycle, endpoint, port):
        if self.spans is not None:
            track = _port_track(endpoint.index, port)
            self.spans.end(cycle, track)
            self.spans.begin(cycle, track, "reply", cat="message")

    def attempt_finished(
        self, cycle, endpoint, port, message, outcome, blocked_stage=None
    ):
        if outcome == "delivered":
            self._endpoint_counter(
                endpoint.index, "endpoint.send.delivered"
            ).inc()
            self._hist_attempts.observe(message.attempts)
            if message.latency is not None:
                self._hist_latency.observe(message.latency)
            if (
                message.start_cycle is not None
                and message.queued_cycle is not None
            ):
                self._hist_queueing.observe(
                    message.start_cycle - message.queued_cycle
                )
        else:
            self._endpoint_counter(
                endpoint.index, "endpoint.send.failures", cause=outcome
            ).inc()
            if blocked_stage is not None:
                key = ("blocked.stage", blocked_stage)
                counter = self._ep_counters.get(key)
                if counter is None:
                    counter = self.registry.counter(
                        "endpoint.blocked.stage", stage=blocked_stage
                    )
                    self._ep_counters[key] = counter
                counter.inc()
        if self.spans is not None:
            track = _port_track(endpoint.index, port)
            if outcome == "blocked-fast":
                self.spans.instant(
                    cycle,
                    track,
                    "bcb-drop",
                    cat="message",
                    args={"stage": blocked_stage},
                )
            self.spans.end_all(cycle, track, args={"outcome": outcome})

    def message_received(self, cycle, endpoint, n_words, checksum_ok):
        self._endpoint_counter(endpoint.index, "endpoint.recv.messages").inc()
        if not checksum_ok:
            self._endpoint_counter(
                endpoint.index, "endpoint.recv.checksum_failures"
            ).inc()
        if self.spans is not None:
            self.spans.instant(
                cycle,
                "ep{}/rx".format(endpoint.index),
                "deliver",
                cat="message",
                args={"words": n_words, "checksum_ok": checksum_ok},
            )

    def _endpoint_counter(self, index, name, **labels):
        key = (index, name) + tuple(sorted(labels.values()))
        counter = self._ep_counters.get(key)
        if counter is None:
            counter = self.registry.counter(name, endpoint=index, **labels)
            self._ep_counters[key] = counter
        return counter

    # ------------------------------------------------------------------
    # Router hook
    # ------------------------------------------------------------------

    def router_event(self, cycle, router, kind, port, detail):
        name = router.name
        extra = None
        if kind == "conn-blocked":
            extra = detail[1] if isinstance(detail, tuple) else None
        key = (name, kind, extra)
        counter = self._router_counters.get(key)
        if counter is None:
            stage, label = self._router_labels.get(name, (None, name))
            family = _ROUTER_COUNTERS.get(kind)
            if family is None:
                counter = self.registry.counter(
                    "router.events", kind=kind, stage=stage
                )
            elif extra is not None:
                counter = self.registry.counter(
                    family, router=label, stage=stage, mode=extra
                )
            else:
                counter = self.registry.counter(
                    family, router=label, stage=stage
                )
            self._router_counters[key] = counter
        counter.inc()
        if self.spans is not None:
            self.spans.instant(
                cycle,
                name,
                kind,
                cat="router",
                args={"port": port, "detail": repr(detail)},
            )

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------

    def snapshot(self):
        """A picklable metrics snapshot."""
        return self.registry.snapshot()

    def export_trace(self, path):
        """Write the span timeline as Chrome trace-event JSON."""
        if self.spans is None:
            raise ValueError("this hub was built with spans=False")
        return self.spans.export(path, final_cycle=self._next_cycle)
