"""Spans around the calls the benchmark makes into each layer.

Everything here wraps ``repro`` from outside: a span opens before the
benchmark calls a public function and closes when it returns.  Spans
inside the program are a later change.

Two kinds of record share one list and one shape
``{name, start, end, parent, workload, calls, busy, folded}``:

* :meth:`Tracer.span` records one call (``calls == 1``,
  ``busy == end - start``): ``build_network``, an ``attach``, one
  ``network.run`` chunk, one ``TrialRunner.run``, one
  ``execute_trial``, one journal or cache call.
* :meth:`Tracer.timed` wraps a function that is called hundreds of
  times per simulated cycle (a component ``tick``, ``Channel.advance``).
  One span per call would be a million records a round, so the calls
  made under one enclosing span are folded into a single child record
  per layer: ``calls`` counts them, ``busy`` sums their durations and
  ``start``/``end`` bracket the first and the last.

A span's self time is its duration minus the busy time of its direct
children, so the engine's own scheduling cost is what remains of a
``sim.run`` span after the ticks and advances under it are taken out.
An individual span must not be opened from inside a ``timed`` call.

The wrapper around a folded call costs about as much as an idle
``Channel.advance`` does.  :func:`wrapper_cost` measures that cost on a
function that does nothing, split into the part that lands inside the
timed interval (it inflates the layer's ``busy``) and the part outside
it (it inflates the enclosing span); :func:`layer_totals` takes both
out, so shares are shares of the untraced time.
"""

import contextlib
import json
import time

#: Component class name -> the layer its ``tick`` is billed to.
TICK_LAYERS = {
    "MetroRouter": "core.router.tick",
    "Endpoint": "endpoint.tick",
    "Oracle": "verify.oracle.tick",
    "TelemetryHub": "telemetry.hub.tick",
    "TelemetryStream": "telemetry.stream.tick",
    "RunWatchdog": "telemetry.watchdog.tick",
    "CollectiveObserver": "workloads.collective_observer.tick",
}

ADVANCE_LAYER = "sim.channel.advance"


class Tracer:
    """In-memory span recorder for one workload."""

    def __init__(self, workload):
        self.workload = workload
        self.spans = []
        self._open = []   # indices of the individual spans now open
        self._cells = {}  # layer -> [calls, busy, first start, last end]

    @contextlib.contextmanager
    def span(self, name):
        """Record one call; spans opened inside it become its children."""
        index = len(self.spans)
        record = self._record(
            name, time.perf_counter(), self._open[-1] if self._open else None
        )
        self.spans.append(record)
        self._open.append(index)
        # Folded calls made so far belong to the enclosing span.
        outer = {layer: list(cell) for layer, cell in self._cells.items()}
        for cell in self._cells.values():
            cell[:] = (0, 0.0, 0.0, 0.0)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            record["busy"] = record["end"] - record["start"]
            self._open.pop()
            for layer, cell in self._cells.items():
                if cell[0]:
                    child = self._record(layer, cell[2], index)
                    child.update(
                        calls=cell[0], busy=cell[1], end=cell[3], folded=True
                    )
                    self.spans.append(child)
                cell[:] = outer.get(layer, (0, 0.0, 0.0, 0.0))

    def timed(self, layer, function):
        """Wrap ``function`` so its calls fold into the enclosing span."""
        cell = self._cells.setdefault(layer, [0, 0.0, 0.0, 0.0])
        clock = time.perf_counter

        def call(*args, **kwargs):
            start = clock()
            try:
                return function(*args, **kwargs)
            finally:
                end = clock()
                if not cell[0]:
                    cell[2] = start
                cell[0] += 1
                cell[1] += end - start
                cell[3] = end

        return call

    def _record(self, name, start, parent):
        return {
            "name": name, "start": start, "end": start, "parent": parent,
            "workload": self.workload, "calls": 1, "busy": 0.0,
            "folded": False,
        }

    def write(self, path):
        with open(path, "w") as handle:
            json.dump(self.spans, handle)


class _ChannelProxy:
    """Stands in for a channel in ``engine.channels`` while tracing.

    Channels declare ``__slots__``, so ``advance`` cannot be replaced on
    the instance (the technique of ``repro.telemetry.SimProfiler``).
    """

    __slots__ = ("advance",)

    def __init__(self, advance):
        self.advance = advance


def instrument_network(tracer, network):
    """Wrap every component/observer ``tick`` and ``Channel.advance``.

    Only meaningful on the reference backend: the other engines keep
    their own sets of live channel objects, which proxies would bypass.
    The network is meant to be thrown away after the traced run.
    """
    engine = network.engine
    for component in list(engine.components) + list(engine.observers):
        layer = TICK_LAYERS.get(type(component).__name__)
        if layer is not None:
            component.tick = tracer.timed(layer, component.tick)
    engine.channels = [
        _ChannelProxy(tracer.timed(ADVANCE_LAYER, channel.advance))
        for channel in engine.channels
    ]


def wrapper_cost(calls=20000):
    """``(inside, outside)`` seconds one ``Tracer.timed`` wrapper adds.

    Measured the way :func:`instrument_network` wraps a tick: a bound
    method taking the cycle, replaced on the instance.
    """
    class Component:
        def tick(self, cycle):
            pass

    def loop(component):
        start = time.perf_counter()
        for cycle in range(calls):
            component.tick(cycle)
        return (time.perf_counter() - start) / calls

    plain = loop(Component())
    tracer = Tracer("calibration")
    wrapped = Component()
    wrapped.tick = tracer.timed("nothing", wrapped.tick)
    with tracer.span("calibration"):
        total = loop(wrapped) - plain
    inside = max(0.0, tracer.spans[1]["busy"] / calls - plain)
    return inside, max(0.0, total - inside)


def self_times(spans):
    """Per-span self time: busy time minus its direct children's busy time.

    A folded record has no children, so its self time is its busy time.
    """
    result = [span["busy"] for span in spans]
    for span in spans:
        if span["parent"] is not None:
            result[span["parent"]] -= span["busy"]
    return result


def layer_totals(spans, wrapper=(0.0, 0.0)):
    """``{name: {"calls", "busy", "self"}}`` summed over all spans.

    ``wrapper`` is :func:`wrapper_cost`'s pair: every folded call gives
    back the cost of its wrapper, the inside part from its own layer and
    both parts from every span that encloses it.
    """
    inside, outside = wrapper
    spans = [dict(span) for span in spans]
    for span in spans:
        if not span["folded"]:
            continue
        span["busy"] = max(0.0, span["busy"] - span["calls"] * inside)
        parent = span["parent"]
        while parent is not None:
            spans[parent]["busy"] -= span["calls"] * (inside + outside)
            parent = spans[parent]["parent"]
    totals = {}
    for span, self_time in zip(spans, self_times(spans)):
        entry = totals.setdefault(
            span["name"], {"calls": 0, "busy": 0.0, "self": 0.0}
        )
        entry["calls"] += span["calls"]
        entry["busy"] += span["busy"]
        # The wrapper's cost is measured in a tight loop; where it ran
        # cheaper in place, a span must not be left owing time.
        entry["self"] += max(0.0, self_time)
    return totals
