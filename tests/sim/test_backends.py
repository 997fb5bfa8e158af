"""The events engine backend: silent wires, idle-gap compression.

Byte-level equivalence over whole workloads lives in
``tests/verify/test_backend_diff.py``; these tests pin the mechanisms
that make it hold — only registered wires are advanced, a component
that cannot name its next event vetoes the jump, a run's last cycle
is always stepped, and compression's interaction with deadlines and
stop requests.
"""

import pytest

from repro.core import words as W
from repro.core.parameters import RouterConfig, RouterParameters
from repro.core.random_source import SharedRandomBus
from repro.core.router import MetroRouter
from repro.endpoint.messages import DELIVERED, Message
from repro.endpoint.traffic import UniformRandomTraffic
from repro.harness.load_sweep import figure1_network, figure3_network
from repro.sim.backends import BACKENDS, EventEngine, make_engine
from repro.sim.channel import Channel
from repro.sim.component import Component
from repro.sim.engine import Engine, EngineDeadlineError
from repro.telemetry import TelemetryHub
from repro.workloads.service import RequestResponseWorkload

from tests.mutants import seeded


def test_make_engine_selects_backend():
    assert type(make_engine()) is Engine
    assert BACKENDS == {"reference": Engine, "events": EventEngine}
    for name, cls in BACKENDS.items():
        assert type(make_engine(name)) is cls


def test_make_engine_rejects_unknown_backend():
    for unknown in ("warp", "vector"):
        with pytest.raises(ValueError) as excinfo:
            make_engine(unknown)
        assert unknown in str(excinfo.value)
        for name in BACKENDS:
            assert name in str(excinfo.value)


class _Counter(Component):
    """Ticks forever; cannot name its next event (no
    ``next_event_cycle``)."""

    def __init__(self):
        self.name = "counter"
        self.ticks = []

    def tick(self, cycle):
        self.ticks.append(cycle)


def test_non_protocol_component_degrades_to_dense_sweep():
    """A component without ``next_event_cycle`` vetoes every jump:
    the run is the dense sweep."""
    engine = EventEngine()
    counter = _Counter()
    engine.add_component(counter)
    engine.run(5)
    assert counter.ticks == [0, 1, 2, 3, 4]
    assert engine.compressed_cycles == 0


def test_degraded_equivalence_on_a_network():
    """A foreign component changes nothing but the jump: the same
    delivery, no cycle compressed."""
    logs, compressed = [], []
    for extra in (False, True):
        network = figure1_network(seed=3, backend="events")
        if extra:
            network.engine.add_component(_Counter())
        message = network.send(4, Message(dest=11, payload=[1, 2, 3]))
        assert network.run_until_quiet(max_cycles=20000)
        network.run(500)
        logs.append((message.outcome, message.latency, message.attempts))
        compressed.append(network.engine.compressed_cycles)
    assert logs[0] == logs[1]
    assert compressed[0] > 400 and compressed[1] == 0


def test_idle_network_parks_and_compresses():
    """After a delivery every wire that carried it falls silent again,
    every router goes quiet and the idle run that follows is
    compressed away in O(1)."""
    network = figure1_network(seed=0, backend="events")
    message = network.send(2, Message(dest=13, payload=[1, 2, 3]))
    assert network.run_until_quiet(max_cycles=20000)
    assert message.outcome == DELIVERED
    engine = network.engine
    start, compressed = engine.cycle, engine.compressed_cycles
    network.run(2000)
    assert engine.cycle == start + 2000
    assert engine.compressed_cycles - compressed > 1900


def test_the_compression_test_catches_an_occupancy_that_never_clears():
    """Seeded wire bug (``docs/testing.md``): ``Channel.advance`` never
    uncounts a word leaving its last slot, so a wire that carried one
    stays live and the network never compresses again."""
    with seeded("channel-advance-keeps-occupancy"):
        with pytest.raises(AssertionError):
            test_degraded_equivalence_on_a_network()
        with pytest.raises(AssertionError):
            test_idle_network_parks_and_compresses()


def _send_after_idle(factory, backend, src, dest):
    network = factory(seed=5, backend=backend)
    network.run(500)  # one jump (events) / 500 idle steps (reference)
    message = network.send(src, Message(dest=dest, payload=[7, 8, 9]))
    assert network.run_until_quiet(max_cycles=20000)
    assert message.outcome == DELIVERED
    return message.queued_cycle, message.start_cycle, message.done_cycle


def test_send_on_a_parked_network_is_delivered():
    """A message submitted between runs is stamped with the endpoint's
    clock (``queued_cycle``): the events engine steps the last cycle
    of every run, so that clock, the start and the delivery match the
    reference backend cycle for cycle, on Figure 1 and Figure 3."""
    for factory, src, dest in ((figure1_network, 2, 13), (figure3_network, 5, 60)):
        reference = _send_after_idle(factory, "reference", src, dest)
        assert reference[0] == 499
        assert _send_after_idle(factory, "events", src, dest) == reference


def test_the_send_test_catches_a_run_that_ends_in_a_jump():
    """Seeded engine bug (``docs/testing.md``): the last jump of a run
    lands on its end cycle, so no component ticks the run's last
    cycle and an endpoint stamps a message with a stale clock."""
    with seeded("events-run-ends-in-jump"):
        with pytest.raises(AssertionError):
            test_send_on_a_parked_network_is_delivered()


def test_loaded_equivalence_uniform_traffic():
    """Same seeds, both backends, moderate load: identical logs."""
    fingerprints = []
    for backend in ("reference", "events"):
        network = figure1_network(seed=9, backend=backend)
        UniformRandomTraffic(
            network.plan.n_endpoints,
            network.codec.w,
            rate=0.05,
            message_words=8,
            seed=10,
        ).attach(network)
        network.run(1500)
        fingerprints.append(
            [
                (m.source, m.dest, m.queued_cycle, m.start_cycle,
                 m.done_cycle, m.attempts, m.outcome)
                for m in network.log.messages
            ]
        )
    assert fingerprints[0] == fingerprints[1]
    assert fingerprints[0]  # the comparison is not vacuous


def test_trace_traffic_compresses_between_arrivals():
    """A source that names its next arrival lets the gaps between
    arrivals be compressed — without changing a single delivery.  The
    source here is the service workload's open-loop client population
    (arrival times are drawn per request, so ``next_arrival_cycle`` is
    always known), at a rate that leaves thousands of idle cycles
    between requests."""
    logs = []
    compressed = None
    for backend in ("reference", "events"):
        network = figure1_network(seed=21, backend=backend)
        RequestResponseWorkload(
            network.plan.n_endpoints,
            network.codec.w,
            clients=1,
            rate=0.00005,
            request_words=6,
            seed=4,
        ).attach(network)
        network.run(5000)
        logs.append(
            [
                (m.source, m.dest, m.queued_cycle, m.start_cycle,
                 m.done_cycle, m.outcome)
                for m in network.log.messages
            ]
        )
        if backend == "events":
            compressed = network.engine.compressed_cycles
    assert logs[0] == logs[1]
    assert len(logs[0]) == 3  # arrivals at cycles 63, 2264 and 4895
    assert all(entry[-1] == DELIVERED for entry in logs[0])
    assert compressed > 4000  # the dead air between arrivals


def test_compression_respects_the_deadline():
    """An idle-run jump may land on the deadline but never past it."""
    network = figure1_network(seed=0, backend="events")
    network.engine.set_deadline(700)
    with pytest.raises(EngineDeadlineError):
        network.run(100000)
    assert network.engine.cycle == 700


class _StopObserver(Component):
    """Observer that requests a stop at a chosen cycle (it names no
    next event, so it ticks every cycle)."""

    def __init__(self, engine, at):
        self.name = "stop-observer"
        self.engine = engine
        self.at = at

    def tick(self, cycle):
        if cycle == self.at:
            self.engine.stop()


def test_stop_mid_run_on_the_events_backend():
    network = figure1_network(seed=0, backend="events")
    engine = network.engine
    engine.add_observer(_StopObserver(engine, at=7))
    network.run(1000)
    assert engine.cycle == 8  # cycle 7 completed, nothing after


def test_observers_disable_compression():
    """Observers sample every cycle, so no cycle may be skipped."""
    network = figure1_network(seed=0, backend="events")
    trail = []

    class _Probe(Component):
        name = "probe"

        def tick(self, cycle):
            trail.append(cycle)

    network.engine.add_observer(_Probe())
    network.run(50)
    assert trail == list(range(50))
    assert network.engine.compressed_cycles == 0


class _Wired(Component):
    """A component wired to one channel's a side."""

    def __init__(self, channel):
        self.name = "wired"
        self.channel = channel
        self.ticks = 0

    def tick(self, cycle):
        self.ticks += 1


def test_unregistered_attached_channel_is_never_advanced():
    """A component may be wired to a channel the engine never
    registered (ad-hoc harnesses); the reference engine would not
    advance it, so the events backend must not either, live or not."""
    private = Channel(name="private")
    engine = EventEngine()
    engine.add_component(_Wired(private))
    private.a.send(W.data(1))
    engine.run(8)
    assert private.live
    # The staged word went nowhere: the channel never advanced.
    assert private.b.recv() is None


def test_staging_heats_a_cold_channel():
    """A word staged on a silent wire between runs marks it live, and
    the next run advances it: nothing announces it to the engine."""
    network = figure1_network(seed=0, backend="events")
    network.run(600)
    engine = network.engine
    assert engine.compressed_cycles > 500
    channel = engine.channels[0]
    assert not channel.live
    channel.a.send(W.data(1))
    assert channel.live
    network.run(channel.delay)
    assert channel.b.recv() == W.data(1)


def _cascade_facts(backend):
    """Three routers cascaded on one random bus, idle for 500 cycles,
    then fed the same header on one forward port each; the boundary
    registers, the router events and the cycles the engine jumped."""
    params = RouterParameters(i=4, o=4, w=4, max_d=2)
    bus = SharedRandomBus(seed=5)
    engine = make_engine(backend)
    hub = TelemetryHub(sample_period=0)
    members, inputs = [], []
    for index in range(3):
        router = MetroRouter(
            params, name="slice{}".format(index),
            config=RouterConfig(params, dilation=2), random_stream=bus,
        )
        router.telemetry = hub
        engine.add_component(router)
        for port in range(4):
            channel = engine.add_channel(Channel(name="f{}.{}".format(index, port)))
            router.attach_forward(port, channel.b)
            if port == 1:
                inputs.append(channel.a)
        for port in range(4):
            channel = engine.add_channel(Channel(name="b{}.{}".format(index, port)))
            router.attach_backward(port, channel.a)
        members.append(router)
    boundary = []
    for burst in range(4):
        engine.run(500)
        for value in (burst % 4, 5, 6, 7):
            for end in inputs:
                end.send(W.data(value))
            engine.run(1)
        for end in inputs:
            end.send(W.DROP_WORD)
        engine.run(20)
        boundary.append([repr(r.boundary_capture) for r in members])
    events = [
        (span.begin, span.track, span.name, span.args)
        for span in hub.spans.completed
        if span.cat == "router"
    ]
    return boundary, events, getattr(engine, "compressed_cycles", 0)


def test_an_idle_cascade_on_a_shared_bus_matches_the_reference():
    """A quiet router on a shared random bus lets the clock jump: a
    skipped tick would only have cleared the bus's per-cycle memo,
    which the next tick clears anyway.  Idle gaps give the same routing
    and the same boundary registers on both engines."""
    boundary, events, _ = _cascade_facts("reference")
    assert events  # the comparison is not vacuous
    *facts, compressed = _cascade_facts("events")
    assert facts == [boundary, events]
    assert compressed > 1900
