"""The events engine backend: the dense sweep minus silent wires.

Byte-level equivalence over whole workloads lives in
``tests/verify/test_backend_diff.py``; these tests pin the mechanisms
that make it hold — only registered, live wires are advanced, every
component and observer still ticks every cycle, and deadlines and stop
requests hold as on the reference engine.
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
    """Records every cycle it ticks."""

    def __init__(self):
        self.name = "counter"
        self.ticks = []

    def tick(self, cycle):
        self.ticks.append(cycle)


def test_non_protocol_component_degrades_to_dense_sweep():
    """Every component ticks every cycle of an events run."""
    engine = EventEngine()
    counter = _Counter()
    engine.add_component(counter)
    engine.run(5)
    assert counter.ticks == [0, 1, 2, 3, 4]


def test_degraded_equivalence_on_a_network():
    """A foreign component on an events network changes no delivery."""
    logs = []
    for extra in (False, True):
        network = figure1_network(seed=3, backend="events")
        if extra:
            network.engine.add_component(_Counter())
        message = network.send(4, Message(dest=11, payload=[1, 2, 3]))
        assert network.run_until_quiet(max_cycles=20000)
        network.run(500)
        logs.append((message.outcome, message.latency, message.attempts))
    assert logs[0] == logs[1]
    assert logs[0][0] == DELIVERED


def _count_advances(network, cycles):
    """Run ``cycles`` cycles; the number of ``Channel.advance`` calls."""
    calls = []
    advance = Channel.advance

    def counted(channel):
        calls.append(channel)
        advance(channel)

    Channel.advance = counted
    try:
        network.run(cycles)
    finally:
        Channel.advance = advance
    return len(calls)


def test_idle_network_parks_and_compresses():
    """After a delivery an idle events run advances no wire."""
    network = figure1_network(seed=0, backend="events")
    message = network.send(2, Message(dest=13, payload=[1, 2, 3]))
    assert network.run_until_quiet(max_cycles=20000)
    assert message.outcome == DELIVERED
    engine = network.engine
    start = engine.cycle
    assert _count_advances(network, 2000) == 0
    assert engine.cycle == start + 2000


def test_the_compression_test_catches_an_occupancy_that_never_clears():
    """The idle-advance count fails under ``channel-advance-keeps-occupancy``."""
    # Seeded wire bug (``docs/testing.md``): ``Channel.advance`` never
    # uncounts a word leaving its last slot, so a wire that carried one
    # stays live and the events engine advances it every cycle.
    with seeded("channel-advance-keeps-occupancy"):
        with pytest.raises(AssertionError):
            test_idle_network_parks_and_compresses()


def _send_after_idle(factory, backend, src, dest):
    network = factory(seed=5, backend=backend)
    network.run(500)
    message = network.send(src, Message(dest=dest, payload=[7, 8, 9]))
    assert network.run_until_quiet(max_cycles=20000)
    assert message.outcome == DELIVERED
    return message.queued_cycle, message.start_cycle, message.done_cycle


def test_send_on_a_parked_network_is_delivered():
    """A message submitted between runs is stamped with the endpoint's
    clock (``queued_cycle``), and that clock, the start and the
    delivery match the reference backend cycle for cycle, on Figure 1
    and Figure 3."""
    for factory, src, dest in ((figure1_network, 2, 13), (figure3_network, 5, 60)):
        reference = _send_after_idle(factory, "reference", src, dest)
        assert reference[0] == 499
        assert _send_after_idle(factory, "events", src, dest) == reference


def test_the_send_test_catches_a_run_that_ends_in_a_jump():
    """The parked-send test fails under ``endpoint-idle-ignores-reply-phase``."""
    # Seeded endpoint bug (``docs/testing.md``): a destination whose
    # receive pipes fall silent mid-reply stops replying, so the
    # message is never delivered.
    with seeded("endpoint-idle-ignores-reply-phase"):
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
    """Sparse open-loop arrivals give the same deliveries on both backends."""
    # The service workload's client population, at a rate that leaves
    # thousands of idle cycles between requests.
    logs = []
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
    assert logs[0] == logs[1]
    assert len(logs[0]) == 3  # arrivals at cycles 63, 2264 and 4895
    assert all(entry[-1] == DELIVERED for entry in logs[0])


def test_compression_respects_the_deadline():
    """An events run may end on the deadline but never past it."""
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
    """An observer on an events network ticks every cycle."""
    network = figure1_network(seed=0, backend="events")
    trail = []

    class _Probe(Component):
        name = "probe"

        def tick(self, cycle):
            trail.append(cycle)

    network.engine.add_observer(_Probe())
    network.run(50)
    assert trail == list(range(50))


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
    """A word staged on a silent wire between runs is advanced by the next run."""
    # Staging marks the wire live: nothing announces it to the engine.
    network = figure1_network(seed=0, backend="events")
    network.run(600)
    engine = network.engine
    channel = engine.channels[0]
    assert not channel.live
    channel.a.send(W.data(1))
    assert channel.live
    network.run(channel.delay)
    assert channel.b.recv() == W.data(1)


def _cascade_facts(backend):
    """Three routers cascaded on one random bus, idle for 500 cycles,
    then fed the same header on one forward port each; the boundary
    registers and the router events."""
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
    return boundary, events


def test_an_idle_cascade_on_a_shared_bus_matches_the_reference():
    """Routers cascaded on a shared bus route alike on both engines."""
    # Idle gaps between the bursts leave every wire silent, so the
    # events engine advances none of them until the next header.
    reference = _cascade_facts("reference")
    assert reference[1]  # the comparison is not vacuous
    assert _cascade_facts("events") == reference
