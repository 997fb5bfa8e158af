"""The event-driven engine backend: gating, waking, compression.

Byte-level equivalence over whole workloads lives in
``tests/verify/test_backend_diff.py``; these tests pin the mechanisms
that make it hold — parking and re-scheduling, the hot channel set,
the degrade-to-dense fallback, idle-run compression and its
interaction with deadlines and stop requests.
"""

import pytest

from repro.core import words as W
from repro.endpoint.messages import DELIVERED, Message
from repro.endpoint.traffic import UniformRandomTraffic
from repro.harness.load_sweep import figure1_network
from repro.sim.backends import BACKENDS, EventEngine, make_engine
from repro.sim.channel import Channel
from repro.sim.component import ACTIVE, Component
from repro.sim.engine import Engine, EngineDeadlineError
from repro.workloads.service import RequestResponseWorkload


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
    """Ticks forever; knows nothing of the activity protocol."""

    def __init__(self):
        self.name = "counter"
        self.ticks = []

    def tick(self, cycle):
        self.ticks.append(cycle)


def test_non_protocol_component_degrades_to_dense_sweep():
    engine = EventEngine()
    counter = _Counter()
    engine.add_component(counter)
    engine.run(5)
    assert engine.degraded
    assert counter.ticks == [0, 1, 2, 3, 4]
    assert engine.compressed_cycles == 0


def test_degraded_equivalence_on_a_network():
    """A foreign component must not change network results, only speed:
    the whole engine falls back to the reference sweep."""
    logs = []
    for extra in (False, True):
        network = figure1_network(seed=3, backend="events")
        if extra:
            network.engine.add_component(_Counter())
        message = network.send(4, Message(dest=11, payload=[1, 2, 3]))
        assert network.run_until_quiet(max_cycles=20000)
        logs.append((message.outcome, message.latency, message.attempts))
    assert network.engine.degraded
    assert logs[0] == logs[1]


def test_idle_network_parks_and_compresses():
    network = figure1_network(seed=0, backend="events")
    network.run(2000)
    engine = network.engine
    assert engine.cycle == 2000
    assert not engine.degraded
    # Everything parks after the conservative warm-up cycles and the
    # remaining idle run is compressed away in O(1).
    assert engine.compressed_cycles > 1900


def test_send_on_a_parked_network_is_delivered():
    """network.send wakes the endpoint out of PARKED; the delivery
    must match the reference backend cycle for cycle."""
    latencies = []
    for backend in ("reference", "events"):
        network = figure1_network(seed=5, backend=backend)
        network.run(500)  # park everything (events) / spin (reference)
        message = network.send(2, Message(dest=13, payload=[7, 8, 9]))
        assert network.run_until_quiet(max_cycles=20000)
        assert message.outcome == DELIVERED
        latencies.append((message.start_cycle, message.done_cycle))
    assert latencies[0] == latencies[1]


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
    """Observer that requests a stop at a chosen cycle (observers are
    outside the activity protocol and tick every cycle)."""

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
    assert not engine.degraded


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


def test_wake_ignores_unknown_objects():
    network = figure1_network(seed=0, backend="events")
    network.run(10)
    foreign = Channel(name="foreign")
    network.engine.wake(foreign)   # never registered: ignored
    network.engine.wake(object())  # not a component either: ignored
    network.run(10)
    assert network.engine.cycle == 20


class _Wired(Component):
    """Protocol-compliant component wired to one channel's a side."""

    def __init__(self, channel):
        self.name = "wired"
        self.channel = channel
        self.ticks = 0

    def tick(self, cycle):
        self.ticks += 1

    def activity_state(self):
        return ACTIVE

    def attached_channels(self):
        return [self.channel]


def test_unregistered_attached_channel_is_never_advanced():
    """A component may report wiring to a channel the engine never
    registered (ad-hoc harnesses); the reference engine would not
    advance it, so the events backend must not either."""
    private = Channel(name="private")
    engine = EventEngine()
    engine.add_component(_Wired(private))
    private.a.send(W.data(1))
    engine.run(8)
    assert not engine.degraded
    # The staged word went nowhere: the channel never advanced.
    assert private.b.recv() is None


def test_staging_heats_a_cold_channel():
    """The staging hook re-heats channels without any engine scan."""
    network = figure1_network(seed=0, backend="events")
    network.run(600)  # everything parked, hot set drained
    engine = network.engine
    assert not engine._hot
    channel = network.engine.channels[0]
    assert channel.hot_hook is not None
    channel.hot_hook(channel)
    assert channel in engine._hot
