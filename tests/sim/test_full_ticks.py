"""The idle fast paths change nothing observable.

``MetroRouter.tick`` is one list comparison while the router is quiet
(its quiet test, ``_quiet``) and its forward receive pipes are silent,
and ``Endpoint.tick`` skips its source calls while the endpoint is at
rest (DESIGN.md, "Idle is one test"); a forced full tick leaves rest and
calls the source every cycle.  Here a pre-cycle hook forces full
ticks everywhere: every cycle it clears every router's ``_quiet`` and
sets every endpoint's silent template to a value no pipe list equals.
A forced run must agree with a normal one on the message fingerprint,
on every router's boundary capture registers after every cycle and on
the router events the telemetry hub records, on both engines, over
dead and revived routers, a fault manager serviced on a restored
network (its isolation tests drive disabled ports through
``scan_drive_backward``), width-cascaded routers on a shared random
bus, and wires and router pipelines longer than one cycle.

Both runs carry the same hook and observer; only the forced one acts.
"""

import collections
import pickle
import random

import pytest

from repro.core import words as W
from repro.core.cascade import CascadeGroup
from repro.core.parameters import RouterConfig, RouterParameters
from repro.core.random_source import SharedRandomBus
from repro.core.router import MetroRouter
from repro.endpoint.interface import Endpoint
from repro.endpoint.messages import message_fingerprint
from repro.endpoint.traffic import UniformRandomTraffic
from repro.faults.injector import FaultInjector, random_transient_scenario
from repro.faults.manager import FaultManager
from repro.faults.model import DeadRouter
from repro.network.builder import build_network
from repro.network.topology import NetworkPlan, StageSpec
from repro.sim.backends import BACKENDS, make_engine
from repro.sim.channel import Channel
from repro.sim.component import Component
from repro.sim.snapshot import restore_network, snapshot_network
from repro.telemetry import TelemetryHub

from tests.mutants import seeded

#: What an endpoint's silent template is set to: no list equals it,
#: and neither does the None that marks pipes still to be rebuilt.
_NEVER = "never"


class _Hook:
    """Pre-cycle hook: with ``force``, every tick this cycle is full.

    Unforced, it counts the routers that are quiet and the endpoints
    at rest before the cycle's ticks, so a test can show the fast
    paths were there to be taken.
    """

    def __init__(self, force):
        self.force = force
        self.quiet = self.at_rest = 0

    def __call__(self, engine):
        for component in engine.components:
            if isinstance(component, MetroRouter):
                self.quiet += component._quiet
                if self.force:
                    component._quiet = False
            elif isinstance(component, Endpoint):
                self.at_rest += component._at_rest()
                if self.force:
                    component._rx_silent = _NEVER


class _Captures(Component):
    """Observer: every router's boundary registers, after every cycle."""

    name = "captures"

    def __init__(self, routers):
        self.routers = list(routers)
        self.cycles = []

    def tick(self, cycle):
        # repr: a STATUS word compares by identity.
        self.cycles.append(
            (cycle, [repr(r.boundary_capture) for r in self.routers])
        )


def _instrument(engine, routers, force):
    hook = _Hook(force)
    captures = _Captures(routers)
    engine.add_pre_cycle_hook(hook)
    engine.add_observer(captures)
    return hook, captures


def _router_events(hub):
    return [
        (span.begin, span.track, span.name, span.args)
        for span in hub.spans.completed
        if span.cat == "router"
    ]


def _plan(dp):
    """Figure 1's network (16 endpoints, three stages) with ``dp``
    pipeline stages in every router."""
    four = RouterParameters(i=4, o=4, w=4, max_d=2, hw=0, dp=dp)
    return NetworkPlan(
        n_endpoints=16,
        endpoint_out_ports=2,
        endpoint_in_ports=2,
        stages=[
            StageSpec(four, dilation=2),
            StageSpec(four, dilation=2),
            StageSpec(four, dilation=1),
        ],
    )


def _network(backend, dp, link_delay, fast_reclaim, seed, **endpoint_kwargs):
    hub = TelemetryHub(sample_period=0)
    network = build_network(
        _plan(dp), seed=seed, link_delay=link_delay,
        fast_reclaim=fast_reclaim, endpoint_kwargs=endpoint_kwargs,
        telemetry=hub, backend=backend,
    )
    UniformRandomTraffic(
        n_endpoints=network.plan.n_endpoints, w=network.codec.w,
        rate=0.02, message_words=6, seed=seed + 1,
    ).attach(network)
    return network, hub


def _check_hook(hook, endpoints=True):
    """An unforced run must have had fast paths to take."""
    if not hook.force:
        assert hook.quiet, "no router was ever quiet"
        assert hook.at_rest or not endpoints, "no endpoint was ever at rest"


def _facts(network, hub, hook, captures):
    _check_hook(hook)
    return {
        "messages": message_fingerprint(network.log),
        "boundary registers": captures.cycles,
        "router events": _router_events(hub),
    }


#: (router pipeline stages, wire delay, fast reclamation): Figure 3's
#: one-cycle wires and routers, and a plan where both are three cycles
#: long (whole-pipe comparison is conservative there, and a closing
#: connection drains for more than one tick).
SHAPES = [(1, 1, True), (3, 3, False)]


def traffic_facts(backend, force, shape):
    """Light random traffic with a router that dies and comes back."""
    dp, link_delay, fast_reclaim = shape
    network, hub = _network(backend, dp, link_delay, fast_reclaim, seed=7)
    injector = FaultInjector(network)
    dead = DeadRouter(1, 0, 1)
    injector.at(150, dead)
    injector.revert_at(420, dead)
    hook, captures = _instrument(network.engine, network.all_routers(), force)
    for _ in range(3):
        network.run(300)
    return _facts(network, hub, hook, captures)


def managed_facts(backend, force):
    """A self-healing soak, snapshotted while a repair is due: the
    manager's isolation tests (forced teardowns, scan drives out of
    disabled ports) run on the restored network before its first
    tick."""
    network, hub = _network(
        backend, 1, 1, True, seed=23,
        verify_stage_checksums=True, max_attempts=60,
    )
    injector = FaultInjector(network)
    injector.at(100, DeadRouter(1, 1, 0))
    for fault in random_transient_scenario(
        network, n_flaky_links=1, mtbf=300, mttr=150, seed=23, start=100
    ):
        injector.transient(fault)
    manager = FaultManager(network, rate_window=200)
    hook, captures = _instrument(network.engine, network.all_routers(), force)
    for _ in range(40):
        network.run(100)
        if manager.due:
            break
    assert manager.due, "the soak never made a repair due"
    blob = pickle.dumps(
        snapshot_network(network, extras={"manager": manager, "hub": hub,
                                          "hook": hook, "captures": captures})
    )
    restored = restore_network(pickle.loads(blob))
    extras = restored.extras
    assert extras["manager"].service(), "no repair was performed"
    restored.network.run(400)
    return _facts(
        restored.network, extras["hub"], extras["hook"], extras["captures"]
    )


def cascade_facts(backend, force):
    """Three routers cascaded on one random bus, each fed the same
    words (one header in six corrupted on the last slice, so the
    group's IN-USE check tears connections down from outside the
    ticks)."""
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
        ends = []
        for port in range(4):
            channel = engine.add_channel(Channel(name="f{}.{}".format(index, port)))
            router.attach_forward(port, channel.b)
            ends.append(channel.a)
        for port in range(4):
            channel = engine.add_channel(Channel(name="b{}.{}".format(index, port)))
            router.attach_backward(port, channel.a)
        members.append(router)
        inputs.append(ends)
    group = CascadeGroup(members)
    engine.add_component(group)
    hook, captures = _instrument(engine, members, force)
    rng = random.Random(3)
    for _ in range(60):
        port = rng.randrange(4)
        stream = [rng.randrange(16) for _ in range(4)]
        corrupt = rng.random() < 1 / 6
        for position, value in enumerate(stream):
            for index, ends in enumerate(inputs):
                if position == 0 and corrupt and index == 2:
                    value ^= 0b1000
                ends[port].send(W.data(value))
            engine.step()
        for ends in inputs:
            ends[port].send(W.DROP_WORD)
        engine.run(rng.randrange(2, 12))
    _check_hook(hook, endpoints=False)
    return {
        "boundary registers": captures.cycles,
        "router events": _router_events(hub),
        "IN-USE mismatches": group.mismatches,
    }


def _assert_same(forced, normal):
    for name in forced:
        # Not ``assert forced[name] == normal[name]``: a failure would
        # diff thousands of records.
        same = forced[name] == normal[name]
        assert same, "{} differ under forced full ticks".format(name)


@pytest.mark.parametrize("backend", sorted(BACKENDS))
@pytest.mark.parametrize("shape", SHAPES)
def test_full_ticks_change_nothing_under_traffic(backend, shape):
    _assert_same(
        traffic_facts(backend, True, shape), traffic_facts(backend, False, shape)
    )


@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_full_ticks_change_nothing_on_a_restored_managed_network(backend):
    _assert_same(managed_facts(backend, True), managed_facts(backend, False))


@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_full_ticks_change_nothing_on_a_cascade(backend):
    _assert_same(cascade_facts(backend, True), cascade_facts(backend, False))


def test_a_tick_never_enters_tick_again():
    """An endpoint at rest makes at most one source call and a call
    that yields a message finishes the tick in ``_generate``, never through
    ``tick``: a profiler that wraps ``tick`` on the instance
    (``bench/trace.py``) must count one call per component per cycle."""
    network, _ = _network("reference", 1, 1, True, seed=7)
    calls = collections.Counter()
    for component in network.engine.components:
        def counted(cycle, inner=component.tick, component=component):
            calls[component] += 1
            inner(cycle)

        component.tick = counted
    network.run(300)
    assert network.log.messages
    assert set(calls.values()) == {300}


def test_the_full_tick_test_catches_a_router_quiet_while_draining():
    """Seeded router bug (``docs/testing.md``, the mutation table):
    ``_quiet`` is set while a closed connection still drains, so the
    quiet router stops flushing it and its DROP never leaves."""
    with seeded("router-quiet-ignores-draining"):
        with pytest.raises(AssertionError):
            test_full_ticks_change_nothing_under_traffic("reference", SHAPES[1])


def test_the_full_tick_test_catches_an_endpoint_idle_mid_reply():
    """Seeded endpoint bug: the receive phases leave the idle test, so
    a destination whose receive pipes fall silent while it replies
    stops replying and its sender times out."""
    with seeded("endpoint-idle-ignores-reply-phase"):
        with pytest.raises(AssertionError):
            test_full_ticks_change_nothing_under_traffic("reference", SHAPES[0])
