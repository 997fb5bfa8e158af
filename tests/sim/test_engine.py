"""Engine ordering, two-phase update guarantees, and run guards."""

import pytest

from repro.core import words as W
from repro.sim.channel import Channel
from repro.sim.component import Component
from repro.sim.engine import Engine, EngineDeadlineError


class _Forwarder(Component):
    """Copies its input end to its output end every cycle."""

    def __init__(self, name, inp, out):
        self.name = name
        self.inp = inp
        self.out = out

    def tick(self, cycle):
        word = self.inp.recv()
        if word is not None:
            self.out.send(word)


class _Counter(Component):
    def __init__(self):
        self.name = "counter"
        self.ticks = []

    def tick(self, cycle):
        self.ticks.append(cycle)


def test_cycle_numbers_are_sequential():
    engine = Engine()
    counter = engine.add_component(_Counter())
    engine.run(5)
    assert counter.ticks == [0, 1, 2, 3, 4]
    assert engine.cycle == 5


def _pipeline_engine(order_reversed):
    """Two forwarders in a row; result must not depend on tick order."""
    engine = Engine()
    c1 = engine.add_channel(Channel(delay=1, name="c1"))
    c2 = engine.add_channel(Channel(delay=1, name="c2"))
    c3 = engine.add_channel(Channel(delay=1, name="c3"))
    f1 = _Forwarder("f1", c1.b, c2.a)
    f2 = _Forwarder("f2", c2.b, c3.a)
    if order_reversed:
        engine.add_component(f2)
        engine.add_component(f1)
    else:
        engine.add_component(f1)
        engine.add_component(f2)
    return engine, c1, c3


def _latency_through(engine, c_in, c_out):
    c_in.a.send(W.data(7))
    for cycle in range(1, 20):
        engine.step()
        if c_out.b.recv() == W.data(7):
            return cycle
    raise AssertionError("word never arrived")


def test_two_phase_update_is_order_independent():
    latencies = []
    for order_reversed in (False, True):
        engine, c_in, c_out = _pipeline_engine(order_reversed)
        latencies.append(_latency_through(engine, c_in, c_out))
    assert latencies[0] == latencies[1] == 3  # three delay-1 channels


def test_run_until_stops_early():
    engine = Engine()
    counter = engine.add_component(_Counter())
    fired = engine.run_until(lambda e: e.cycle >= 3, max_cycles=100)
    assert fired
    assert engine.cycle == 3
    assert len(counter.ticks) == 3


def test_run_until_budget_exhaustion():
    engine = Engine()
    fired = engine.run_until(lambda e: False, max_cycles=10)
    assert not fired
    assert engine.cycle == 10


def test_run_until_zero_budget_checks_without_stepping():
    engine = Engine()
    counter = engine.add_component(_Counter())
    # Predicate already true: reported, zero cycles consumed.
    assert engine.run_until(lambda e: True, max_cycles=0)
    # Predicate false: reported false, still zero cycles consumed.
    assert not engine.run_until(lambda e: False, max_cycles=0)
    assert engine.cycle == 0
    assert counter.ticks == []


def test_run_until_rejects_negative_budget():
    with pytest.raises(ValueError):
        Engine().run_until(lambda e: True, max_cycles=-1)


def test_run_zero_cycles_is_a_no_op():
    engine = Engine()
    counter = engine.add_component(_Counter())
    engine.run(0)
    assert engine.cycle == 0
    assert counter.ticks == []


def test_stop_ends_run_early():
    engine = Engine()

    class _Stopper(Component):
        name = "stopper"

        def tick(self, cycle):
            if cycle == 3:
                engine.stop()

    engine.add_component(_Stopper())
    engine.run(100)
    assert engine.cycle == 4  # the stopping cycle completes, then we halt


def test_stop_request_does_not_leak_into_next_run():
    engine = Engine()

    class _StopOnce(Component):
        name = "stop-once"

        def tick(self, cycle):
            if cycle == 1:
                engine.stop()

    engine.add_component(_StopOnce())
    engine.run(10)
    assert engine.cycle == 2
    engine.run(10)  # a fresh run is unaffected by the consumed stop
    assert engine.cycle == 12


def test_stop_ends_run_until_early():
    engine = Engine()

    class _Stopper(Component):
        name = "stopper"

        def tick(self, cycle):
            if cycle == 2:
                engine.stop()

    engine.add_component(_Stopper())
    fired = engine.run_until(lambda e: False, max_cycles=1000)
    assert not fired
    assert engine.cycle == 3


def test_deadline_raises_with_clear_error():
    engine = Engine()
    engine.add_component(_Counter())
    engine.set_deadline(5)
    with pytest.raises(EngineDeadlineError, match="deadline of 5"):
        engine.run(100)
    assert engine.cycle == 5  # stepped up to, never past, the deadline


def test_deadline_guards_run_until_livelock():
    engine = Engine()
    engine.set_deadline(7)
    with pytest.raises(EngineDeadlineError):
        engine.run_until(lambda e: False, max_cycles=10**9)
    assert engine.cycle == 7


def test_deadline_clear_and_validation():
    engine = Engine()
    engine.run(4)
    with pytest.raises(ValueError):
        engine.set_deadline(3)  # already in the past
    engine.set_deadline(6)
    engine.clear_deadline()
    engine.run(10)  # no deadline left to trip
    assert engine.cycle == 14


def test_network_quiet_check_with_zero_budget_does_not_advance():
    from repro.network.builder import build_network
    from repro.network.topology import figure1_plan

    network = build_network(figure1_plan(), seed=1)
    before = network.engine.cycle
    assert network.run_until_quiet(max_cycles=0)  # idle network is quiet
    assert network.engine.cycle == before  # pure check: no settle cycles


def test_experiment_deadline_cycles_guard():
    from repro.endpoint.traffic import UniformRandomTraffic
    from repro.harness.experiment import run_experiment
    from repro.network.builder import build_network
    from repro.network.topology import figure1_plan

    network = build_network(figure1_plan(), seed=1, fast_reclaim=True)
    traffic = UniformRandomTraffic(
        n_endpoints=network.plan.n_endpoints,
        w=network.codec.w,
        rate=0.05,
        message_words=6,
        seed=2,
    )
    network.engine.set_deadline(50)  # far too tight: the guard must fire
    with pytest.raises(EngineDeadlineError):
        run_experiment(network, traffic, warmup_cycles=200, measure_cycles=600)


def test_pre_cycle_hooks_run_before_ticks():
    engine = Engine()
    seen = []

    class _Probe(Component):
        name = "probe"

        def tick(self, cycle):
            seen.append(("tick", cycle))

    engine.add_component(_Probe())
    engine.add_pre_cycle_hook(lambda e: seen.append(("hook", e.cycle)))
    engine.run(2)
    assert seen == [("hook", 0), ("tick", 0), ("hook", 1), ("tick", 1)]
