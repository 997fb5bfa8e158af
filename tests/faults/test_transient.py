"""Transient (duty-cycled) faults: scheduling, revert timing, pickling."""

import pickle

import pytest

from repro.faults.injector import (
    FaultInjector,
    random_transient_scenario,
    router_to_router_channels,
)
from repro.faults.model import FlakyLink, FlakyRouter, TransientFault
from repro.network.builder import build_network
from repro.network.topology import figure1_plan


def _network(seed=31):
    return build_network(figure1_plan(), seed=seed)


def _wire(network, index=0):
    return router_to_router_channels(network)[index]


class TestDutyCycle:
    def test_schedule_is_a_pure_function_of_the_seed(self):
        events = []
        for _attempt in range(2):
            network = _network()
            src, dst = _wire(network)
            fault = FlakyLink(src_key=src, dst_key=dst, mtbf=80, mttr=40, seed=9)
            injector = FaultInjector(network)
            injector.transient(fault)
            network.run(2000)
            events.append(
                [(e.cycle, e.action) for e in injector.applied]
            )
        assert events[0] == events[1]
        assert events[0]  # 2000 cycles >> mtbf: transitions happened

    def test_apply_and_revert_alternate(self):
        network = _network()
        src, dst = _wire(network)
        fault = FlakyLink(src_key=src, dst_key=dst, mtbf=60, mttr=30, seed=2)
        injector = FaultInjector(network)
        injector.transient(fault)
        network.run(3000)
        actions = [e.action for e in injector.applied]
        assert actions[0] == "apply"
        assert all(
            a != b for a, b in zip(actions, actions[1:])
        ), "apply/revert must strictly alternate"

    def test_revert_timing_restores_the_channel(self):
        """The wire is dead exactly between an apply and its revert."""
        network = _network()
        src, dst = _wire(network)
        channel = network.channels[(src, dst)]
        fault = FlakyLink(src_key=src, dst_key=dst, mtbf=50, mttr=25, seed=4)
        injector = FaultInjector(network)
        injector.transient(fault)
        assert not channel.dead
        # Step cycle by cycle and check the channel tracks the recorded
        # transitions: dead from each apply until the matching revert.
        for _ in range(400):
            network.run(1)
            down = False
            for event in injector.applied:
                down = event.action == "apply"
            assert channel.dead == down
        assert len(injector.applied) >= 2

    def test_start_delays_the_first_failure(self):
        network = _network()
        src, dst = _wire(network)
        fault = FlakyLink(
            src_key=src, dst_key=dst, mtbf=5, mttr=5, seed=1, start=500
        )
        injector = FaultInjector(network)
        injector.transient(fault)
        network.run(499)
        assert injector.applied == []
        network.run(600)
        assert injector.applied
        assert injector.applied[0].cycle >= 500

    def test_flaky_router_toggles_dead_flag(self):
        network = _network()
        fault = FlakyRouter(1, 0, 0, mtbf=40, mttr=40, seed=3)
        router = network.router_grid[(1, 0, 0)]
        injector = FaultInjector(network)
        injector.transient(fault)
        network.run(1000)
        actions = {e.action for e in injector.applied}
        assert actions == {"apply", "revert"}
        assert router.dead == (injector.applied[-1].action == "apply")

    def test_parameters_validated(self):
        with pytest.raises(ValueError):
            TransientFault(mtbf=0, mttr=10)
        with pytest.raises(ValueError):
            TransientFault(mtbf=10, mttr=0)
        with pytest.raises(TypeError):
            FlakyLink(mtbf=10, mttr=10)  # needs the wire's keys


class TestPickling:
    def test_flaky_link_round_trips(self):
        network = _network()
        src, dst = _wire(network)
        fault = FlakyLink(src_key=src, dst_key=dst, mtbf=70, mttr=35, seed=8)
        # Use it (resolves the channel + draws from the RNG)...
        injector = FaultInjector(network)
        injector.transient(fault)
        network.run(500)
        # ...then pickle: the live channel and RNG must not ride along.
        clone = pickle.loads(pickle.dumps(fault))
        assert clone.channel is None
        assert clone.src_key == src and clone.dst_key == dst
        assert (clone.mtbf, clone.mttr, clone.seed) == (70, 35, 8)

    def test_flaky_router_round_trips(self):
        fault = FlakyRouter(1, 0, 2, mtbf=50, mttr=25, seed=5)
        clone = pickle.loads(pickle.dumps(fault))
        assert (clone.stage, clone.block, clone.index) == (1, 0, 2)
        assert (clone.mtbf, clone.mttr, clone.seed) == (50, 25, 5)


class TestRandomTransientScenario:
    def test_reproducible(self):
        network = _network()
        first = random_transient_scenario(
            network, n_flaky_links=3, n_flaky_routers=2, seed=12
        )
        second = random_transient_scenario(
            network, n_flaky_links=3, n_flaky_routers=2, seed=12
        )
        assert [f.describe() for f in first] == [f.describe() for f in second]
        assert [f.seed for f in first] == [f.seed for f in second]

    def test_router_pool_excludes_edge_stages(self):
        network = _network()
        faults = random_transient_scenario(
            network, n_flaky_routers=50, seed=3
        )
        last = network.plan.n_stages - 1
        stages = {f.stage for f in faults}
        assert 0 not in stages
        assert last not in stages

    def test_per_fault_seeds_differ(self):
        network = _network()
        faults = random_transient_scenario(network, n_flaky_links=4, seed=7)
        seeds = [f.seed for f in faults]
        assert len(set(seeds)) == len(seeds)
