"""Retry backoff: the uniform draw, and the endpoint's attempt budget."""

import random

import pytest

from repro.endpoint.retry import (
    RetryPolicy,
    UniformBackoff,
)

from tests.mutants import seeded


class _Message:
    def __init__(self, dest=0, attempts=1):
        self.dest = dest
        self.attempts = attempts


class TestUniformBackoff:
    def test_matches_randint_draw_exactly(self):
        """The default policy reproduces the historical rng.randint(lo, hi)
        draw stream — golden traces depend on it."""
        policy = UniformBackoff(0, 3)
        a, b = random.Random(42), random.Random(42)
        for attempt in range(50):
            assert policy.delay(a, _Message(attempts=attempt)) == b.randint(0, 3)

    def test_bounds(self):
        policy = UniformBackoff(2, 5)
        rng = random.Random(7)
        draws = {policy.delay(rng, _Message()) for _ in range(200)}
        assert draws == {2, 3, 4, 5}

    def test_the_bounds_test_catches_a_draw_that_never_reaches_hi(self):
        """Seeded endpoint bug (``docs/testing.md``, the mutation table):
        the wait is drawn from ``lo..hi-1``, so 5 never comes."""
        with seeded("endpoint-backoff-never-max"):
            with pytest.raises(AssertionError):
                self.test_bounds()


class TestEndpointIntegration:
    def _network(self, **endpoint_kwargs):
        from repro.network.builder import build_network
        from repro.network.topology import figure1_plan

        return build_network(
            figure1_plan(), seed=17, endpoint_kwargs=endpoint_kwargs
        )

    def test_each_endpoint_gets_its_own_policy_clone(self):
        """``backoff=(lo, hi)`` reaches every endpoint as its own
        UniformBackoff object, never one shared across sources."""
        network = self._network(backoff=(1, 5))
        policies = {id(e.retry_policy) for e in network.endpoints}
        assert len(policies) == len(network.endpoints)
        assert all(
            (e.retry_policy.lo, e.retry_policy.hi) == (1, 5)
            for e in network.endpoints
        )

    def test_default_policy_is_uniform_backoff(self):
        network = self._network()
        assert all(
            isinstance(e.retry_policy, UniformBackoff)
            for e in network.endpoints
        )

    def test_budget_exhaustion_surfaces_as_abandoned(self):
        """With an unreachable destination and a tiny budget, sends end
        ABANDONED (structural loss) instead of retrying forever."""
        from repro.endpoint import messages as M
        from repro.faults.injector import FaultInjector
        from repro.faults.model import DeadRouter

        network = self._network(max_attempts=3)
        injector = FaultInjector(network)
        # Kill the whole final stage: nothing is deliverable.
        last = network.plan.n_stages - 1
        for (stage, block, index) in list(network.router_grid):
            if stage == last:
                injector.at(0, DeadRouter(stage, block, index))
        endpoint = network.endpoints[0]
        endpoint.submit(M.Message(dest=1, payload=[1, 2, 3]))
        network.run(4000)
        outcomes = [m.outcome for m in network.log.messages]
        assert outcomes == [M.ABANDONED]
        assert network.log.messages[0].attempts == 3  # initial + 2 retries

    def test_describe_is_informative(self):
        assert "uniform" in UniformBackoff().describe()

    def test_base_policy_is_abstract(self):
        with pytest.raises(NotImplementedError):
            RetryPolicy().delay(random.Random(0), _Message())
