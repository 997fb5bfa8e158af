"""The route analysis against a reference that needs no graph at all.

:func:`legal_routes` walks the link list itself, depth first, and
lists every route the self-routing rule allows: a connection to
``dest`` leaves a stage-``s`` router only through the dilation group
of ``dest``'s stage-``s`` digit (read off
``NetworkPlan.destination_block``), and ends at ``dest``.
``repro.network.analysis`` must count the same routes and find the
same survivors after any removal.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.network import analysis
from repro.network.fattree import fattree_plan
from repro.network.multibutterfly import wire
from repro.network.topology import figure1_plan, figure3_plan

from tests.mutants import seeded
from tests.test_random_plans import plans


def legal_routes(plan, links, src, dest, dead=(), cut=()):
    """Every legal route from endpoint ``src`` to endpoint ``dest``, as
    tuples of link indices, avoiding the ``dead`` routers (``(stage,
    block, index)``) and the ``cut`` link indices."""
    leaving = {}
    for i, link in enumerate(links):
        leaving.setdefault(link.src.router_key(), []).append(i)
    routes = []

    def walk(node, path):
        for i in leaving.get(node, ()):
            link = links[i]
            if i in cut:
                continue
            if link.src.kind == "router":
                stage = plan.stages[link.src.stage]
                digit = plan.destination_block(link.src.stage + 1, dest) % stage.radix
                if link.src.port // stage.dilation != digit:
                    continue
            if link.dst.kind == "endpoint":
                if link.dst.index == dest:
                    routes.append(path + (i,))
            elif link.dst.router_key()[1:] not in dead:
                walk(link.dst.router_key(), path + (i,))

    walk(("endpoint", None, None, src), ())
    return routes


def _assert_counts(plan, links, pairs):
    graph = analysis.build_graph(plan, links)
    for src, dest in pairs:
        expected = len(legal_routes(plan, links, src, dest))
        assert analysis.count_paths(plan, graph, src, dest) == expected, (src, dest)


def _sampled_pairs(n, count, rng):
    return [(rng.randrange(n), rng.randrange(n)) for _ in range(count)]


def test_every_figure1_pair_counts_the_reference_routes():
    plan = figure1_plan()
    _assert_counts(plan, wire(plan, rng=random.Random(1)),
                   [(s, d) for s in range(16) for d in range(16)])


@pytest.mark.parametrize("plan", [
    figure3_plan(),
    fattree_plan(n_endpoints=16, up_stages=1),
    fattree_plan(n_endpoints=64, up_stages=2),
], ids=["figure3", "fattree16", "fattree64"])
def test_sampled_pairs_count_the_reference_routes(plan):
    rng = random.Random(plan.n_endpoints)
    links = wire(plan, rng=rng)
    _assert_counts(plan, links, _sampled_pairs(plan.n_endpoints, 48, rng))


@given(plans(), st.integers(min_value=0, max_value=2**31))
@settings(max_examples=25, deadline=None)
def test_random_plans_count_the_reference_routes(plan, seed):
    if plan is None:
        return
    rng = random.Random(seed)
    links = wire(plan, rng=rng)
    _assert_counts(plan, links, _sampled_pairs(plan.n_endpoints, 24, rng))


def _miswired_figure1():
    """Figure 1 with two wires of one stage-0 router swapped between its
    two direction groups: each lands in the other's stage-1 block."""
    plan = figure1_plan()
    links = wire(plan, rng=random.Random(1))
    first, second = (
        link for link in links
        if link.src.kind == "router"
        and link.src.router_key() == ("router", 0, 0, 0)
        and link.src.port in (0, 3)
    )
    first.dst, second.dst = second.dst, first.dst
    return plan, links


def test_a_miswired_network_counts_the_reference_routes():
    """Some pairs lose routes here, and the analysis must agree."""
    plan, links = _miswired_figure1()
    pairs = [(s, d) for s in range(16) for d in range(16)]
    assert any(len(legal_routes(plan, links, s, d)) < 8 for s, d in pairs)
    _assert_counts(plan, links, pairs)


def test_the_reference_catches_a_route_subgraph_that_ignores_the_dilation_group():
    """Seeded analysis bug (``docs/testing.md``, the mutation table)."""
    with seeded("analysis-ignores-dilation-group"):
        with pytest.raises(AssertionError):
            test_a_miswired_network_counts_the_reference_routes()


@pytest.mark.parametrize("make_plan, seed, dests", [
    (figure1_plan, 1, range(16)),
    (figure3_plan, 2, range(0, 64, 9)),
], ids=["figure1", "figure3"])
def test_random_removals_leave_the_reference_survivors(make_plan, seed, dests):
    """Random dead wires and routers, many of the sets isolating pairs:
    ``reachable_with_removed`` and ``isolated_pairs_after_loss`` name
    exactly the sources the reference still finds a route from."""
    plan = make_plan()
    links = wire(plan, rng=random.Random(seed))
    graph = analysis.build_graph(plan, links)
    routers = sorted({link.src.router_key()[1:] for link in links
                      if link.src.kind == "router"})
    n = plan.n_endpoints
    rng = random.Random(seed + 100)
    isolating = 0
    for trial in range(12):
        cut = set(rng.sample(range(len(links)), rng.randint(4, len(links) // 5)))
        dead = set(rng.sample(routers, trial % 3))
        removed_nodes = [("r",) + router for router in dead]
        removed_edges = analysis.build_graph(plan, [links[i] for i in cut])
        expected_isolated = []
        for dest in dests:
            expected = {src for src in range(n)
                        if legal_routes(plan, links, src, dest, dead, cut)}
            assert analysis.reachable_with_removed(
                plan, graph, dest, removed_nodes, removed_edges
            ) == expected
            expected_isolated += [(src, dest) for src in range(n) if src not in expected]
        isolating += bool(expected_isolated)
        if not dead:
            isolated = analysis.isolated_pairs_after_loss(plan, graph, removed_edges)
            assert [pair for pair in isolated if pair[1] in dests] == sorted(expected_isolated)
    assert isolating >= 6  # the sets do cut pairs off, not only routes
