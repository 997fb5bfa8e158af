"""Graph analysis: the structural claims of Figure 1."""

import random

import pytest

from repro.network import analysis
from repro.network.multibutterfly import wire
from repro.network.topology import figure1_plan, figure3_plan

from tests.mutants import seeded


@pytest.fixture(scope="module")
def fig1():
    plan = figure1_plan()
    links = wire(plan, rng=random.Random(1))
    graph = analysis.build_graph(plan, links)
    return plan, links, graph


class TestPathCounting:
    def test_paths_exist_between_all_pairs(self, fig1):
        plan, _links, graph = fig1
        for src in range(16):
            for dest in range(16):
                assert analysis.count_paths(plan, graph, src, dest) > 0

    def test_figure1_multiplicity(self, fig1):
        """Dilation 2 at two stages and two ports per endpoint side give
        2 (src ports) x 2 x 2 (dilation choices) = 8 distinct routes,
        each ending at one of the endpoint's two input wires."""
        plan, _links, graph = fig1
        count = analysis.count_paths(plan, graph, 5, 15)  # endpoints 6->16
        assert count == 8

    def test_multiplicity_uniform_across_pairs(self, fig1):
        plan, _links, graph = fig1
        assert analysis.min_route_diversity(plan, graph) == 8
        matrix = analysis.path_multiplicity_matrix(plan, graph)
        assert all(value == 8 for row in matrix for value in row)

    def test_route_subgraph_excludes_wrong_directions(self, fig1):
        plan, _links, graph = fig1
        sub = analysis.route_subgraph(plan, graph, dest=0)
        # Every surviving router wire must match dest 0's digits (all 0).
        assert {direction for _u, _v, direction, _port in sub} == {None, 0}

    def test_the_direction_test_catches_a_route_subgraph_that_ignores_the_dilation_group(
        self, fig1
    ):
        """Seeded analysis bug (``docs/testing.md``, the mutation table)."""
        with seeded("analysis-ignores-dilation-group"):
            with pytest.raises(AssertionError):
                self.test_route_subgraph_excludes_wrong_directions(fig1)


class TestFaultTolerance:
    def test_final_stage_router_loss_tolerated(self, fig1):
        """Figure 1: 'the final stage uses dilation-1 METRO routers
        [allowing] the network ... to tolerate the complete loss of any
        router in the final stage without isolating any endpoints'."""
        plan, _links, graph = fig1
        assert analysis.tolerates_any_single_router_loss(plan, graph, stage=2)

    def test_earlier_stage_router_loss_tolerated(self, fig1):
        plan, _links, graph = fig1
        assert analysis.tolerates_any_single_router_loss(plan, graph, stage=0)
        assert analysis.tolerates_any_single_router_loss(plan, graph, stage=1)

    def test_single_link_loss_tolerated(self, fig1):
        plan, _links, graph = fig1
        # Removing any one inter-router wire never isolates a pair.
        router_edges = [
            (u, v, port)
            for u, v, _direction, port in graph
            if u[0] == "r" and v[0] == "r"
        ]
        sample = router_edges[:: max(1, len(router_edges) // 12)]
        for edge in sample:
            broken = analysis.isolated_pairs_after_loss(
                plan, graph, removed_edges=[edge]
            )
            assert broken == []

    def test_losing_both_endpoint_inputs_isolates(self, fig1):
        plan, _links, graph = fig1
        # Cutting both wires into endpoint 3 must isolate it as a dest.
        into_three = [wire for wire in graph if wire[1] == ("dst", 3)]
        assert len(into_three) == 2
        broken = analysis.isolated_pairs_after_loss(
            plan, graph, removed_edges=into_three
        )
        assert {pair[1] for pair in broken} == {3}
        assert len(broken) == 16  # every source lost endpoint 3


class TestFigure3Graph:
    def test_figure3_route_diversity(self):
        plan = figure3_plan()
        links = wire(plan, rng=random.Random(2))
        graph = analysis.build_graph(plan, links)
        # 2 source ports x dilation 2 x dilation 2 x dilation 1 = 8.
        assert analysis.count_paths(plan, graph, 0, 63) == 8


class TestPathCountFormula:
    def test_count_matches_closed_form(self, fig1):
        """For uniform multibutterflies the legal-route count has a
        closed form: out_ports x prod(dilations)."""
        plan, _links, graph = fig1
        expected = plan.endpoint_out_ports
        for stage in plan.stages:
            expected *= stage.dilation
        assert analysis.count_paths(plan, graph, 2, 11) == expected

    def test_formula_on_figure3(self):
        import math

        plan = figure3_plan()
        links = wire(plan, rng=random.Random(5))
        graph = analysis.build_graph(plan, links)
        expected = plan.endpoint_out_ports * math.prod(
            s.dilation for s in plan.stages
        )
        assert analysis.count_paths(plan, graph, 7, 42) == expected
