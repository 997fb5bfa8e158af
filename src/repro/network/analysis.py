"""Graph analysis of METRO networks: path multiplicity, fault tolerance.

The paper's Figure 1 caption makes two structural claims about the
16x16 network: there are *many* paths between each pair of endpoints,
and the dilation-1 final stage lets the network "tolerate the complete
loss of any router in the final stage without isolating any
endpoints".  This module verifies such claims on any
:class:`~repro.network.topology.NetworkPlan` plus wiring, using
networkx for the graph plumbing.

Because METRO networks are *self-routing*, not every graph path is a
legal route: at stage ``s`` a connection to destination ``dest`` may
only leave through the dilation group of digit ``s`` of ``dest``.  All
functions here therefore work on the *destination-filtered* subgraph.
"""

import networkx as nx


def build_graph(plan, links):
    """The full network as a directed multigraph.

    Nodes: ``("src", e)`` / ``("dst", e)`` endpoint sides and
    ``("r", stage, block, index)`` routers.  Edges carry the producing
    port's direction group as attribute ``direction`` (None for
    endpoint-originated edges).  A multigraph is essential: dilated
    wiring frequently runs two parallel wires between the same pair of
    routers, and each is an independent path.
    """
    graph = nx.MultiDiGraph()
    for link in links:
        src = _node(link.src, is_source=True)
        dst = _node(link.dst, is_source=False)
        direction = None
        if link.src.kind == "router":
            stage = plan.stages[link.src.stage]
            direction = link.src.port // stage.dilation
        graph.add_edge(src, dst, direction=direction, src_port=link.src.port)
    return graph


def _node(ref, is_source):
    if ref.kind == "endpoint":
        return ("src" if is_source else "dst", ref.index)
    return ("r", ref.stage, ref.block, ref.index)


def route_subgraph(plan, graph, dest):
    """Only the edges a connection to ``dest`` may legally use."""
    digits = _digits(plan, dest)
    keep = []
    for u, v, key, attrs in graph.edges(keys=True, data=True):
        if v[0] == "dst" and v[1] != dest:
            continue
        if attrs["direction"] is not None:
            stage = u[1]
            if attrs["direction"] != digits[stage]:
                continue
        keep.append((u, v, key))
    return graph.edge_subgraph(keep).copy()


def _digits(plan, dest):
    digits = []
    remainder = dest
    for radix in reversed([s.radix for s in plan.stages]):
        digits.append(remainder % radix)
        remainder //= radix
    digits.reverse()
    return digits


def count_paths(plan, graph, src, dest):
    """Number of distinct legal routes from ``src`` to ``dest``.

    Dynamic programming over the (acyclic) destination-filtered
    subgraph — exact even when the count is large.
    """
    sub = route_subgraph(plan, graph, dest)
    source, sink = ("src", src), ("dst", dest)
    if source not in sub or sink not in sub:
        return 0
    counts = {source: 1}
    for node in nx.topological_sort(sub):
        here = counts.get(node)
        if here is None:
            continue
        for successor in sub.successors(node):
            multiplicity = sub.number_of_edges(node, successor)
            counts[successor] = counts.get(successor, 0) + here * multiplicity
    return counts.get(sink, 0)


def path_multiplicity_matrix(plan, graph):
    """``matrix[src][dest]`` legal-route counts for every pair."""
    n = plan.n_endpoints
    return [
        [count_paths(plan, graph, src, dest) for dest in range(n)]
        for src in range(n)
    ]


def reachable_with_removed(plan, graph, dest, removed_nodes=(), removed_edges=()):
    """The sources that still reach ``dest`` after removals, as a set.

    ``removed_nodes`` are router nodes ``("r", stage, block, index)``;
    ``removed_edges`` are ``(u, v, key)`` triples identifying a single
    wire, or ``(u, v)`` pairs removing every parallel wire.  The
    destination-filtered subgraph is pruned once and every source is
    read off the sink's ancestors.
    """
    sub = route_subgraph(plan, graph, dest)
    sub.remove_nodes_from([n for n in removed_nodes if n in sub])
    for edge in removed_edges:
        if len(edge) == 3:
            if sub.has_edge(*edge):
                sub.remove_edge(*edge)
        else:
            u, v = edge
            while sub.has_edge(u, v):
                sub.remove_edge(u, v)
    sink = ("dst", dest)
    if sink not in sub:
        return set()
    return {node[1] for node in nx.ancestors(sub, sink) if node[0] == "src"}


def tolerates_any_single_router_loss(plan, graph, stage):
    """Figure 1's claim, checked exhaustively for one stage.

    True iff removing any single stage-``stage`` router leaves every
    (src, dest) pair connected.
    """
    routers = [
        node for node in graph.nodes if node[0] == "r" and node[1] == stage
    ]
    for router in routers:
        for dest in range(plan.n_endpoints):
            reachable = reachable_with_removed(
                plan, graph, dest, removed_nodes=[router]
            )
            if len(reachable) < plan.n_endpoints:
                return False
    return True


def isolated_pairs_after_loss(plan, graph, removed_edges):
    """All (src, dest) pairs disconnected by removing ``removed_edges``."""
    reachable = [
        reachable_with_removed(plan, graph, dest, removed_edges=removed_edges)
        for dest in range(plan.n_endpoints)
    ]
    return [
        (src, dest)
        for src in range(plan.n_endpoints)
        for dest in range(plan.n_endpoints)
        if src not in reachable[dest]
    ]


def min_route_diversity(plan, graph):
    """The smallest legal-route count over all endpoint pairs."""
    matrix = path_multiplicity_matrix(plan, graph)
    return min(min(row) for row in matrix)
