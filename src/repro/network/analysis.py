"""Graph analysis of METRO networks: path multiplicity, fault tolerance.

The paper's Figure 1 caption makes two structural claims about the
16x16 network: there are *many* paths between each pair of endpoints,
and the dilation-1 final stage lets the network "tolerate the complete
loss of any router in the final stage without isolating any
endpoints".  This module verifies such claims on any
:class:`~repro.network.topology.NetworkPlan` plus wiring, by passes
over the wire list; it needs no graph library.

Because METRO networks are *self-routing*, not every graph path is a
legal route: at stage ``s`` a connection to destination ``dest`` may
only leave through the dilation group of digit ``s`` of ``dest``.  All
functions here therefore work on the *destination-filtered* wires.
A plan only wires stage ``s`` to stage ``s + 1``, so one pass over
the wires in stage order, last stage first, counts every route.
"""


def build_graph(plan, links):
    """The full network as a list of wires, in stage order.

    A wire is ``(u, v, direction, src_port)``.  Nodes are
    ``("src", e)`` / ``("dst", e)`` endpoint sides and
    ``("r", stage, block, index)`` routers; ``direction`` is the
    producing port's direction group (None for endpoint-originated
    wires) and ``src_port`` the producing port, so ``(u, v, src_port)``
    names one wire even where dilated wiring runs two parallel wires
    between the same pair of routers, each an independent path.
    """
    wires = []
    for link in links:
        src, dst = link.src, link.dst
        if src.kind == "endpoint":
            u, direction = ("src", src.index), None
        else:
            u = ("r", src.stage, src.block, src.index)
            direction = src.port // plan.stages[src.stage].dilation
        if dst.kind == "endpoint":
            v = ("dst", dst.index)
        else:
            v = ("r", dst.stage, dst.block, dst.index)
        wires.append((u, v, direction, src.port))
    wires.sort(key=lambda wire: -1 if wire[0][0] == "src" else wire[0][1])
    return wires


def route_subgraph(plan, graph, dest):
    """Only the wires a connection to ``dest`` may legally use."""
    digits = _digits(plan, dest)
    return [
        (u, v, direction, port)
        for u, v, direction, port in graph
        if (v[0] != "dst" or v[1] == dest)
        and (direction is None or direction == digits[u[1]])
    ]


def _digits(plan, dest):
    digits = []
    remainder = dest
    for radix in reversed([s.radix for s in plan.stages]):
        digits.append(remainder % radix)
        remainder //= radix
    digits.reverse()
    return digits


def _routes_to(wires, dest, dead=(), cut=()):
    """``{node: number of routes from node to dest}`` over ``wires``
    (destination-filtered, in stage order), skipping the ``dead``
    nodes and the ``cut`` wires, named as :func:`reachable_with_removed`
    takes them.  Only nodes with at least one route appear."""
    counts = {("dst", dest): 1}
    for wire in reversed(wires):
        u, v, _direction, port = wire
        here = counts.get(v)
        if (here and u not in dead and wire not in cut
                and (u, v) not in cut and (u, v, port) not in cut):
            counts[u] = counts.get(u, 0) + here
    return counts


def count_paths(plan, graph, src, dest):
    """Number of distinct legal routes from ``src`` to ``dest``.

    Dynamic programming over the (acyclic) destination-filtered
    wires — exact even when the count is large.
    """
    return _routes_to(route_subgraph(plan, graph, dest), dest).get(("src", src), 0)


def path_multiplicity_matrix(plan, graph):
    """``matrix[src][dest]`` legal-route counts for every pair."""
    n = plan.n_endpoints
    columns = [_routes_to(route_subgraph(plan, graph, dest), dest) for dest in range(n)]
    return [[column.get(("src", src), 0) for column in columns] for src in range(n)]


def reachable_with_removed(plan, graph, dest, removed_nodes=(), removed_edges=()):
    """The sources that still reach ``dest`` after removals, as a set.

    ``removed_nodes`` are router nodes ``("r", stage, block, index)``;
    ``removed_edges`` name a single wire, either as :func:`build_graph`
    lists it or as its ``(u, v, src_port)`` triple, or are ``(u, v)``
    pairs removing every parallel wire.
    """
    dead = set(removed_nodes)
    if ("dst", dest) in dead:
        return set()
    wires = route_subgraph(plan, graph, dest)
    counts = _routes_to(wires, dest, dead, set(removed_edges))
    return {node[1] for node in counts if node[0] == "src"}


def tolerates_any_single_router_loss(plan, graph, stage):
    """Figure 1's claim, checked exhaustively for one stage.

    True iff removing any single stage-``stage`` router leaves every
    (src, dest) pair connected.
    """
    routers = {u for u, _v, _direction, _port in graph if u[0] == "r" and u[1] == stage}
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
