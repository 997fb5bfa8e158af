"""Network linter: consistency checks over a built network.

A METRO network has redundant descriptions of the same facts — the
plan, the codec, each router's Table 2 configuration, and the physical
channel graph.  :func:`validate_network` cross-checks them and returns
a list of human-readable problems (empty = consistent).  The builder
produces consistent networks by construction; the validator exists for
users who reconfigure networks by hand (or through scan) and want to
know the configuration still makes sense before running traffic.
"""


def validate_network(network):
    """Return a list of problem strings for ``network``."""
    problems = []
    problems.extend(_check_attachment(network))
    problems.extend(_check_dilation(network))
    problems.extend(_check_swallow(network))
    problems.extend(_check_turn_delays(network))
    problems.extend(_check_reachability(network))
    return problems


def _check_attachment(network):
    problems = []
    for router in network.all_routers():
        for port, end in enumerate(router.forward_ends):
            if end is None:
                problems.append(
                    "{}: forward port {} unattached".format(router.name, port)
                )
        for port, end in enumerate(router.backward_ends):
            if end is None:
                problems.append(
                    "{}: backward port {} unattached".format(router.name, port)
                )
    for endpoint in network.endpoints:
        if len(endpoint.source_ends) != network.plan.endpoint_out_ports:
            problems.append(
                "{}: {} source ports attached, plan says {}".format(
                    endpoint.name,
                    len(endpoint.source_ends),
                    network.plan.endpoint_out_ports,
                )
            )
        if len(endpoint.receive_ends) != network.plan.endpoint_in_ports:
            problems.append(
                "{}: {} receive ports attached, plan says {}".format(
                    endpoint.name,
                    len(endpoint.receive_ends),
                    network.plan.endpoint_in_ports,
                )
            )
    return problems


def _check_dilation(network):
    problems = []
    for (stage, _block, _index), router in network.router_grid.items():
        want = network.plan.stages[stage].dilation
        if router.config.dilation != want:
            problems.append(
                "{}: dilation {} but stage {} plans {}".format(
                    router.name, router.config.dilation, stage, want
                )
            )
    return problems


def _check_swallow(network):
    problems = []
    flags = network.codec.swallow_flags()
    for (stage, _block, _index), router in network.router_grid.items():
        if router.params.hw != 0:
            continue
        for port in range(router.params.i):
            if router.config.swallow[port] != flags[stage]:
                problems.append(
                    "{}: forward port {} swallow={} but codec wants {} at "
                    "stage {}".format(
                        router.name,
                        port,
                        router.config.swallow[port],
                        flags[stage],
                        stage,
                    )
                )
    return problems


def _check_turn_delays(network):
    problems = []
    for (src_key, dst_key), channel in network.channels.items():
        for key, is_source in ((src_key, True), (dst_key, False)):
            if key[0] != "router":
                continue
            _, stage, block, index, port = key
            router = network.router_grid[(stage, block, index)]
            if is_source:
                port_id = router.config.backward_port_id(port)
            else:
                port_id = router.config.forward_port_id(port)
            want = min(channel.delay, router.params.max_vtd)
            have = router.config.turn_delay[port_id]
            if have != want:
                problems.append(
                    "{}: port id {} turn delay {} but wire {} is {} deep".format(
                        router.name, port_id, have, channel.name, channel.delay
                    )
                )
    return problems


def _check_reachability(network):
    """Every destination must keep at least one enabled route.

    Uses the destination-filtered wires restricted to *enabled* ports;
    a too-aggressive masking session can silently isolate an endpoint,
    which is exactly what an operator wants the linter to say.
    """
    from repro.network import analysis

    plan = network.plan
    graph = analysis.build_graph(plan, network.links)
    disabled = [link for link in network.links if _link_disabled(network, link)]
    removed = analysis.build_graph(plan, disabled)
    isolated = analysis.isolated_pairs_after_loss(plan, graph, removed)
    return [
        "no enabled route from endpoint {} to endpoint {}".format(src, dest)
        for src, dest in sorted(isolated, key=lambda pair: (pair[1], pair[0]))
    ]


def _link_disabled(network, link):
    """True when the port that drives or receives ``link`` is disabled."""
    for ref, backward in ((link.src, True), (link.dst, False)):
        if ref.kind != "router":
            continue
        router = network.router_grid[(ref.stage, ref.block, ref.index)]
        if backward:
            port_id = router.config.backward_port_id(ref.port)
        else:
            port_id = router.config.forward_port_id(ref.port)
        if not router.config.port_enabled[port_id]:
            return True
    return False
