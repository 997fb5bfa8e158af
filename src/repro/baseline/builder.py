"""Assemble a wormhole packet-switched network from a METRO plan.

Reuses the exact same topology machinery as the circuit-switched
builder — same :class:`~repro.network.topology.NetworkPlan`, same
multibutterfly wiring, same channels — so a comparison between the two
switching disciplines holds the network constant and varies only the
routers and endpoints.
"""

import random

from repro.baseline.wormhole import (
    WormholeRouter,
    WormholeSink,
    WormholeSource,
)
from repro.network.headers import HeaderCodec
from repro.network.multibutterfly import wire
from repro.sim.channel import Channel
from repro.sim.engine import Engine


class WormholeNetwork:
    """A wired wormhole network with delivery bookkeeping."""

    def __init__(self, plan, engine, routers, router_grid, sources, sinks, codec):
        self.plan = plan
        self.engine = engine
        self.routers = routers
        self.router_grid = router_grid
        self.sources = sources
        self.sinks = sinks
        self.codec = codec
        self.delivered = []
        self.checksum_failures = 0

    def run(self, cycles):
        self.engine.run(cycles)

    def send(self, src, dest, payload):
        return self.sources[src].submit(dest, payload, cycle=self.engine.cycle)

    def run_until_quiet(self, max_cycles=100000, settle=4):
        def quiet(engine):
            return all(source.idle() for source in self.sources) and all(
                router.is_quiescent()
                for stage in self.routers
                for router in stage
            )

        ok = self.engine.run_until(quiet, max_cycles)
        if ok:
            self.engine.run(settle)
        return ok

    def _on_delivery(self, packet_id, payload, ok, cycle):
        source = self.sources[packet_id[0]]
        packet = source.by_id.get(packet_id)
        if packet is not None:
            packet.done_cycle = cycle
            packet.checksum_ok = ok
            self.delivered.append(packet)
        if not ok:
            self.checksum_failures += 1

    def latencies(self):
        return [p.total_latency for p in self.delivered]

    def mean_latency(self):
        values = self.latencies()
        return sum(values) / len(values) if values else float("nan")


def build_wormhole_network(plan, seed=0, buffer_depth=4, store_and_forward=False):
    """Instantiate wormhole (or store-and-forward) routers + endpoints
    over a METRO plan, randomly wired with one-cycle links."""
    rng = random.Random(seed)
    engine = Engine()
    w = plan.stages[0].params.w
    codec = HeaderCodec(w=w, hw=1, stage_radices=plan.stage_radices())

    routers = []
    router_grid = {}
    for s, stage in enumerate(plan.stages):
        stage_routers = []
        for block in range(plan.blocks_per_stage[s]):
            for index in range(plan.routers_per_block[s]):
                router = WormholeRouter(
                    i=stage.params.i,
                    o=stage.params.o,
                    dilation=stage.dilation,
                    buffer_depth=buffer_depth,
                    seed=rng.getrandbits(32),
                    name="w{}.{}.{}".format(s, block, index),
                    store_and_forward=store_and_forward,
                )
                engine.add_component(router)
                stage_routers.append(router)
                router_grid[(s, block, index)] = router
        routers.append(stage_routers)

    network = None  # forward reference for the delivery closure

    sources = []
    sinks = []
    for e in range(plan.n_endpoints):
        source = WormholeSource(e, digits_of=codec.digits,
                                buffer_depth=buffer_depth)
        sink = WormholeSink(
            e, on_delivery=lambda *args: network._on_delivery(*args)
        )
        engine.add_component(source)
        engine.add_component(sink)
        sources.append(source)
        sinks.append(sink)

    links = wire(plan, rng=random.Random(rng.getrandbits(32)))
    for link in links:
        channel = Channel(delay=1, name="{}->{}".format(link.src, link.dst))
        engine.add_channel(channel)
        _attach(router_grid, sources, sinks, link.src, channel.a, True)
        _attach(router_grid, sources, sinks, link.dst, channel.b, False)

    network = WormholeNetwork(
        plan, engine, routers, router_grid, sources, sinks, codec
    )
    return network


def _attach(router_grid, sources, sinks, ref, end, is_source):
    if ref.kind == "endpoint":
        if is_source:
            sources[ref.index].attach_source(end)
        else:
            sinks[ref.index].attach_receive(end)
        return
    router = router_grid[(ref.stage, ref.block, ref.index)]
    if is_source:
        router.attach_backward(ref.port, end)
    else:
        router.attach_forward(ref.port, end)
