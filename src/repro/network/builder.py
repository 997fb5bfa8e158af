"""Assemble a runnable METRO network from a plan.

:func:`build_network` turns a :class:`~repro.network.topology.NetworkPlan`
into live simulation objects: routers (configured with the right
dilation, swallow bits and turn delays), channels (with per-stage
pipeline depth), endpoints, and an engine clocking them all.  The
result is a :class:`MetroNetwork` — the main entry point of the whole
library.
"""

import random

from repro.core.crossbar import RANDOM
from repro.core.parameters import RouterConfig
from repro.core.random_source import RandomStream
from repro.core.router import MetroRouter
from repro.endpoint.interface import Endpoint
from repro.endpoint.messages import MessageLog
from repro.network.headers import HeaderCodec
from repro.network.multibutterfly import wire
from repro.sim.backends import make_engine
from repro.sim.channel import Channel


class MetroNetwork:
    """A fully wired METRO network ready to simulate.

    Attributes of interest:

    * ``engine`` — the simulation engine (``network.run(n)`` forwards).
    * ``routers`` — ``routers[stage][index]``, stage-major.
    * ``router_grid`` — ``{(stage, block, idx): router}``.
    * ``endpoints`` — list of :class:`~repro.endpoint.interface.Endpoint`.
    * ``channels`` — ``{(src_key, dst_key): Channel}`` for fault injection.
    * ``log`` — the shared message log.
    * ``codec`` — the header codec endpoints encode with.
    * ``telemetry`` — the bound TelemetryHub, or None.
    """

    #: Overridden per-instance by :meth:`TelemetryHub.bind` (which the
    #: builder's ``telemetry=`` argument calls).
    telemetry = None

    def __init__(self, plan, engine, routers, router_grid, endpoints, channels, log, codec, links):
        self.plan = plan
        self.engine = engine
        self.routers = routers
        self.router_grid = router_grid
        self.endpoints = endpoints
        self.channels = channels
        self.log = log
        self.codec = codec
        self.links = links

    def run(self, cycles):
        self.engine.run(cycles)

    def run_until_quiet(self, max_cycles=100000, settle=4):
        """Run until every endpoint is idle and every router quiescent.

        ``settle`` extra cycles drain channel pipelines after the last
        component goes idle.  Returns True if quiet within the budget.
        ``max_cycles=0`` is a pure check: it reports quiescence without
        advancing the clock at all (no settle cycles either).
        """

        def quiet(engine):
            # Dead routers are frozen mid-state; they hold no live
            # resources and cannot become quiescent, so skip them.
            return all(ep.idle() for ep in self.endpoints) and all(
                router.is_quiescent()
                for stage in self.routers
                for router in stage
                if not router.dead
            )

        ok = self.engine.run_until(quiet, max_cycles)
        if ok and max_cycles > 0:
            self.engine.run(settle)
        return ok

    def send(self, src, message):
        """Submit ``message`` at endpoint ``src``; returns the message."""
        return self.endpoints[src].submit(message)

    def request(self, src, dest, payload, max_cycles=30000):
        """Synchronous request/reply: send, run until done, return reply.

        The remote-read convenience: submits the message, runs the
        simulation until the network drains, and returns the reply
        payload (the destination handler's words, without the trailing
        reply checksum).  Raises on non-delivery.
        """
        from repro.endpoint.messages import DELIVERED, Message

        message = self.send(src, Message(dest=dest, payload=payload))
        if not self.run_until_quiet(max_cycles=max_cycles):
            raise RuntimeError("network did not drain within the budget")
        if message.outcome != DELIVERED:
            raise RuntimeError(
                "request failed: {} after {} attempts ({})".format(
                    message.outcome, message.attempts, message.failure_causes
                )
            )
        reply = message.reply_payload
        return reply[:-1] if len(reply) > 0 else reply

    def all_routers(self):
        for stage in self.routers:
            for router in stage:
                yield router


def build_network(
    plan,
    seed=0,
    randomize_wiring=True,
    link_delay=1,
    fast_reclaim=False,
    selection_policy=RANDOM,
    signal_timeout=64,
    endpoint_kwargs=None,
    telemetry=None,
    backend="reference",
):
    """Instantiate every component of a METRO network.

    :param plan: validated :class:`~repro.network.topology.NetworkPlan`.
    :param seed: master seed; wiring, router selection randomness and
        endpoint behaviour all derive from it reproducibly.
    :param randomize_wiring: random multibutterfly vs. deterministic
        butterfly-style wiring.
    :param link_delay: pipeline stages per wire (uniform ``vtd``); may
        also be a callable ``f(link) -> int`` for non-uniform wiring
        (Section 5.1, Variable Turn Delay).
    :param fast_reclaim: enable fast path reclamation on every forward
        port (the per-port knob remains adjustable afterwards).
    :param selection_policy: backward-port selection policy for all
        routers (ablations may pass first-free / round-robin).
    :param signal_timeout: router dead-signal watchdog, in cycles.
    :param endpoint_kwargs: extra keyword arguments forwarded to every
        :class:`~repro.endpoint.interface.Endpoint`.
    :param telemetry: an unbound
        :class:`~repro.telemetry.TelemetryHub`; it is bound to the
        finished network (engine observer + per-component hooks).
        Omitted, every component carries the null-telemetry fast path.
    :param backend: simulation engine backend — ``"reference"`` (the
        dense two-phase sweep) or ``"events"`` (the same sweep minus
        silent wires, of :mod:`repro.sim.backends`; identical
        results).
    """
    rng = random.Random(seed)
    engine = make_engine(backend)
    log = MessageLog()
    endpoint_kwargs = dict(endpoint_kwargs or {})

    first_params = plan.stages[0].params
    hw = first_params.hw
    w = first_params.w
    for stage in plan.stages:
        if stage.params.w != w or stage.params.hw != hw:
            raise ValueError("all stages must share w and hw for one header codec")

    codec = HeaderCodec(w=w, hw=hw, stage_radices=plan.stage_radices())
    swallow_flags = codec.swallow_flags()

    # ------------------------------------------------------------- routers
    routers = []
    router_grid = {}
    for s, stage in enumerate(plan.stages):
        stage_routers = []
        for block in range(plan.blocks_per_stage[s]):
            for index in range(plan.routers_per_block[s]):
                name = "r{}.{}.{}".format(s, block, index)
                config = RouterConfig(stage.params, dilation=stage.dilation)
                if swallow_flags[s]:
                    config.swallow = [True] * stage.params.i
                if fast_reclaim:
                    for port in range(stage.params.i):
                        config.fast_reclaim[config.forward_port_id(port)] = True
                router = MetroRouter(
                    stage.params,
                    name=name,
                    config=config,
                    random_stream=RandomStream(rng.getrandbits(32)),
                    selection_policy=selection_policy,
                    signal_timeout=signal_timeout,
                )
                engine.add_component(router)
                stage_routers.append(router)
                router_grid[(s, block, index)] = router
        routers.append(stage_routers)

    # ----------------------------------------------------------- endpoints
    endpoints = []
    for e in range(plan.n_endpoints):
        endpoint = Endpoint(
            index=e,
            codec=codec,
            log=log,
            n_stages=plan.n_stages,
            seed=rng.getrandbits(24),
            **endpoint_kwargs
        )
        engine.add_component(endpoint)
        endpoints.append(endpoint)

    # ------------------------------------------------------------- wiring
    links = wire(plan, rng=random.Random(rng.getrandbits(32)), randomize=randomize_wiring)
    channels = {}
    for link in links:
        delay = link_delay(link) if callable(link_delay) else link_delay
        name = "{}->{}".format(link.src, link.dst)
        channel = Channel(delay=delay, name=name)
        engine.add_channel(channel)
        channels[(link.src.key(), link.dst.key())] = channel
        _attach(router_grid, endpoints, link.src, channel.a, is_source=True, delay=delay)
        _attach(router_grid, endpoints, link.dst, channel.b, is_source=False, delay=delay)

    network = MetroNetwork(
        plan, engine, routers, router_grid, endpoints, channels, log, codec, links
    )
    if telemetry is not None:
        telemetry.bind(network)
    return network


def _attach(router_grid, endpoints, ref, channel_end, is_source, delay):
    if ref.kind == "endpoint":
        endpoint = endpoints[ref.index]
        if is_source:
            endpoint.attach_source(channel_end)
        else:
            endpoint.attach_receive(channel_end)
        return
    router = router_grid[(ref.stage, ref.block, ref.index)]
    if is_source:
        router.attach_backward(ref.port, channel_end)
        port_id = router.config.backward_port_id(ref.port)
    else:
        router.attach_forward(ref.port, channel_end)
        port_id = router.config.forward_port_id(ref.port)
    # Record the physical wire's pipeline depth in the Table 2 turn
    # delay register (bounded by the architectural max_vtd).
    router.config.set_turn_delay(port_id, min(delay, router.params.max_vtd))
