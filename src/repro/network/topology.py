"""Multistage network topology arithmetic.

A multibutterfly-style network (paper, Section 2, *Network
Organization*) recursively subdivides the destination set: stage ``s``
splits every destination *block* into ``r_s`` sub-blocks, so after the
final stage each block is one network endpoint.  Dilation ``d_s > 1``
gives each logical direction ``d_s`` equivalent wires, creating the
multiple independent paths that provide bandwidth and fault tolerance.

:class:`StageSpec` describes the routers used at one stage (their
architectural parameters plus the configured dilation);
:class:`NetworkPlan` checks that a sequence of stages wires up
consistently and precomputes all the counts the builder needs.
"""

from repro.core.parameters import RouterParameters


class StageSpec:
    """Routers used at one network stage.

    :param params: the routers' :class:`RouterParameters`.
    :param dilation: configured dilation at this stage (power of two
        <= ``params.max_d``); the logical radix follows as ``o / d``.
    """

    def __init__(self, params, dilation):
        self.params = params
        self.dilation = dilation
        self.radix = params.radix(dilation)  # validates dilation too

    def __repr__(self):
        return "<StageSpec {}x{} r={} d={}>".format(
            self.params.i, self.params.o, self.radix, self.dilation
        )


class NetworkPlan:
    """A validated plan for a multibutterfly-style network.

    :param n_endpoints: number of network endpoints.
    :param endpoint_out_ports: wires each endpoint drives into stage 0.
    :param endpoint_in_ports: wires each endpoint receives from the
        final stage (derived quantities must agree with this).
    :param stages: list of :class:`StageSpec`, first stage first.

    Invariants checked at construction time:

    * the product of stage radices equals ``n_endpoints`` (each leaf
      block is exactly one endpoint);
    * at every stage the block's incoming wires divide evenly among
      routers (``wires_per_block % i == 0``);
    * the wires emerging from the final stage give each endpoint
      exactly ``endpoint_in_ports`` inputs.
    """

    def __init__(self, n_endpoints, endpoint_out_ports, endpoint_in_ports, stages):
        if n_endpoints < 1:
            raise ValueError("need at least one endpoint")
        if not stages:
            raise ValueError("need at least one stage")
        self.n_endpoints = n_endpoints
        self.endpoint_out_ports = endpoint_out_ports
        self.endpoint_in_ports = endpoint_in_ports
        self.stages = list(stages)

        radix_product = 1
        for stage in self.stages:
            radix_product *= stage.radix
        if radix_product != n_endpoints:
            raise ValueError(
                "stage radices multiply to {} but there are {} endpoints".format(
                    radix_product, n_endpoints
                )
            )

        #: Per-stage derived counts, filled by the walk below.
        self.blocks_per_stage = []
        self.routers_per_block = []
        self.wires_in_per_stage = []

        wires = n_endpoints * endpoint_out_ports
        blocks = 1
        for index, stage in enumerate(self.stages):
            per_block = wires // blocks
            if wires % blocks:
                raise ValueError(
                    "stage {}: {} wires do not divide into {} blocks".format(
                        index, wires, blocks
                    )
                )
            if per_block % stage.params.i:
                raise ValueError(
                    "stage {}: {} wires per block do not fill {}-input routers".format(
                        index, per_block, stage.params.i
                    )
                )
            routers = per_block // stage.params.i
            self.blocks_per_stage.append(blocks)
            self.routers_per_block.append(routers)
            self.wires_in_per_stage.append(wires)
            # Each router contributes d wires to each of its r logical
            # directions; a direction's wires feed one sub-block.
            wires = blocks * stage.radix * routers * stage.dilation
            blocks *= stage.radix

        if wires % n_endpoints:
            raise ValueError(
                "final stage emits {} wires, not a multiple of {} endpoints".format(
                    wires, n_endpoints
                )
            )
        derived_in = wires // n_endpoints
        if derived_in != endpoint_in_ports:
            raise ValueError(
                "topology delivers {} wires per endpoint, expected {}".format(
                    derived_in, endpoint_in_ports
                )
            )

    @property
    def n_stages(self):
        return len(self.stages)

    def routers_in_stage(self, stage_index):
        """Total routers at the given stage."""
        return (
            self.blocks_per_stage[stage_index] * self.routers_per_block[stage_index]
        )

    def total_routers(self):
        return sum(self.routers_in_stage(s) for s in range(self.n_stages))

    def stage_radices(self):
        return [stage.radix for stage in self.stages]

    def destination_block(self, stage_index, dest):
        """Which stage-``stage_index`` block serves destination ``dest``.

        Block indices refine left-to-right: a stage-``s`` block splits
        into sub-blocks ``b * r_s + g`` for direction ``g``.
        """
        block = 0
        remainder = dest
        divisor = self.n_endpoints
        for s in range(stage_index):
            radix = self.stages[s].radix
            divisor //= radix
            digit = remainder // divisor
            remainder -= digit * divisor
            block = block * radix + digit
        return block

    def __repr__(self):
        return "<NetworkPlan {} endpoints, {} stages, {} routers>".format(
            self.n_endpoints, self.n_stages, self.total_routers()
        )


def multibutterfly_plan(
    n_endpoints,
    router_ports=8,
    w=8,
    dilation=2,
    hw=0,
    dp=1,
):
    """A Figure-1-style multipath plan for any power-of-two size.

    Early stages use ``router_ports`` x ``router_ports`` routers at the
    given dilation; the final stage uses dilation-1 routers and each
    endpoint has two wires in each direction — the construction of
    Figure 1 and Figure 3, generalized.

    :raises ValueError: when ``n_endpoints`` cannot be reached with a
        whole number of stages of this radix.
    """
    if n_endpoints & (n_endpoints - 1):
        raise ValueError("n_endpoints must be a power of two")
    early = RouterParameters(
        i=router_ports, o=router_ports, w=w, max_d=max(2, dilation), hw=hw, dp=dp
    )
    early_radix = early.radix(dilation)
    if early_radix < 2:
        raise ValueError(
            "radix {} stages cannot subdivide destinations; use more "
            "router ports or less dilation".format(early_radix)
        )
    final_ports = router_ports // dilation  # final radix == early radix
    final = RouterParameters(
        i=final_ports, o=final_ports, w=w, max_d=min(2, final_ports), hw=hw, dp=dp
    )
    final_radix = final.radix(1)
    remaining = n_endpoints // final_radix
    if remaining * final_radix != n_endpoints:
        raise ValueError(
            "final radix {} does not divide {} endpoints".format(
                final_radix, n_endpoints
            )
        )
    early_stages = 0
    while remaining > 1:
        if remaining % early_radix:
            raise ValueError(
                "{} endpoints unreachable with radix-{} stages and a "
                "radix-{} final stage".format(n_endpoints, early_radix, final_radix)
            )
        remaining //= early_radix
        early_stages += 1
    stages = [StageSpec(early, dilation) for _ in range(early_stages)]
    stages.append(StageSpec(final, 1))
    return NetworkPlan(
        n_endpoints=n_endpoints,
        endpoint_out_ports=2,
        endpoint_in_ports=2,
        stages=stages,
    )


def table3_32node_plan(two_stage=False, w=4, hw=0, dp=1):
    """The 32-node example machine behind Table 3's ``t_20,32`` column.

    Four-stage form (the METROJR rows): three radix-2 dilation-2 stages
    of 4x4 parts plus a radix-4 dilation-1 final stage.  Two-stage form
    (the METRO i=o=8 rows): a radix-4 dilation-2 stage of 8x8 parts
    into a radix-8 dilation-1 stage.
    """
    if two_stage:
        eight = RouterParameters(i=8, o=8, w=max(w, 3), max_d=2, hw=hw, dp=dp)
        return NetworkPlan(
            32,
            2,
            2,
            [StageSpec(eight, 2), StageSpec(eight, 1)],
        )
    four = RouterParameters(i=4, o=4, w=w, max_d=2, hw=hw, dp=dp)
    return NetworkPlan(
        32,
        2,
        2,
        [StageSpec(four, 2), StageSpec(four, 2), StageSpec(four, 2),
         StageSpec(four, 1)],
    )


def figure1_plan():
    """The paper's Figure 1: a 16x16 multipath network.

    Built from 4x2 (inputs x radix) dilation-2 routers in the first two
    stages and 4x4 dilation-1 routers in the final stage; each of the
    16 endpoints has two inputs and two outputs.
    """
    four_by_four = RouterParameters(i=4, o=4, w=4, max_d=2, hw=0, dp=1)
    return NetworkPlan(
        n_endpoints=16,
        endpoint_out_ports=2,
        endpoint_in_ports=2,
        stages=[
            StageSpec(four_by_four, dilation=2),
            StageSpec(four_by_four, dilation=2),
            StageSpec(four_by_four, dilation=1),
        ],
    )


def figure3_plan(w=8):
    """The paper's Figure 3 network: 3 stages of radix-4 routers.

    64 endpoints, 8-bit-wide datapaths, the first two stages in
    dilation-2 mode (8x8 routers, radix 4) and the last stage in
    dilation-1 mode (4x4 routers, radix 4); each endpoint has two
    connections entering and leaving the network.
    """
    eight_port = RouterParameters(i=8, o=8, w=w, max_d=2, hw=0, dp=1)
    four_port = RouterParameters(i=4, o=4, w=w, max_d=2, hw=0, dp=1)
    return NetworkPlan(
        n_endpoints=64,
        endpoint_out_ports=2,
        endpoint_in_ports=2,
        stages=[
            StageSpec(eight_port, dilation=2),
            StageSpec(eight_port, dilation=2),
            StageSpec(four_port, dilation=1),
        ],
    )
