"""Fat-tree-style networks from METRO routers.

The paper (Section 2) notes that fat-trees [17][14] are "another class
of multistage, multipath networks which can be built using METRO
routing components".  This module builds the randomized-routing form:
a connection first climbs ``up_stages`` of routers configured at
*maximal dilation* — radix 1, so every output is equivalent and the
router picks one uniformly at random, exactly Greenberg & Leiserson's
randomized fat-tree routing — and then descends through ordinary
destination-subdividing stages.

In METRO terms an up stage is nothing special: a router whose
configured dilation equals its port count has a single logical
direction, consumes zero routing bits, and spreads load randomly.
That one observation lets the standard multibutterfly builder
(:mod:`repro.network.builder`) assemble and operate fat-trees with no
new mechanism; this constructor just picks the stage specs.

We build the full-bandwidth (non-tapered) variant in which every
connection climbs to the top: stage widths stay constant, so the
result is plan-compatible.  Tapered capacity variants differ only in
wire counts, not in routing behaviour.
"""

import math

from repro.core.parameters import RouterParameters
from repro.network.topology import NetworkPlan, StageSpec


def fattree_plan(
    n_endpoints=16,
    up_stages=1,
    router_ports=4,
    w=8,
    down_dilation=2,
):
    """A randomized-routing fat-tree plan (two wires per endpoint in
    each direction, as in Figures 1 and 3).

    :param n_endpoints: leaves of the tree (power of the down radix).
    :param up_stages: stages of radix-1 random climbing.
    :param router_ports: ``i = o`` of every router used.
    :param w: datapath width.
    :param down_dilation: dilation of the descending stages (the final
        stage is always dilation-1 so endpoints keep multiple inputs).
    """
    up_params = RouterParameters(
        i=router_ports, o=router_ports, w=w, max_d=router_ports, hw=0, dp=1
    )
    down_params = RouterParameters(
        i=router_ports, o=router_ports, w=w, max_d=max(2, down_dilation), hw=0, dp=1
    )
    down_radix = router_ports // down_dilation
    final_radix = router_ports  # dilation-1 final stage

    remaining = n_endpoints // final_radix
    if remaining * final_radix != n_endpoints:
        raise ValueError(
            "n_endpoints {} not divisible by final radix {}".format(
                n_endpoints, final_radix
            )
        )
    if remaining < 1:
        raise ValueError("n_endpoints too small for one final stage")
    middle_stages = (
        int(math.log(remaining, down_radix)) if remaining > 1 else 0
    )
    if down_radix ** middle_stages != remaining:
        raise ValueError(
            "n_endpoints {} is not final_radix * down_radix**k".format(n_endpoints)
        )

    stages = [StageSpec(up_params, dilation=router_ports) for _ in range(up_stages)]
    stages.extend(
        StageSpec(down_params, dilation=down_dilation) for _ in range(middle_stages)
    )
    stages.append(StageSpec(down_params, dilation=1))
    return NetworkPlan(
        n_endpoints=n_endpoints,
        endpoint_out_ports=2,
        endpoint_in_ports=2,
        stages=stages,
    )
