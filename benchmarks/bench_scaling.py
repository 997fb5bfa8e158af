"""Scaling: latency grows logarithmically with machine size.

Not a numbered figure, but the premise of the paper's Section 2
latency argument: a multistage network reaches N endpoints through
O(log N) routing components, so unloaded latency grows by one
``t_stg`` per added stage while serialization stays constant.  This
bench measures unloaded and lightly-loaded latency for 16-, 64- and
256-endpoint radix-4-style multibutterflies built from the same
router, plus the analytical prediction.
"""

from repro.core.parameters import RouterParameters
from repro.endpoint.traffic import UniformRandomTraffic
from repro.harness.breakdown import measure_breakdown
from repro.harness.experiment import run_experiment
from repro.harness.reporting import format_table
from repro.network.builder import build_network
from repro.network.topology import NetworkPlan, StageSpec, figure3_plan


def plan_16():
    """Figure 1's structure at w=8 so all sizes share the word size."""
    four = RouterParameters(i=4, o=4, w=8, max_d=2)
    return NetworkPlan(
        16, 2, 2, [StageSpec(four, 2), StageSpec(four, 2), StageSpec(four, 1)]
    )


def plan_256():
    """4 stages of radix-4: 8x8 dilation-2 x3 + 4x4 dilation-1."""
    eight = RouterParameters(i=8, o=8, w=8, max_d=2)
    four = RouterParameters(i=4, o=4, w=8, max_d=2)
    return NetworkPlan(
        256,
        2,
        2,
        [StageSpec(eight, 2), StageSpec(eight, 2), StageSpec(eight, 2),
         StageSpec(four, 1)],
    )


def _measure(plan, name, seed):
    factory = lambda seed=seed: build_network(plan, seed=seed, fast_reclaim=True)
    base = measure_breakdown(factory, samples=8, seed=seed).total
    network = factory()
    traffic = UniformRandomTraffic(
        n_endpoints=plan.n_endpoints,
        w=plan.stages[0].params.w,
        rate=0.01,
        message_words=20,
        seed=seed + 1,
    )
    loaded = run_experiment(
        network, traffic, warmup_cycles=400, measure_cycles=1500, label=name
    )
    return {
        "network": name,
        "endpoints": plan.n_endpoints,
        "stages": plan.n_stages,
        "routers": plan.total_routers(),
        "unloaded_latency": base,
        "light_load_latency": loaded.mean_latency,
    }


def _experiment():
    return [
        _measure(plan_16(), "16 endpoints (Figure 1 shape, w=8)", seed=31),
        _measure(figure3_plan(), "64 endpoints (Figure 3)", seed=32),
        _measure(plan_256(), "256 endpoints", seed=33),
    ]


def test_scaling(benchmark, report):
    rows = benchmark.pedantic(_experiment, rounds=1, iterations=1)
    report(
        format_table(
            rows,
            title="Latency scaling with machine size (same router family)",
        ),
        name="scaling",
    )
    small, medium, large = rows
    # One extra stage from 64 -> 256 endpoints: unloaded latency grows
    # by roughly one stage transit (2 cycles here), NOT by 4x.
    delta = large["unloaded_latency"] - medium["unloaded_latency"]
    assert 0 < delta <= 8
    # Log scaling: 16x the endpoints (16 -> 256) costs only one to two
    # stage transits of extra latency.
    assert large["unloaded_latency"] < small["unloaded_latency"] * 1.5