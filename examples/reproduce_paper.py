"""One-shot reproduction: regenerate every paper result in miniature.

Runs a reduced-size version of every table and figure — small enough
to finish in a few minutes — and prints them in paper order.  The
full-resolution versions live in ``benchmarks/`` (run with
``pytest benchmarks/ --benchmark-only``).

Run:  python examples/reproduce_paper.py
"""

import random
import time

from repro.harness.fault_sweep import fault_degradation_sweep
from repro.harness.breakdown import measure_breakdown
from repro.harness.load_sweep import figure3_network, figure3_sweep
from repro.harness.reporting import (
    ascii_chart,
    format_series,
    format_table,
    results_to_series,
)
from repro.latency_model.contemporaries import table5_contemporaries
from repro.latency_model.implementations import table3_implementations
from repro.network import analysis
from repro.network.multibutterfly import wire
from repro.network.topology import figure1_plan


def banner(text):
    print("\n" + "=" * 72)
    print(text)
    print("=" * 72)


def main():
    started = time.time()

    banner("Table 3: METRO implementation examples (analytical, exact)")
    print(format_table([impl.row() for impl in table3_implementations()]))

    banner("Table 5: contemporary routing technologies (estimates)")
    print(
        format_table(
            [c.row() for c in table5_contemporaries()],
            columns=["router", "latency", "t_bit",
                     "t_20_32_estimate_ns", "t_20_32_paper_ns"],
            floatfmt="{:.0f}",
        )
    )

    banner("Figure 1: 16x16 multipath network (structure)")
    plan = figure1_plan()
    links = wire(plan, rng=random.Random(1))
    graph = analysis.build_graph(plan, links)
    print("routers per stage:", [plan.routers_in_stage(s) for s in range(3)])
    print("paths endpoint 6 -> 16:", analysis.count_paths(plan, graph, 5, 15))
    print("min route diversity:", analysis.min_route_diversity(plan, graph))
    print("survives any final-stage router loss:",
          analysis.tolerates_any_single_router_loss(plan, graph, 2))

    banner("Figure 3: latency vs. network loading (reduced sweep)")
    base = measure_breakdown(figure3_network, samples=6, seed=3).total
    print("unloaded latency: {:.1f} cycles (paper: 28, see EXPERIMENTS.md)".format(base))
    results = figure3_sweep(
        rates=(0.005, 0.02, 0.08, 0.32), seed=3,
        warmup_cycles=400, measure_cycles=1500,
    )
    print(format_series(
        results_to_series(results),
        x_label="label",
        y_labels=["delivered_load", "mean_latency", "p95_latency", "mean_attempts"],
    ))
    print(ascii_chart(
        [(r.delivered_load, r.mean_latency) for r in results],
        title="mean latency vs delivered load",
        x_label="delivered load", y_label="cycles",
    ))

    banner("Section 6.2: robust degradation under faults (reduced)")
    fault_results = fault_degradation_sweep(
        fault_levels=((0, 0), (8, 0), (8, 4)),
        rate=0.02, seed=5, warmup_cycles=400, measure_cycles=1500,
    )
    print(format_series(
        results_to_series(fault_results),
        x_label="label",
        y_labels=["delivered", "mean_latency", "mean_attempts", "abandoned"],
    ))

    print("\nDone in {:.0f}s.  Full-size versions: "
          "pytest benchmarks/ --benchmark-only".format(time.time() - started))


if __name__ == "__main__":
    main()
