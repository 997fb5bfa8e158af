"""A small Figure 3: latency versus offered load.

Sweeps the injection rate on the paper's 3-stage, 64-endpoint,
radix-4 network (dilation 2/2/1, 20-byte messages, processors stall
until completion) and prints the latency/load series.  Use the full
benchmark (benchmarks/bench_figure3_load_latency.py) for the
higher-resolution version.

Run:  python examples/load_latency_curve.py
"""

from repro.harness import (
    figure3_network,
    figure3_sweep,
    format_series,
    measure_breakdown,
    results_to_series,
)


def main():
    base = measure_breakdown(figure3_network, samples=8, seed=3).total
    print("Unloaded 20-byte message latency: {:.1f} cycles "
          "(paper reports 28 on its leaner close protocol)\n".format(base))

    results = figure3_sweep(
        rates=(0.002, 0.01, 0.04, 0.16),
        seed=3,
        warmup_cycles=600,
        measure_cycles=2500,
    )
    points = results_to_series(results)
    print(format_series(
        points,
        x_label="label",
        y_labels=["delivered_load", "mean_latency", "p95_latency", "mean_attempts"],
        title="Latency vs. network loading (Figure 3 regime)",
    ))
    print("\nShape check: latency flat at light load, rising toward "
          "saturation — delivered load tops out as the circuit-switched "
          "paths saturate.")


if __name__ == "__main__":
    main()
