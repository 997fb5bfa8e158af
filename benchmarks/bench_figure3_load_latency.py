"""Figure 3: effective latency versus network loading.

The paper's only simulation figure: randomly-addressed 20-byte
messages on a 3-stage, 64-endpoint, radix-4 multibutterfly (dilation
2/2/1, dual-ported endpoints using one input at a time, processors
stalling until completion).  This bench sweeps the injection rate and
prints the (delivered load, latency) series; assertions pin the
qualitative shape the paper shows — flat latency at light load rising
steeply toward saturation — and the unloaded latency regime.

The sweep runs through the shared parallel trial runner: set
``REPRO_BENCH_WORKERS`` to fan the rates across worker processes
(results are identical to serial for the same seed) and
``REPRO_BENCH_CACHE`` to a directory to reuse points across bench
invocations.
"""

import math
import os

from repro.harness.breakdown import measure_breakdown
from repro.harness.load_sweep import figure3_network, figure3_sweep
from repro.harness.parallel import TrialRunner
from repro.harness.reporting import format_series, format_table, results_to_series

# REPRO_BENCH_QUICK=1 (the CI smoke mode) shrinks the measured window;
# the qualitative-shape assertions are gated to the full run.
QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))

RATES = (0.002, 0.005, 0.01, 0.02, 0.04, 0.08, 0.16, 0.32)
WARMUP_CYCLES = 400 if QUICK else 800
MEASURE_CYCLES = 1200 if QUICK else 3500


def _sweep():
    base = measure_breakdown(figure3_network, samples=12, seed=3).total
    runner = TrialRunner(
        workers=int(os.environ.get("REPRO_BENCH_WORKERS", "1")),
        cache_dir=os.environ.get("REPRO_BENCH_CACHE"),
    )
    results = figure3_sweep(
        rates=RATES, seed=3, warmup_cycles=WARMUP_CYCLES,
        measure_cycles=MEASURE_CYCLES, runner=runner,
    )
    return base, results


def test_figure3_series(benchmark, report):
    base, results = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    points = results_to_series(results)
    table = format_series(
        points,
        x_label="label",
        y_labels=[
            "delivered_load",
            "mean_latency",
            "median_latency",
            "p95_latency",
            "mean_attempts",
            "delivered",
        ],
        title=(
            "Figure 3: latency vs. network loading "
            "(unloaded latency {:.1f} cycles; paper: 28 on its leaner "
            "close protocol)".format(base)
        ),
    )
    report(table, name="figure3")

    loads = [r.delivered_load for r in results]
    latencies = [r.mean_latency for r in results]

    # Unloaded latency in the paper's regime (tens of cycles; ours pays
    # for explicit wire pipelining + checksum word + close handshake).
    assert 28 <= base <= 55
    assert all(not math.isnan(l) for l in latencies)

    if QUICK:
        # The short window still has to show load responding to rate.
        assert latencies[-1] > latencies[0]
        assert loads[-1] > 0.1
        return

    # Shape: light-load latency near unloaded; heavy-load latency well
    # above it; latency non-decreasing with offered rate overall.
    assert latencies[0] < base * 1.3
    assert latencies[-1] > latencies[0] * 1.25
    assert max(latencies) == latencies[-1] or latencies[-1] > latencies[0]

    # Delivered load saturates: the last doubling of offered rate buys
    # little additional throughput.
    assert loads[-1] < loads[-2] * 1.5
    # And the network really was loaded (well past 10% capacity).
    assert loads[-1] > 0.15
