"""Application workloads: collective completion and service tails.

Two workload-level figures of merit on top of the fabric benchmarks:

* **Collective completion time** — cycles for a ring all-reduce (and,
  in full mode, recursive doubling and all-to-all) to run its whole
  dependency DAG on the Figure 3 network.  The cycle counts are exact,
  deterministic properties of the simulated fabric: any drift across
  commits is a behavior change, not noise.  (What simulating it costs
  in wall time is ``bench/``'s ``ring_allreduce`` workload.)

* **Service tail latency** — p99/p999 of the request/response workload
  at a low and a loaded offered rate.  Same argument: the simulation
  is seeded and byte-identical across machines.

Quick mode (``REPRO_BENCH_QUICK=1``, the CI smoke) shrinks to the
Figure 1 network and one algorithm per family.
"""

import os

from repro.harness.workload_sweep import run_collective_point, run_service_point

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))

NETWORK = "figure1" if QUICK else "figure3"
ALGORITHMS = ("ring",) if QUICK else ("ring", "recursive-doubling", "all-to-all")
WORDS = 8
SERVICE_RATES = (0.0005,) if QUICK else (0.0005, 0.002)
MEASURE_CYCLES = 3000 if QUICK else 6000


def test_collective_completion(report):
    rows = []
    for algorithm in ALGORITHMS:
        result = run_collective_point(
            seed=0, algorithm=algorithm, words=WORDS, network=NETWORK,
            backend="events",
        )
        assert not result.incomplete, algorithm
        rows.append(
            {
                "algorithm": algorithm,
                "ops": result.n_ops,
                "total_cycles": result.total_cycles,
                "max_step_skew": result.max_step_skew(),
                "mean_attempts": result.mean_attempts,
            }
        )
    lines = [
        "Collective completion, {} network (events backend):".format(NETWORK),
        "  {:>18}  {:>6}  {:>12}  {:>9}  {:>9}".format(
            "algorithm", "ops", "total_cycles", "max_skew", "attempts"
        ),
    ]
    for row in rows:
        lines.append(
            "  {:>18}  {:>6}  {:>12}  {:>9}  {:>9.2f}".format(
                row["algorithm"],
                row["ops"],
                row["total_cycles"],
                row["max_step_skew"],
                row["mean_attempts"],
            )
        )
    report("\n".join(lines), name="workload_collectives")


def test_service_tail_latency(report):
    rows = []
    for rate in SERVICE_RATES:
        result = run_service_point(
            rate, seed=0, network="figure1", measure_cycles=MEASURE_CYCLES,
            backend="events",
        )
        assert result.delivered_count > 0
        stats = result.as_dict()
        rows.append(
            {
                "rate": rate,
                "delivered": result.delivered_count,
                "backlog": result.backlog,
                "p50": stats["p50_latency"],
                "p99": stats["p99_latency"],
                "p999": stats["p999_latency"],
            }
        )
    lines = [
        "Service tail latency, figure1 network ({} measured cycles):".format(
            MEASURE_CYCLES
        ),
        "  {:>8}  {:>9}  {:>8}  {:>8}  {:>8}  {:>8}".format(
            "rate", "delivered", "backlog", "p50", "p99", "p999"
        ),
    ]
    for row in rows:
        lines.append(
            "  {:>8}  {:>9}  {:>8}  {:>8.0f}  {:>8.0f}  {:>8.0f}".format(
                row["rate"], row["delivered"], row["backlog"],
                row["p50"], row["p99"], row["p999"],
            )
        )
    report("\n".join(lines), name="workload_service")
