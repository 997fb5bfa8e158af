"""Run the benchmark: ``python3 bench/run.py --workload NAME --seed N``.

Each workload runs in fresh interpreters (``bench/worker.py``) with
``PYTHONHASHSEED=0`` and ``REPRO_JIT`` unset.  Every metric is printed
by name with its unit, the outputs are checked, and the last line of
standard output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  The exit code is non-zero when anything
was incorrect.  See ``bench/README.md``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)

#: Fresh interpreters that set up each workload; ``setup_s`` is their median.
SETUP_SAMPLES = 5

#: No single interpreter may outlive this (the whole command has 180 s).
WORKER_TIMEOUT_S = 150


def load_contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def worker_environment():
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env.pop("REPRO_JIT", None)
    paths = [ROOT, os.path.join(ROOT, "src")]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def run_worker(mode, workload, seed, *extra):
    """Run one worker to completion; returns the object it printed."""
    command = [
        sys.executable, "-m", "bench.worker", mode,
        "--workload", workload, "--seed", str(seed),
    ] + list(extra)
    done = subprocess.run(
        command, cwd=ROOT, env=worker_environment(), stdout=subprocess.PIPE,
        text=True, timeout=WORKER_TIMEOUT_S,
    )
    if done.returncode != 0:
        raise SystemExit(
            "bench worker failed ({}): {}".format(
                done.returncode, " ".join(command)
            )
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


def machine(report):
    """Where the numbers were taken: they do not transfer between hosts."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL, text=True,
    )
    return {
        "commit": commit.stdout.strip() if commit.returncode == 0 else "unknown",
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": report["python"],
        "numpy": report["numpy"],
        "loadavg": os.getloadavg()[0],
    }


def measure(contract, workload, seed, seconds, traced, out_dir):
    """All interpreters of one workload; returns its result object."""
    extra = [
        "--seconds", str(seconds), "--trace", str(int(traced)),
        "--out", out_dir,
    ]
    report = run_worker("measure", workload, seed, *extra)
    measured = report["metrics"]
    if traced:
        declared = contract["per_layer"]
    else:
        samples = [report["setup"]] + [
            run_worker("setup", workload, seed)["setup"]
            for _ in range(SETUP_SAMPLES - 1)
        ]
        measured["setup_s"] = statistics.median(
            (sample["import_s"] + sample["start_s"]) / sample["slowdown"]
            for sample in samples
        )
        declared = contract["end_to_end"]
    names = {metric["name"] for metric in declared}
    unknown = sorted(set(measured) - names)
    if unknown:
        raise SystemExit("metrics not in BENCHMARK.json: {}".format(unknown))
    missing = sorted(names - set(measured))
    if missing and not traced:
        raise SystemExit("end-to-end metrics not measured: {}".format(missing))
    # A layer the workload does not exercise made no calls and took no time.
    metrics = {
        metric["name"]: {
            "value": measured.get(metric["name"], 0.0),
            "unit": metric["unit"],
        }
        for metric in declared
    }
    return {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }, report


def show(workload, seed, traced, result, report):
    print("== {} (seed {}, {} rounds{}, host slowdown x{:.3f}) ==".format(
        workload, seed, report["rounds"], ", traced" if traced else "",
        report["slowdown"],
    ))
    for name, metric in result["metrics"].items():
        print("  {:<44} {:>16.6g} {}".format(
            name, metric["value"], metric["unit"]
        ))
    print("  attempted {}  failed {}  fail_share {:.6g}".format(
        result["attempted"], result["failed"],
        result["failed"] / result["attempted"],
    ))
    for problem in report["problems"]:
        print("  INCORRECT: {}".format(problem))


def main(argv=None):
    contract = load_contract()
    names = [workload["name"] for workload in contract["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names, default=None,
                        help="one workload (default: all five in turn)")
    parser.add_argument("--seed", type=int, default=19)
    parser.add_argument("--seconds", type=float,
                        default=contract["run_seconds"],
                        help="host seconds of timed rounds per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run, prints the per-layer metrics")
    parser.add_argument("--out", default=os.path.join(BENCH_DIR, "out"),
                        help="directory for result.json and trace files")
    args = parser.parse_args(argv)

    out_dir = os.path.abspath(args.out)
    os.makedirs(out_dir, exist_ok=True)
    results = {}
    lines = []
    for workload in [args.workload] if args.workload else names:
        result, report = measure(
            contract, workload, args.seed, args.seconds, args.trace, out_dir
        )
        show(workload, args.seed, args.trace, result, report)
        results[workload] = dict(result, rounds=report["rounds"])
        lines.append(json.dumps(result))
    host = machine(report)
    with open(os.path.join(out_dir, "result.json"), "w") as handle:
        json.dump(
            {"seed": args.seed, "seconds": args.seconds, "trace": args.trace,
             "machine": host, "workloads": results},
            handle, indent=1,
        )
    print("every network started empty: statistics cover the whole run")
    print("machine: " + json.dumps(host))
    for line in lines:
        print(line)
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
