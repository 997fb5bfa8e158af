"""Compare two sets of benchmark results: ``compare.py A B``.

``A`` (the parent, or the first set) and ``B`` (the change, or the
second set) are each a ``result.json`` written by ``bench/run.py --out``
or a directory of them (several runs of one commit).  For every
workload and end-to-end metric the verdict uses the bound stored in
``BENCHMARK.json``:

* ``worse``  - B's median is worse than A's by more than the bound;
* ``better`` - B's median is better than A's by more than the bound;
* ``unresolved`` - A's own runs spread (interquartile range over
  median) wider than the bound, so the medians decide nothing, unless
  every run of B reads better than every run of A;
* ``same`` - otherwise.

Simulated statistics (``sim_*``) repeat exactly for a given seed, so
when both sides ran the same seeds any difference in them is ``worse``:
the simulator's behaviour changed.  A workload with failed operations
in B is ``worse`` whatever its timings say.  One row per workload; the
exit code is non-zero if any verdict is ``worse``.
"""

import argparse
import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

if not __package__:
    # Run as a script: sys.path[0] is bench/, where trace.py would hide
    # the standard library's; the package lives one level up.
    sys.path[0] = ROOT

from bench.estimator import spread  # noqa: E402


def load(path):
    """The result objects under ``path`` (a file, or a directory of them)."""
    paths = (
        sorted(glob.glob(os.path.join(path, "**", "*.json"), recursive=True))
        if os.path.isdir(path) else [path]
    )
    results = []
    for name in paths:
        with open(name) as handle:
            result = json.load(handle)
        if "workloads" in result:
            results.append(result)
    if not results:
        raise SystemExit("no benchmark results under {}".format(path))
    return results


def values(results, workload, metric):
    return [
        result["workloads"][workload]["metrics"][metric]["value"]
        for result in results
        if workload in result["workloads"]
    ]


def verdict(a, b, bound, better, exact=False):
    """``(word, relative change of the median)`` for one metric.

    The change is signed so that positive means worse.
    """
    if exact:
        return ("same" if a == b else "worse"), 0.0
    sign = -1.0 if better == "higher" else 1.0
    base = statistics.median(a)
    worse_by = sign * (statistics.median(b) - base) / base
    apart = all(sign * (y - x) < 0 for x in a for y in b)
    if apart and worse_by < -bound:
        return "better", worse_by
    if len(a) > 1 and spread(a) > bound:
        return "unresolved", worse_by
    if worse_by > bound:
        return "worse", worse_by
    if worse_by < -bound:
        return "better", worse_by
    return "same", worse_by


def compare(contract, a_results, b_results):
    """Rows ``(workload, {metric: (word, change)})``, one per workload."""
    same_seeds = (
        [r["seed"] for r in a_results] == [r["seed"] for r in b_results]
    )
    rows = []
    for workload in (w["name"] for w in contract["workloads"]):
        cells = {}
        for metric in contract["end_to_end"]:
            name = metric["name"]
            a = values(a_results, workload, name)
            b = values(b_results, workload, name)
            if not a or not b:
                continue
            cells[name] = verdict(
                a, b, metric["bound"], metric["better"],
                exact=same_seeds and name.startswith("sim_"),
            )
        if not cells:
            continue
        failed = sum(
            r["workloads"][workload]["failed"]
            for r in b_results if workload in r["workloads"]
        )
        if failed:
            cells["failed operations: {}".format(failed)] = ("worse", 0.0)
        rows.append((workload, cells))
    return rows


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", help="result.json, or a directory of them")
    parser.add_argument("b", help="result.json, or a directory of them")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        contract = json.load(handle)
    rows = compare(contract, load(args.a), load(args.b))
    for workload, cells in rows:
        print(workload)
        for name, (word, change) in cells.items():
            print("  {:<24} {:<10} {:+8.2%}".format(name, word, change))
    worse = [
        "{}/{}".format(workload, name)
        for workload, cells in rows
        for name, (word, _change) in cells.items() if word == "worse"
    ]
    if worse:
        print("WORSE: " + ", ".join(worse))
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
