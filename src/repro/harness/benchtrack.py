"""Cross-run benchmark history: append-only records and regression checks.

Every ``benchmarks/bench_*.py`` script measures something (cycles per
second, backend speedup, telemetry overhead) and, until now, threw the
number away — ``benchmarks/results/`` was rewritten per run, so a perf
regression in the events backend would land silently.  This module is
the tracking layer:

* :func:`make_record` / :func:`append_record` — one JSON object per
  benchmark run (git SHA, UTC timestamp, parameters, raw rows, named
  summary metrics), appended to
  ``benchmarks/results/history/<bench>.jsonl``.  Append-only means the
  trajectory across commits is the artifact.
* :func:`load_history` / :func:`compare_latest` — the newest record
  diffed against the trailing median of its predecessors, per metric;
  past-threshold moves in the *bad* direction become
  :class:`Regression` findings.  ``metro-repro bench-check`` turns
  those into a nonzero exit for CI.

Metric conventions: each metric carries ``higher_is_better`` (a
cycles/second drop is a regression; an overhead-percent drop is an
improvement) and ``portable`` — whether the value is comparable across
machines.  Speedup *ratios* and deterministic simulation outputs are
portable; absolute wall-clock rates are not, so CI compares with
``portable_only=True`` against committed history while a developer
box can check its own full history locally.  Records also carry their
``quick`` flag (``REPRO_BENCH_QUICK`` runs measure far less), and
comparisons never mix quick and full records.
"""

import json
import os
import subprocess
import time

#: Record schema version.
RECORD_FORMAT = 1


def git_sha(cwd=None):
    """The current git commit (short), or None outside a checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=cwd,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.decode("ascii", "replace").strip() or None


def metric(value, higher_is_better=True, portable=False):
    """One summary metric for :func:`make_record`."""
    return {
        "value": float(value),
        "higher_is_better": bool(higher_is_better),
        "portable": bool(portable),
    }


def make_record(bench, metrics, params=None, rows=None, quick=False, cwd=None):
    """A history record: provenance + parameters + measurements.

    :param bench: benchmark name (history file stem).
    :param metrics: ``{name: metric(...)}`` summary measurements —
        what :func:`compare_latest` tracks across runs.
    :param params: benchmark configuration (JSON-able).
    :param rows: raw per-point measurements (JSON-able), kept for
        archaeology; comparisons only read ``metrics``.
    """
    return {
        "format": RECORD_FORMAT,
        "bench": bench,
        "git": git_sha(cwd=cwd),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "quick": bool(quick),
        "params": params or {},
        "rows": rows or [],
        "metrics": dict(metrics),
    }


def history_path(history_dir, bench):
    return os.path.join(history_dir, "{}.jsonl".format(bench))


def append_record(history_dir, record):
    """Append ``record`` to its bench's history file; returns the path."""
    os.makedirs(history_dir, exist_ok=True)
    path = history_path(history_dir, record["bench"])
    with open(path, "a") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")
    return path


def load_history(path):
    """Parse one history file into a list of records (oldest first).

    Tolerates a torn final line (an interrupted append); any other
    malformed line raises.
    """
    records = []
    with open(path) as handle:
        lines = handle.readlines()
    for number, line in enumerate(lines, 1):
        line = line.strip()
        if not line:
            continue
        try:
            records.append(json.loads(line))
        except ValueError:
            if number == len(lines):
                break
            raise ValueError(
                "malformed history record on line {} of {}".format(
                    number, path
                )
            )
    return records


class Regression(object):
    """One metric that moved past threshold in the bad direction."""

    __slots__ = ("bench", "metric", "latest", "baseline", "change", "record")

    def __init__(self, bench, metric, latest, baseline, change, record):
        self.bench = bench
        self.metric = metric
        self.latest = latest
        self.baseline = baseline
        #: Fractional move in the bad direction (0.5 = 50% worse).
        self.change = change
        self.record = record

    def describe(self):
        return (
            "{}/{}: {:.4g} vs baseline {:.4g} ({:+.1f}% worse)".format(
                self.bench,
                self.metric,
                self.latest,
                self.baseline,
                100.0 * self.change,
            )
        )

    def __repr__(self):
        return "<Regression {}>".format(self.describe())


def _median(values):
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def compare_latest(
    records,
    threshold=0.3,
    window=5,
    min_history=2,
    portable_only=False,
):
    """Regressions in the newest record vs its trailing-median baseline.

    The newest record's metrics are compared against the median of up
    to ``window`` immediately-preceding records with the same
    ``quick`` flag (medians shrug off one noisy or broken historical
    run).  A metric regresses when it is worse than baseline by more
    than ``threshold`` (fractional: lower-is-better metrics compare
    ``latest/baseline - 1``, higher-is-better ``baseline/latest - 1``).

    Returns ``(regressions, compared)`` — ``compared`` counts metrics
    actually baselined; 0 means not enough history yet (fewer than
    ``min_history`` prior records), which is never a failure.
    """
    if not records:
        return [], 0
    latest = records[-1]
    prior = [
        r for r in records[:-1]
        if bool(r.get("quick")) == bool(latest.get("quick"))
    ]
    if len(prior) < min_history:
        return [], 0
    prior = prior[-window:]
    regressions = []
    compared = 0
    for name, info in sorted(latest.get("metrics", {}).items()):
        if portable_only and not info.get("portable"):
            continue
        baseline_values = [
            r["metrics"][name]["value"]
            for r in prior
            if name in r.get("metrics", {})
        ]
        if len(baseline_values) < min_history:
            continue
        baseline = _median(baseline_values)
        value = info["value"]
        compared += 1
        if info.get("higher_is_better", True):
            if value <= 0 or baseline <= 0:
                continue
            change = baseline / value - 1.0
        else:
            if baseline <= 0:
                continue
            change = value / baseline - 1.0
        if change > threshold:
            regressions.append(
                Regression(
                    latest.get("bench", "?"),
                    name,
                    value,
                    baseline,
                    change,
                    latest,
                )
            )
    return regressions, compared


def check_history_dir(
    history_dir,
    benches=None,
    threshold=0.3,
    window=5,
    min_history=2,
    portable_only=False,
):
    """Run :func:`compare_latest` over every history file.

    Returns ``(regressions, report_lines)``; ``benches`` restricts to
    the named benchmarks (error if one has no history file).
    """
    try:
        names = sorted(
            name[:-6]
            for name in os.listdir(history_dir)
            if name.endswith(".jsonl")
        )
    except OSError:
        raise FileNotFoundError(
            "no benchmark history directory at {!r}".format(history_dir)
        )
    if benches:
        missing = sorted(set(benches) - set(names))
        if missing:
            raise FileNotFoundError(
                "no history for benchmark(s): {}".format(", ".join(missing))
            )
        names = [name for name in names if name in benches]
    all_regressions = []
    lines = []
    for name in names:
        records = load_history(history_path(history_dir, name))
        regressions, compared = compare_latest(
            records,
            threshold=threshold,
            window=window,
            min_history=min_history,
            portable_only=portable_only,
        )
        if compared == 0:
            lines.append(
                "{}: insufficient history ({} record(s))".format(
                    name, len(records)
                )
            )
            continue
        if regressions:
            for regression in regressions:
                lines.append("REGRESSION {}".format(regression.describe()))
        else:
            lines.append(
                "{}: ok ({} metric(s) within {:.0f}%)".format(
                    name, compared, 100.0 * threshold
                )
            )
        all_regressions.extend(regressions)
    return all_regressions, lines
