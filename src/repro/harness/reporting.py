"""Plain-text table/series formatting for benchmark output.

Benchmarks print the same rows/series the paper reports; these helpers
keep that output consistent and readable in a terminal.  They also
render the parallel runner's progress events
(:func:`format_trial_event` / :func:`progress_printer`) so sweeps can
narrate per-trial completion and cache hits, and the telemetry
subsystem's aggregates (:func:`format_percentiles`,
:func:`format_stage_heatmap`) so metrics-enabled sweeps print
distributions, not just means.
"""

import collections
import sys


def format_trial_event(event):
    """One progress line for a :class:`~repro.harness.parallel.TrialEvent`.

    ``[ 3/8] rate=0.01                 2.13s`` (``cached`` for a trial
    served from the result cache, ``resumed`` for one replayed from a
    run journal).  When pool queueing made the trial wait well past
    its own compute time, the wall-clock duration is appended; a
    timed-out trial shows ``TIMEOUT`` plus its last liveness
    heartbeat, if the worker wrote one; a quarantined trial shows
    ``QUARANTINED`` (see :func:`format_quarantine_report` for the
    post-sweep summary).
    """
    width = len(str(event.total))
    if event.cached:
        timing = "resumed" if event.source == "resumed" else "cached"
    elif event.quarantined:
        timing = "QUARANTINED after {:.0f}s".format(event.duration)
    elif event.timed_out:
        timing = "TIMEOUT after {:.0f}s".format(event.duration)
        if event.heartbeat:
            timing += " (last heartbeat @cycle {})".format(
                event.heartbeat.get("cycle")
            )
    else:
        timing = "{:.2f}s".format(event.seconds)
        if event.duration > event.seconds * 1.5 + 0.1:
            timing += " ({:.2f}s wall)".format(event.duration)
    return "[{:>{w}}/{}] {:<28} {}".format(
        event.index + 1, event.total, event.label, timing, w=width
    )


def progress_printer(stream=None):
    """A :class:`TrialRunner` progress callback that prints each event.

    Defaults to stderr so progress chatter never corrupts the result
    tables/CSV a sweep writes to stdout.
    """

    def _print(event):
        out = stream if stream is not None else sys.stderr
        out.write(format_trial_event(event) + "\n")
        out.flush()

    return _print


def format_quarantine_report(reports):
    """Summary table for :class:`~repro.harness.parallel.QuarantinedTrial` reports.

    One row per poisoned trial: its label, seed, attempt count, a
    compressed failure-kind tally (``crash x3``), and the last
    failure's detail.  The CLI prints this (and exits nonzero) when a
    sweep completes with quarantined trials.
    """
    rows = []
    for report in reports:
        kinds = collections.Counter(
            failure.get("kind", "?") for failure in report.failures
        )
        tally = ", ".join(
            "{} x{}".format(kind, count) for kind, count in sorted(kinds.items())
        )
        detail = report.failures[-1].get("detail", "") if report.failures else ""
        if len(detail) > 48:
            detail = detail[:45] + "..."
        rows.append(
            {
                "trial": report.label,
                "seed": report.seed,
                "attempts": report.attempts,
                "failures": tally or "(none recorded)",
                "last failure": detail,
            }
        )
    return format_table(rows, title="Quarantined trials")


def format_table(rows, columns=None, title=None, floatfmt="{:.1f}"):
    """Render dict rows as an aligned text table."""
    if not rows:
        return "(no rows)"
    if columns is None:
        columns = list(rows[0].keys())
    rendered = []
    for row in rows:
        rendered.append(
            [_cell(row.get(column), floatfmt) for column in columns]
        )
    widths = [
        max(len(str(column)), max(len(line[index]) for line in rendered))
        for index, column in enumerate(columns)
    ]
    out = []
    if title:
        out.append(title)
    header = "  ".join(str(c).ljust(w) for c, w in zip(columns, widths))
    out.append(header)
    out.append("  ".join("-" * w for w in widths))
    for line in rendered:
        out.append("  ".join(cell.ljust(w) for cell, w in zip(line, widths)))
    return "\n".join(out)


def _cell(value, floatfmt):
    if value is None:
        return "-"
    if isinstance(value, float):
        return floatfmt.format(value)
    if isinstance(value, tuple):
        return "-".join(_cell(v, floatfmt) for v in value)
    return str(value)


def format_series(points, x_label, y_labels, title=None):
    """Render (x, {y_label: value}) pairs as an aligned series table."""
    rows = []
    for x, values in points:
        row = {x_label: x}
        row.update(values)
        rows.append(row)
    return format_table(rows, columns=[x_label] + list(y_labels), title=title)


#: Plot area of :func:`ascii_chart`, in characters.
CHART_WIDTH = 50
CHART_HEIGHT = 12


def ascii_chart(points, title=None, x_label="x", y_label="y"):
    """A quick terminal scatter/line chart for (x, y) numeric pairs.

    Good enough to see the Figure 3 knee in benchmark output without
    leaving the terminal; not a plotting library.
    """
    pairs = [(float(x), float(y)) for x, y in points if y == y]  # drop NaN
    if not pairs:
        return "(no data)"
    xs = [p[0] for p in pairs]
    ys = [p[1] for p in pairs]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0
    width, height = CHART_WIDTH, CHART_HEIGHT
    grid = [[" "] * width for _ in range(height)]
    for x, y in pairs:
        column = int((x - x_lo) / x_span * (width - 1))
        row = int((y - y_lo) / y_span * (height - 1))
        grid[height - 1 - row][column] = "*"
    lines = []
    if title:
        lines.append(title)
    lines.append("{:>10.3g} |{}".format(y_hi, "".join(grid[0])))
    for row in grid[1:-1]:
        lines.append("{:>10} |{}".format("", "".join(row)))
    lines.append("{:>10.3g} |{}".format(y_lo, "".join(grid[-1])))
    lines.append("{:>10} +{}".format("", "-" * width))
    lines.append(
        "{:>10}  {:<{pad}}{:>{pad2}}".format(
            "", "{:.3g}".format(x_lo), "{:.3g}".format(x_hi),
            pad=width // 2, pad2=width - width // 2,
        )
    )
    lines.append("{:>10}  ({} vs {})".format("", y_label, x_label))
    return "\n".join(lines)


def sparkline(values, lo=None, hi=None):
    """A one-line block-character chart of a numeric series.

    Ideal for chaos-soak windows: ``▇▇▇▂▁▂▃▅▇▇`` shows the fault dip
    and the recovery rebound in a single table cell.  ``lo``/``hi``
    pin the scale (e.g. 0..baseline) so several soaks compare
    directly; they default to the series' own extremes.
    """
    ramp = "▁▂▃▄▅▆▇█"
    series = [float(v) for v in values]
    if not series:
        return ""
    low = min(series) if lo is None else float(lo)
    high = max(series) if hi is None else float(hi)
    span = (high - low) or 1.0
    chars = []
    for value in series:
        index = int((value - low) / span * (len(ramp) - 1))
        chars.append(ramp[max(0, min(index, len(ramp) - 1))])
    return "".join(chars)


#: Quantile columns of :func:`format_percentiles`.
PERCENTILES = (50, 90, 99, 99.9)


def format_percentiles(snapshot, names, title=None):
    """A count/mean/percentile table over histogram series.

    ``names`` selects unlabeled histogram series from a
    :class:`~repro.telemetry.metrics.MetricsSnapshot`; names absent
    from the snapshot are skipped, so one call covers hubs configured
    with different instrument sets.  The quantiles
    (:data:`PERCENTILES`) run out to p99.9 — SLO-grade tails
    (``docs/workloads.md``).
    """
    rows = []
    for name in names:
        try:
            histogram = snapshot.histogram(name)
        except (KeyError, ValueError):
            continue
        row = {
            "metric": name,
            "count": histogram.count,
            "mean": histogram.mean,
            "min": float(histogram.low) if histogram.count else None,
        }
        for q in PERCENTILES:
            row["p{:g}".format(q)] = histogram.percentile(q)
        row["max"] = float(histogram.high) if histogram.count else None
        rows.append(row)
    if not rows:
        return "(no histogram series)"
    return format_table(rows, title=title)


def router_utilization(snapshot):
    """``{(stage, router label): utilization}`` from ``router.util.*``.

    Consumes the series the :class:`~repro.telemetry.TelemetryHub`
    emits: ``router.util.samples`` (counter), ``router.util.busy`` and
    ``router.util.ports`` (labeled by router and stage).  Utilization
    is busy-port samples over total port-samples, the mean fraction of
    a router's backward ports that were busy.  Correct on merged sweep
    snapshots too — busy and samples both sum across trials.  Empty
    when nothing was sampled.
    """
    samples = snapshot.get("router.util.samples", 0)
    if not samples:
        return {}
    ports = {}
    for labels, _kind, data in snapshot.labeled("router.util.ports"):
        ports[labels.get("router")] = data[0]
    utilization = {}
    for labels, _kind, busy in snapshot.labeled("router.util.busy"):
        router = labels.get("router")
        n_ports = ports.get(router)
        if n_ports:
            utilization[labels.get("stage"), router] = busy / (
                samples * n_ports
            )
    return utilization


def format_stage_heatmap(snapshot, title=None):
    """Per-stage router-utilization bars (:func:`router_utilization`).

    Each stage shows its mean as a bar plus the stage's hottest router.
    """
    stages = {}
    for (stage, router), utilization in router_utilization(snapshot).items():
        stages.setdefault(stage, []).append((utilization, router))
    if not stages:
        return "(no utilization samples)"
    width = 30  # characters a fully busy stage's bar takes
    lines = []
    if title:
        lines.append(title)
    for stage in sorted(stages, key=str):
        values = stages[stage]
        mean = sum(u for u, _r in values) / len(values)
        hot_util, hot_router = max(values)
        bar = "#" * int(round(width * min(mean, 1.0)))
        lines.append(
            "stage {:<3} {:<{w}} {:5.1%}  (max {:.1%} @ r{})".format(
                stage, bar or ".", mean, hot_util, hot_router, w=width
            )
        )
    return "\n".join(lines)


def results_to_series(results):
    """ExperimentResults -> (label, metrics) pairs for format_series."""
    points = []
    for result in results:
        data = result.as_dict()
        points.append((data.pop("label"), data))
    return points
