"""Reporting helpers: tables, trial progress lines, telemetry views."""

import io

from repro.harness.parallel import TrialEvent
from repro.harness.reporting import (
    ascii_chart,
    format_percentiles,
    format_series,
    format_stage_heatmap,
    format_table,
    format_trial_event,
    progress_printer,
)
from repro.telemetry.metrics import MetricsRegistry


# -- format_table --------------------------------------------------------


def test_format_table_empty_rows():
    assert format_table([]) == "(no rows)"


def test_format_table_alignment_and_title():
    rows = [
        {"name": "alpha", "value": 1.0},
        {"name": "b", "value": 12.25},
    ]
    text = format_table(rows, title="things")
    lines = text.splitlines()
    assert lines[0] == "things"
    assert lines[1].split() == ["name", "value"]
    assert set(lines[2]) <= {"-", " "}
    assert "12.2" in lines[4]  # default floatfmt rounds to one decimal


def test_format_table_missing_columns_render_as_dash():
    rows = [{"a": 1, "b": 2}, {"a": 3}]
    text = format_table(rows, columns=["a", "b", "c"])
    last = text.splitlines()[-1]
    assert last.split() == ["3", "-", "-"]


def test_format_table_tuple_and_custom_float_format():
    rows = [{"pair": (1.5, 2.5), "x": 3.14159}]
    text = format_table(rows, floatfmt="{:.3f}")
    assert "1.500-2.500" in text
    assert "3.142" in text


def test_format_series_orders_columns():
    points = [(0.1, {"lat": 30.0, "load": 0.2})]
    text = format_series(points, x_label="rate", y_labels=["load", "lat"])
    header = text.splitlines()[0].split()
    assert header == ["rate", "load", "lat"]


def test_ascii_chart_handles_empty_and_nan():
    assert ascii_chart([]) == "(no data)"
    assert ascii_chart([(0, float("nan"))]) == "(no data)"
    chart = ascii_chart([(0, 1), (1, 2), (2, 8)], title="t")
    assert chart.splitlines()[0] == "t"
    assert "*" in chart


# -- trial progress ------------------------------------------------------


def test_format_trial_event_timed():
    event = TrialEvent(2, 8, "rate=0.01", 2.125, "executed")
    line = format_trial_event(event)
    assert line.startswith("[3/8] rate=0.01")
    assert line.endswith("2.12s")


def test_format_trial_event_cached():
    event = TrialEvent(9, 10, "rate=0.32", 0.0, "cache")
    line = format_trial_event(event)
    assert line.startswith("[10/10]")
    assert line.endswith("cached")


def test_progress_printer_writes_to_given_stream():
    stream = io.StringIO()
    printer = progress_printer(stream=stream)
    printer(TrialEvent(0, 2, "rate=0.1", 1.0, "executed"))
    printer(TrialEvent(1, 2, "rate=0.2", 0.0, "cache"))
    lines = stream.getvalue().splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("[1/2]")
    assert lines[1].endswith("cached")


def test_progress_printer_defaults_to_stderr(capsys):
    progress_printer()(TrialEvent(0, 1, "x", 0.5, "executed"))
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "[1/1] x" in captured.err


# -- telemetry views -----------------------------------------------------


def _snapshot():
    registry = MetricsRegistry()
    latency = registry.histogram("message.latency.cycles")
    for value in (24, 30, 31, 48, 70, 130):
        latency.observe(value)
    registry.counter("router.util.samples").inc(100)
    for stage, router, busy, ports in (
        (0, "0.0.0", 120, 8),
        (0, "0.0.1", 40, 8),
        (1, "1.0.0", 300, 8),
    ):
        registry.counter(
            "router.util.busy", router=router, stage=stage
        ).inc(busy)
        registry.gauge(
            "router.util.ports", router=router, stage=stage
        ).set(ports)
    return registry.snapshot()


def test_format_percentiles_skips_missing_series():
    snapshot = _snapshot()
    text = format_percentiles(
        snapshot, ["message.latency.cycles", "not.recorded"]
    )
    assert "message.latency.cycles" in text
    assert "not.recorded" not in text
    assert format_percentiles(snapshot, ["nope"]) == "(no histogram series)"


def test_format_percentiles_columns():
    text = format_percentiles(_snapshot(), ["message.latency.cycles"])
    header = text.splitlines()[0].split()
    assert header == [
        "metric", "count", "mean", "min", "p50", "p90", "p99", "p99.9", "max"
    ]
    row = text.splitlines()[2].split()
    assert row[1] == "6"  # count
    assert float(row[3]) == 24.0 and float(row[-1]) == 130.0


def test_format_stage_heatmap():
    text = format_stage_heatmap(_snapshot(), title="util")
    lines = text.splitlines()
    assert lines[0] == "util"
    assert lines[1].startswith("stage 0")
    # Stage 0 mean: (120 + 40) / (100 * 8 * 2) = 10%.
    assert "10.0%" in lines[1]
    assert "max 15.0% @ r0.0.0" in lines[1]
    # Stage 1: 300 / 800 = 37.5%.
    assert "37.5%" in lines[2]


def test_format_stage_heatmap_without_samples():
    assert format_stage_heatmap(MetricsRegistry().snapshot()) == (
        "(no utilization samples)"
    )


def test_format_trial_event_timeout_with_heartbeat():
    event = TrialEvent(
        0, 4, "soak0", 30.0, "timeout",
        duration=31.5, heartbeat={"cycle": 4200, "delivered": 17},
    )
    line = format_trial_event(event)
    assert "TIMEOUT after 32s" in line
    assert "last heartbeat @cycle 4200" in line


def test_format_trial_event_timeout_without_heartbeat():
    event = TrialEvent(0, 4, "soak0", 30.0, "timeout", duration=30.0)
    line = format_trial_event(event)
    assert "TIMEOUT" in line
    assert "heartbeat" not in line


def test_format_trial_event_shows_queueing_wall_time():
    event = TrialEvent(0, 4, "rate=0.01", 1.0, "executed", duration=9.0)
    line = format_trial_event(event)
    assert "1.00s" in line
    assert "(9.00s wall)" in line
    # ...but not when the wall clock tracked the compute time.
    quick = TrialEvent(0, 4, "rate=0.01", 1.0, "executed", duration=1.1)
    assert "wall" not in format_trial_event(quick)
