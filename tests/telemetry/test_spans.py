"""Span recorder: nesting, text timeline, Chrome export, validation."""

import json

import pytest

from repro.telemetry.spans import SpanRecorder, validate_trace_events


def test_begin_end_records_duration_and_args():
    recorder = SpanRecorder()
    recorder.begin(10, "ep0/p0", "attempt", args={"dest": 3})
    span = recorder.end(25, "ep0/p0", args={"outcome": "delivered"})
    assert span.duration == 15
    assert span.args == {"dest": 3, "outcome": "delivered"}
    assert recorder.spans(name="attempt") == [span]


def test_spans_nest_per_track():
    recorder = SpanRecorder()
    outer = recorder.begin(0, "t", "attempt")
    inner = recorder.begin(1, "t", "setup")
    assert outer.depth == 0 and inner.depth == 1
    assert recorder.end(4, "t") is inner
    assert recorder.end(9, "t") is outer
    # Independent tracks keep independent stacks.
    recorder.begin(0, "a", "x")
    recorder.begin(0, "b", "y")
    assert recorder.end(1, "a").name == "x"
    assert recorder.end(1, "b").name == "y"


def test_end_without_open_span_is_noop():
    recorder = SpanRecorder()
    assert recorder.end(5, "nowhere") is None
    assert recorder.spans() == []


def test_end_all_closes_innermost_first():
    recorder = SpanRecorder()
    recorder.begin(0, "t", "attempt")
    recorder.begin(1, "t", "reply")
    closed = recorder.end_all(7, "t", args={"outcome": "blocked"})
    assert [span.name for span in closed] == ["reply", "attempt"]
    assert all(span.args["outcome"] == "blocked" for span in closed)
    assert recorder.end(8, "t") is None


def _recorded():
    recorder = SpanRecorder()
    recorder.begin(0, "ep0/p0", "attempt", cat="message")
    recorder.begin(0, "ep0/p0", "setup", cat="message")
    recorder.end(3, "ep0/p0")
    recorder.begin(3, "ep0/p0", "stream", cat="message")
    recorder.instant(8, "r0.0.0", "conn-open", cat="router")
    recorder.end(9, "ep0/p0")
    recorder.end(20, "ep0/p0", args={"outcome": "delivered"})
    return recorder


def test_timeline_is_in_cycle_order_with_enclosing_spans_first():
    recorder = _recorded()
    recorder.begin(21, "ep0/p0", "attempt", args={"attempt": 2})
    assert recorder.timeline() == [
        "@   0..20       ep0/p0 attempt                outcome=delivered",
        "@   0..3        ep0/p0 setup",
        "@   3..9        ep0/p0 stream",
        "@   8           r0.0.0 conn-open",
        "@  21..         ep0/p0 attempt                attempt=2",
    ]


def test_chrome_export_is_valid_and_deterministic():
    document = _recorded().to_chrome()
    assert validate_trace_events(document) == len(document["traceEvents"])
    assert document == _recorded().to_chrome()
    phases = [event["ph"] for event in document["traceEvents"]]
    # process_name + two thread_name metadata records lead.
    assert phases[:3] == ["M", "M", "M"]
    names = {
        event["args"]["name"]
        for event in document["traceEvents"]
        if event["ph"] == "M"
    }
    assert {"metro-sim", "ep0/p0", "r0.0.0"} <= names
    instants = [e for e in document["traceEvents"] if e["ph"] == "i"]
    assert [e["name"] for e in instants] == ["conn-open"]


def test_unfinished_spans_export_to_horizon():
    recorder = SpanRecorder()
    recorder.begin(4, "t", "attempt")
    document = recorder.to_chrome(final_cycle=30)
    (event,) = [e for e in document["traceEvents"] if e["ph"] == "X"]
    assert event["ts"] == 4 and event["dur"] == 26
    assert event["args"]["unfinished"] is True


def test_export_round_trips_through_json(tmp_path):
    path = tmp_path / "trace.json"
    document = _recorded().export(str(path))
    loaded = json.loads(path.read_text())
    assert loaded == document
    assert validate_trace_events(loaded) == len(loaded["traceEvents"])


def test_validate_rejects_malformed_documents():
    with pytest.raises(ValueError):
        validate_trace_events("nope")
    with pytest.raises(ValueError):
        validate_trace_events({"no_events": []})
    with pytest.raises(ValueError):
        validate_trace_events([{"ph": "Z", "name": "x", "pid": 1, "tid": 1}])
    with pytest.raises(ValueError):
        # Complete event without a duration.
        validate_trace_events(
            [{"ph": "X", "name": "x", "pid": 1, "tid": 1, "ts": 0}]
        )
    # A bare, well-formed event array is accepted.
    assert (
        validate_trace_events(
            [{"ph": "i", "s": "t", "name": "x", "pid": 1, "tid": 1, "ts": 0}]
        )
        == 1
    )
