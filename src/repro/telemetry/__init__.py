"""Observability for the METRO reproduction.

Four layers, composable and individually optional:

* **Metrics** (:mod:`repro.telemetry.metrics`) — counters, gauges and
  log-bucketed histograms with hierarchical labels, snapshotted into
  picklable, mergeable :class:`MetricsSnapshot` objects so parallel
  sweeps aggregate across worker processes.
* **Spans** (:mod:`repro.telemetry.spans`) — message-lifecycle span
  trees and router point events, printable as a text timeline
  (``repro send --verbose``) and exportable as Chrome trace-event
  JSON (Perfetto-loadable).
* **Streaming** (:mod:`repro.telemetry.stream`) — a
  :class:`TelemetryStream` observer writing live JSONL run logs
  (metric deltas, SLO-window stats, fault transitions, lifecycle)
  whose merged deltas exactly reproduce the end-of-run snapshot.
* **Watchdog** (:mod:`repro.telemetry.watchdog`) — a
  :class:`RunWatchdog` observer detecting stalled/livelocked runs via
  delivered-message progress, diagnosing them with the oracle's
  quiescence inventory, and writing liveness heartbeats for parallel
  trial workers.

The :class:`TelemetryHub` ties the first two to a live network and is
the one sink components report protocol events to; when no hub is
bound, components carry :data:`NULL_TELEMETRY` and the instrumentation
costs one attribute test per event site.  Where the simulator's own
wall-clock goes is ``bench/``'s job (``python3 bench/run.py --trace
1``).  See ``docs/observability.md``.
"""

from repro.telemetry.hub import NULL_TELEMETRY, TelemetryHub
from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    MetricsSnapshot,
)
from repro.telemetry.spans import Span, SpanRecorder, validate_trace_events
from repro.telemetry.stream import (
    STREAM_FORMAT,
    TelemetryStream,
    merge_stream_metrics,
    read_run_log,
    snapshot_from_jsonable,
    snapshot_to_jsonable,
    validate_run_log,
)
from repro.telemetry.watchdog import (
    HEARTBEAT_ENV,
    RunWatchdog,
    Stall,
    attach_watchdog,
    heartbeat_path_from_env,
    read_heartbeat,
    write_heartbeat,
)

__all__ = [
    "NULL_TELEMETRY",
    "TelemetryHub",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsSnapshot",
    "Span",
    "SpanRecorder",
    "validate_trace_events",
    "STREAM_FORMAT",
    "TelemetryStream",
    "merge_stream_metrics",
    "read_run_log",
    "snapshot_from_jsonable",
    "snapshot_to_jsonable",
    "validate_run_log",
    "HEARTBEAT_ENV",
    "RunWatchdog",
    "Stall",
    "attach_watchdog",
    "heartbeat_path_from_env",
    "read_heartbeat",
    "write_heartbeat",
]
