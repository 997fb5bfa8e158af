"""Streaming telemetry: live JSONL run logs from a running simulation.

Everything else in :mod:`repro.telemetry` reports *post hoc* — metrics
snapshot at run end, traces export at run end — which makes a
long-running soak a black box until it finishes (or wedges).  A
:class:`TelemetryStream` is an engine observer that writes structured
events to an append-only JSONL *run log* while the simulation runs:

* ``run.start`` / ``run.end`` — run lifecycle, with caller metadata;
* ``metrics.delta`` — periodic deltas of the bound
  :class:`~repro.telemetry.hub.TelemetryHub`'s registry
  (:meth:`~repro.telemetry.metrics.MetricsSnapshot.delta_since`).
  Folding every delta in order reproduces the end-of-run
  :class:`~repro.telemetry.metrics.MetricsSnapshot` *exactly* — the
  stream is a lossless incremental transport for the run's metrics,
  and ``tests/telemetry/test_stream.py`` pins byte-identity;
* ``window.stats`` — per-window delivered count and latency
  percentiles (p50/p95/p99/p999), the live view of tail behaviour
  forming;
* ``fault.transition`` — fault injector apply/revert events, as they
  strike;
* ``snapshot.write`` — checkpoint-ring writes (see
  ``docs/checkpointing.md``);
* ``watchdog.*`` — stall diagnoses from a
  :class:`~repro.telemetry.watchdog.RunWatchdog` given the stream as
  its sink.

Every record is one JSON object per line with at least ``event`` and
``cycle``; ``t`` is wall-clock seconds since the stream opened (log
metadata only — nothing in the simulation ever reads it, so streamed
and unstreamed runs stay byte-identical).  ``metro-repro tail`` renders
a run log (optionally following it live) with :func:`render_run_log`
and :func:`format_run_log_event`; :func:`read_run_log` parses one;
:func:`merge_stream_metrics` folds its deltas back into a snapshot.
"""

import json
import logging
import os
import time

from repro.sim.component import Component
from repro.stats import nearest_rank
from repro.telemetry.metrics import MetricsSnapshot

logger = logging.getLogger(__name__)

#: Format tag carried by ``run.start``; bump on breaking changes.
STREAM_FORMAT = "metro-run-log-v1"

#: Per-event required fields enforced by :func:`validate_run_log`.
REQUIRED_FIELDS = {
    "metrics.delta": ("series", "seq"),
    "window.stats": ("window", "delivered"),
    "fault.transition": ("fault", "action"),
    "snapshot.write": ("path",),
    "watchdog.stall": ("stalled_cycles",),
    "run.end": ("deltas",),
}


# ---------------------------------------------------------------------------
# Snapshot <-> JSON (exact round trip)
# ---------------------------------------------------------------------------


#: Series key -> its ``repr``, which orders a rendering.  A key is an
#: instrument's identity (one per registry series, immutable), so the
#: repr is derived once per process instead of at every flush.
_SERIES_ORDER = {}


def _series_order(item):
    order = _SERIES_ORDER.get(item[0])
    if order is None:
        order = _SERIES_ORDER[item[0]] = repr(item[0])
    return order


def snapshot_to_jsonable(snapshot):
    """A pure-JSON rendering of ``snapshot`` that round-trips exactly.

    Unlike :meth:`MetricsSnapshot.as_dict` (which flattens for human
    reading), this encoding preserves every type distinction the
    snapshot's equality relies on: tuple keys become nested lists,
    histogram bucket indices stay integers (JSON objects would
    stringify them), gauge pairs keep their order.  Series are sorted
    by key repr, so equal snapshots serialize to identical documents.
    """
    out = []
    for (name, label_items), (kind, data) in sorted(
        snapshot.series.items(), key=_series_order
    ):
        if kind == "histogram":
            encoded = {
                "count": data["count"],
                "total": data["total"],
                "low": data["low"],
                "high": data["high"],
                "buckets": sorted(data["buckets"].items()),
            }
        elif kind == "gauge":
            encoded = list(data)
        else:
            encoded = data
        out.append([[name, list(map(list, label_items))], kind, encoded])
    return out


def snapshot_from_jsonable(data):
    """Rebuild a :class:`MetricsSnapshot` from
    :func:`snapshot_to_jsonable` output (e.g. parsed back from JSON)."""
    series = {}
    for entry in data:
        (name, label_items), kind, encoded = entry
        key = (name, tuple((k, v) for k, v in label_items))
        if kind == "histogram":
            decoded = {
                "count": encoded["count"],
                "total": encoded["total"],
                "low": encoded["low"],
                "high": encoded["high"],
                "buckets": {
                    index: count for index, count in encoded["buckets"]
                },
            }
        elif kind == "gauge":
            decoded = tuple(encoded)
        else:
            decoded = encoded
        series[key] = (kind, decoded)
    return MetricsSnapshot(series)


# ---------------------------------------------------------------------------
# The stream observer
# ---------------------------------------------------------------------------


class TelemetryStream(Component):
    """Engine observer streaming run telemetry as JSONL events.

    :param path: run-log file path (opened for append on bind), or any
        object with ``write``/``flush`` (e.g. ``sys.stdout`` for live
        piping; such handles are not closed by :meth:`close`).
    :param flush_every: cycles between ``metrics.delta`` events; 0
        disables periodic deltas (a final delta is still emitted on
        :meth:`close`, so merge-equality always holds).
    :param window_cycles: cycles per ``window.stats`` window; None
        disables window events.
    :param meta: JSON-able dict carried on the ``run.start`` record.

    Bind with :meth:`bind`; the stream picks
    up the network's bound :class:`~repro.telemetry.hub.TelemetryHub`
    for metric deltas — without one, lifecycle/window/fault events
    still stream, metric deltas are simply absent.

    The engine ticks the stream, so it holds no reference back to the
    network (that would make a dropped network cyclic garbage): it
    keeps the message log and the cycle its last tick closed, which a
    record without an explicit ``cycle`` carries.
    """

    enabled = True
    name = "telemetry-stream"

    def __init__(self, path, flush_every=200, window_cycles=None, meta=None):
        self._own_handle = isinstance(path, str)
        self._path = path if self._own_handle else None
        self._handle = None if self._own_handle else path
        self.flush_every = int(flush_every)
        self.window_cycles = window_cycles
        self.meta = dict(meta or {})
        self.hub = None
        self._log = None
        #: The engine cycle after the stream's last tick; None until
        #: bound.
        self._next_cycle = None
        self.events_written = 0
        self.deltas_written = 0
        self.closed = False
        self._t0 = None
        self._last = MetricsSnapshot()
        self._next_flush = None
        self._next_window = None
        self._window_index = 0
        self._msg_cursor = 0
        self._injector = None
        self._fault_cursor = 0

    # -- pickling (snapshot-ring support) --------------------------------

    def __getstate__(self):
        # Streams ride engine snapshots (they are engine observers),
        # but file handles do not pickle: a restored stream comes back
        # *inert* — closed, handleless — and a resumed run attaches a
        # fresh stream for its own leg (see ``run_chaos_point``).
        state = dict(self.__dict__)
        state["_handle"] = None
        state["closed"] = True
        return state

    # -- binding ---------------------------------------------------------

    def bind(self, network, injector=None):
        """Open the log, emit ``run.start`` and start observing.

        :param injector: a :class:`~repro.faults.injector.FaultInjector`
            whose applied-fault history should stream as
            ``fault.transition`` events (also settable later via
            :meth:`observe_injector`).
        """
        if self._log is not None:
            raise ValueError("stream is already bound to a network")
        self._log = network.log
        self.hub = getattr(network, "telemetry", None)
        if self.hub is not None and not self.hub.enabled:
            self.hub = None
        if self._own_handle:
            # The legs of a resumed soak append to one log, and the leg
            # before this one may have been SIGKILLed mid-write.
            trim_torn_tail(self._path)
            self._handle = open(self._path, "a")
        self._t0 = time.perf_counter()
        cycle = self._next_cycle = network.engine.cycle
        if self.flush_every:
            self._next_flush = cycle + self.flush_every
        if self.window_cycles:
            self._window_index = cycle // self.window_cycles
            self._next_window = (self._window_index + 1) * self.window_cycles
        if injector is not None:
            self.observe_injector(injector)
        self.emit(
            "run.start",
            cycle=cycle,
            format=STREAM_FORMAT,
            flush_every=self.flush_every,
            window_cycles=self.window_cycles,
            metrics=self.hub is not None,
            meta=self.meta,
        )
        network.engine.add_observer(self)
        return self

    def observe_injector(self, injector):
        """Stream ``injector``'s applied-fault history as it grows."""
        self._injector = injector
        self._fault_cursor = len(injector.applied)

    # -- the observer tick ----------------------------------------------

    def tick(self, cycle):
        self._next_cycle = cycle + 1
        if self.closed:
            return
        if self._injector is not None:
            applied = self._injector.applied
            while self._fault_cursor < len(applied):
                entry = applied[self._fault_cursor]
                self._fault_cursor += 1
                self.emit(
                    "fault.transition",
                    cycle=entry.cycle,
                    fault=entry.fault.describe(),
                    action=entry.action,
                    scheduled=entry.scheduled,
                )
        if self._next_window is not None and cycle + 1 >= self._next_window:
            self._emit_window(cycle)
            self._window_index += 1
            self._next_window = (self._window_index + 1) * self.window_cycles
        if self._next_flush is not None and cycle + 1 >= self._next_flush:
            self.flush_delta(cycle)
            self._next_flush = cycle + 1 + self.flush_every

    # -- event emission --------------------------------------------------

    def emit(self, event, cycle=None, **fields):
        """Write one JSONL record (public: watchdogs, harnesses)."""
        if self.closed or self._handle is None:
            return
        record = {"event": event}
        record["cycle"] = cycle if cycle is not None else self._next_cycle
        if self._t0 is not None:
            record["t"] = round(time.perf_counter() - self._t0, 6)
        record.update(fields)
        self._handle.write(json.dumps(record, sort_keys=True) + "\n")
        self._handle.flush()
        self.events_written += 1

    def flush_delta(self, cycle=None):
        """Emit a ``metrics.delta`` for everything since the last one."""
        if self.hub is None:
            return
        current = self.hub.registry.snapshot()
        delta = current.delta_since(self._last)
        self._last = current
        if not len(delta):
            return
        self.deltas_written += 1
        self.emit(
            "metrics.delta",
            cycle=cycle,
            seq=self.deltas_written,
            series=snapshot_to_jsonable(delta),
        )

    def notify_snapshot(self, path, cycle=None):
        """Record a checkpoint-ring write on the run log."""
        self.emit("snapshot.write", cycle=cycle, path=str(path))

    def _emit_window(self, cycle):
        latencies = []
        delivered = 0
        messages = self._log.messages
        while self._msg_cursor < len(messages):
            message = messages[self._msg_cursor]
            self._msg_cursor += 1
            if message.outcome == "delivered":
                delivered += 1
                if message.latency is not None:
                    latencies.append(message.latency)
        stats = {
            "window": self._window_index,
            "start_cycle": self._window_index * self.window_cycles,
            "end_cycle": (self._window_index + 1) * self.window_cycles,
            "delivered": delivered,
        }
        if latencies:
            latencies.sort()
            stats["p50_latency"] = nearest_rank(latencies, 50)
            stats["p95_latency"] = nearest_rank(latencies, 95)
            stats["p99_latency"] = nearest_rank(latencies, 99)
            stats["p999_latency"] = nearest_rank(latencies, 99.9)
        self.emit("window.stats", cycle=cycle, **stats)

    # -- teardown --------------------------------------------------------

    def close(self, summary=None):
        """Flush the final delta, emit ``run.end`` and close the log.

        The final delta covers everything since the last periodic
        flush, so the merge of all ``metrics.delta`` events equals the
        end-of-run snapshot no matter where the run stopped relative
        to the flush period.  Idempotent.
        """
        if self.closed:
            return
        cycle = self._next_cycle
        if self._next_window is not None and cycle is not None:
            # Close the partial tail window so the log accounts for
            # every delivered message.
            if self._msg_cursor < len(self._log.messages):
                self._emit_window(cycle)
        self.flush_delta(cycle)
        fields = {"deltas": self.deltas_written}
        if summary:
            fields["summary"] = summary
        self.emit("run.end", cycle=cycle, **fields)
        self.closed = True
        if self._own_handle and self._handle is not None:
            self._handle.close()
        self._handle = None


# ---------------------------------------------------------------------------
# Reading run logs back
# ---------------------------------------------------------------------------


def read_run_log(path_or_lines):
    """Parse a JSONL run log into a list of event dicts.

    Accepts a path or an iterable of lines.  Blank lines are skipped;
    a torn final line (a crash mid-write) is ignored, everything else
    must parse — a malformed interior line raises ``ValueError`` with
    its line number, and so does any line that parses to something
    other than a JSON object.
    """
    if isinstance(path_or_lines, str):
        with open(path_or_lines) as handle:
            lines = handle.readlines()
    else:
        lines = list(path_or_lines)
    events = []
    for number, line in enumerate(lines, 1):
        line = line.strip()
        if not line:
            continue
        try:
            event = json.loads(line)
        except ValueError:
            if number == len(lines):
                break  # torn tail from an interrupted writer
            raise ValueError(
                "malformed run-log record on line {}: {!r}".format(
                    number, line[:120]
                )
            )
        if not isinstance(event, dict):
            raise ValueError(
                "run-log record on line {} is not a JSON object: "
                "{!r}".format(number, line[:120])
            )
        events.append(event)
    return events


def trim_torn_tail(path):
    """Drop a torn (newline-less) final line before appending to ``path``.

    :func:`read_run_log` tolerates a torn tail, but *appending* after
    one would glue the new record onto the fragment, turning a harmless
    torn tail into a corrupt interior line.  Truncating back to the
    last complete record keeps append-after-crash safe; the torn
    record was never readable anyway.  Every appender that owns its
    file (:class:`TelemetryStream`, :class:`repro.harness.journal
    .RunJournal`) calls this before opening it.
    """
    try:
        with open(path, "rb+") as handle:
            handle.seek(0, os.SEEK_END)
            size = handle.tell()
            if size == 0:
                return
            handle.seek(-1, os.SEEK_END)
            if handle.read(1) == b"\n":
                return
            handle.seek(0)
            data = handle.read()
            keep = data.rfind(b"\n") + 1
            handle.truncate(keep)
        logger.warning(
            "%s: dropped a torn final record (%d byte(s)) before "
            "appending", path, size - keep,
        )
    except OSError:
        return


def merge_stream_metrics(events):
    """Fold a run log's ``metrics.delta`` events into one snapshot.

    The result equals the end-of-run :class:`MetricsSnapshot` of the
    streamed run — the lossless-transport property the stream tests
    pin.
    """
    merged = MetricsSnapshot()
    for event in events:
        if event.get("event") == "metrics.delta":
            merged = merged.merge(snapshot_from_jsonable(event["series"]))
    return merged


def validate_records(events, noun, header, format_tag, required):
    """Schema-check parsed JSONL records; returns the record count.

    The one loop behind :func:`validate_run_log` and
    :func:`repro.harness.journal.validate_journal`: ``events`` (a
    ``noun``, for the messages) must begin with a ``header`` record
    carrying ``format_tag``, every record needs a string ``event``, and
    a kind listed in ``required`` needs every field named there.
    Unknown kinds pass: both formats are forward-extensible.  A
    ``cycle``, where a record has one (every run-log record does, no
    journal record does), must be an integer or null.  Raises
    ``ValueError`` on the first offense.
    """
    if not events:
        raise ValueError("{} is empty".format(noun))
    first = events[0]
    if first.get("event") != header:
        raise ValueError(
            "{} must begin with a {} record".format(noun, header)
        )
    if first.get("format") != format_tag:
        raise ValueError(
            "unknown {} format {!r} (expected {!r})".format(
                noun, first.get("format"), format_tag
            )
        )
    for index, event in enumerate(events):
        kind = event.get("event")
        if not isinstance(kind, str):
            raise ValueError("record {} has no event field".format(index))
        cycle = event.get("cycle")
        if cycle is not None and not isinstance(cycle, int):
            raise ValueError(
                "record {} ({}) has non-integer cycle {!r}".format(
                    index, kind, cycle
                )
            )
        for field in required.get(kind, ()):
            if field not in event:
                raise ValueError(
                    "record {} ({}) is missing field {!r}".format(
                        index, kind, field
                    )
                )
    return len(events)


def validate_run_log(events):
    """Schema-check parsed run-log events; returns the event count.

    Requires a leading ``run.start`` with the known format tag, an
    integer-or-null ``cycle`` on every record, and per-event required
    fields.  Raises ``ValueError`` on the first offense (mirrors
    :func:`repro.telemetry.spans.validate_trace_events` — CI gates
    streamed artifacts with it).
    """
    return validate_records(
        events, "run log", "run.start", STREAM_FORMAT, REQUIRED_FIELDS
    )


# ---------------------------------------------------------------------------
# Rendering run logs (``repro tail``)
# ---------------------------------------------------------------------------


def format_run_log_event(event):
    """One ``tail --follow`` line for a run-log event (None = silent).

    Deltas are deliberately silent in follow mode — they are transport,
    not narrative; the summary rendering folds them into percentiles.
    """
    kind = event.get("event")
    cycle = event.get("cycle")
    if kind == "run.start":
        return "run.start  flush every {} cycles, window {} cycles".format(
            event.get("flush_every"), event.get("window_cycles")
        )
    if kind == "window.stats":
        p50 = event.get("p50_latency")
        p99 = event.get("p99_latency")
        p999 = event.get("p999_latency")
        return (
            "window {:>4} @{:<8} delivered={:<6} p50={} p99={} p999={}".format(
                event.get("window"),
                cycle,
                event.get("delivered"),
                "-" if p50 is None else p50,
                "-" if p99 is None else p99,
                "-" if p999 is None else p999,
            )
        )
    if kind == "fault.transition":
        return "fault       @{:<8} {:<8} {}".format(
            cycle, event.get("action"), event.get("fault")
        )
    if kind == "watchdog.stall":
        return (
            "STALL       @{:<8} no progress for {} cycles, {} pending, "
            "{} violation(s)".format(
                cycle,
                event.get("stalled_cycles"),
                event.get("pending"),
                len(event.get("violations", [])),
            )
        )
    if kind == "snapshot.write":
        return "checkpoint  @{:<8} {}".format(cycle, event.get("path"))
    if kind == "run.end":
        return "run.end     @{:<8} {} delta(s)".format(
            cycle, event.get("deltas")
        )
    return None


def render_run_log(events, last):
    """The ``tail`` summary of a whole (possibly still-growing) run log,
    as lines; tables show the ``last`` windows and fault transitions."""
    # The table formatters are a stdlib-only leaf; imported here because
    # the ``repro.harness`` package imports this module.
    from repro.harness.reporting import (
        format_percentiles,
        format_table,
        sparkline,
    )

    kinds = {}
    for event in events:
        kinds.setdefault(event.get("event"), []).append(event)

    start = events[0]
    line = "run log: {} event(s), flush every {} cycles".format(
        len(events), start.get("flush_every")
    )
    if start.get("window_cycles"):
        line += ", window {} cycles".format(start.get("window_cycles"))
    lines = [line]
    meta = start.get("meta") or {}
    if meta:
        lines.append(
            "  meta: "
            + ", ".join(
                "{}={}".format(key, meta[key]) for key in sorted(meta)
            )
        )

    windows = kinds.get("window.stats", [])
    if windows:
        lines.append("")
        lines.append(
            "delivered/window: {}".format(
                sparkline([w.get("delivered", 0) for w in windows], lo=0)
            )
        )
        rows = [
            {
                "window": w.get("window"),
                "cycles": "{}..{}".format(
                    w.get("start_cycle"), w.get("end_cycle")
                ),
                "delivered": w.get("delivered"),
                "p50": w.get("p50_latency"),
                "p95": w.get("p95_latency"),
                "p99": w.get("p99_latency"),
                "p999": w.get("p999_latency"),
            }
            for w in windows[-last:]
        ]
        title = (
            "last {} of {} windows".format(len(rows), len(windows))
            if len(windows) > len(rows)
            else "windows"
        )
        lines.append(format_table(rows, title=title))

    faults = kinds.get("fault.transition", [])
    if faults:
        lines.append("")
        lines.append("fault transitions: {}".format(len(faults)))
        for event in faults[-last:]:
            lines.append("  " + format_run_log_event(event))

    for event in kinds.get("watchdog.stall", []):
        lines.append("")
        lines.append(format_run_log_event(event))
        for violation in event.get("violations", [])[:5]:
            lines.append(
                "    {} port={} [{}] {}".format(
                    violation.get("component"),
                    violation.get("port"),
                    violation.get("rule"),
                    violation.get("detail"),
                )
            )

    snapshots = kinds.get("snapshot.write", [])
    if snapshots:
        lines.append("")
        lines.append(
            "checkpoints: {} (latest {})".format(
                len(snapshots), snapshots[-1].get("path")
            )
        )

    merged = merge_stream_metrics(events)
    if len(merged):
        lines.append("")
        lines.append(
            format_percentiles(
                merged,
                ["message.latency.cycles", "message.attempts"],
                title="metrics ({} delta(s) merged)".format(
                    len(kinds.get("metrics.delta", []))
                ),
            )
        )

    lines.append("")
    ends = kinds.get("run.end", [])
    if ends:
        summary = ends[-1].get("summary") or {}
        line = "run ended at cycle {}".format(ends[-1].get("cycle"))
        if summary:
            line += ": " + ", ".join(
                "{}={}".format(key, summary[key]) for key in sorted(summary)
            )
        lines.append(line)
    else:
        lines.append("run in progress (no run.end yet)")
    return lines
