"""Span-based message lifecycle tracing with Chrome trace-event export.

A *span* is a named interval on a *track* (one endpoint source port,
one router) measured in simulated cycles.  The endpoint protocol maps
naturally onto a span tree per send attempt::

    attempt #1 ──────────────────────────────┐
      setup (header words)                   │
      stream (payload + checksum + TURN)     │
      reply (await STATUS/ack)               │
    attempt #2 ...                           │

with zero-length *instants* marking point events (a BCB drop arriving,
a router opening or turning a connection).

:meth:`SpanRecorder.timeline` renders everything as text, one line per
span or instant in cycle order (``repro send --verbose`` prints it);
:meth:`SpanRecorder.to_chrome` renders it as Chrome
trace-event JSON (the ``traceEvents`` array format), which loads
directly in Perfetto (https://ui.perfetto.dev) or ``chrome://tracing``
— one simulated cycle is exported as one microsecond.
:func:`validate_trace_events` checks a document against the subset of
the trace-event schema we emit; CI runs it over the artifact exported
by ``repro send --trace-export``.
"""

import json

#: Phase constants from the Chrome trace-event format.
_PH_COMPLETE = "X"
_PH_INSTANT = "i"
_PH_METADATA = "M"


class Span:
    """One completed (or still-open) interval on a track."""

    __slots__ = ("track", "name", "cat", "begin", "end", "args", "depth")

    def __init__(self, track, name, cat, begin, args, depth):
        self.track = track
        self.name = name
        self.cat = cat
        self.begin = begin
        self.end = None
        self.args = args
        self.depth = depth

    @property
    def duration(self):
        return None if self.end is None else self.end - self.begin

    def __repr__(self):
        return "<Span {} {} @{}..{}>".format(
            self.track, self.name, self.begin, self.end
        )


class SpanRecorder:
    """Collects spans and instants; renders them as text or Chrome JSON."""

    def __init__(self):
        self.completed = []  # spans and instants, in the order they ended
        self._open = {}  # track -> stack of open spans

    # -- recording -------------------------------------------------------

    def begin(self, cycle, track, name, cat="span", args=None):
        """Open a span on ``track``; nests under any open span there."""
        stack = self._open.setdefault(track, [])
        span = Span(track, name, cat, cycle, dict(args or {}), len(stack))
        stack.append(span)
        return span

    def end(self, cycle, track, args=None):
        """Close the innermost open span on ``track`` (no-op if none)."""
        stack = self._open.get(track)
        if not stack:
            return None
        span = stack.pop()
        span.end = cycle
        if args:
            span.args.update(args)
        self.completed.append(span)
        return span

    def end_all(self, cycle, track, args=None):
        """Close every open span on ``track``, innermost first."""
        closed = []
        while self._open.get(track):
            closed.append(self.end(cycle, track, args=args))
        return closed

    def instant(self, cycle, track, name, cat="event", args=None):
        """Record a zero-length point event on ``track``."""
        span = Span(track, name, cat, cycle, dict(args or {}), 0)
        span.end = cycle
        self.completed.append(span)
        return span

    # -- queries ---------------------------------------------------------

    def _open_spans(self):
        return [span for stack in self._open.values() for span in stack]

    def spans(self, name=None):
        """Completed spans, optionally only those called ``name``."""
        return [
            span for span in self.completed if name is None or span.name == name
        ]

    def timeline(self):
        """The timeline as text: one line per span or instant.

        Lines are in cycle order, a span at the cycle it began and
        enclosing spans first; each gives the cycle (``begin..end`` for
        a span, ``begin..`` while it is still open), track, name and
        args.
        """
        records = self.completed + self._open_spans()
        records.sort(
            key=lambda s: (s.begin, -(float("inf") if s.end is None else s.end))
        )
        lines = []
        for span in records:
            extent = ""
            if span.end != span.begin:
                extent = "..{}".format("" if span.end is None else span.end)
            args = " ".join(
                "{}={}".format(key, value) for key, value in span.args.items()
            )
            lines.append(
                "@{:>4}{:<6} {:>10} {:<22} {}".format(
                    span.begin, extent, span.track, span.name, args
                ).rstrip()
            )
        return lines

    # -- export ----------------------------------------------------------

    def to_chrome(self, final_cycle=None):
        """The Chrome trace-event document (a picklable plain dict).

        Still-open spans are exported as running to ``final_cycle``
        (default: the latest cycle seen) with an ``unfinished`` arg, so
        a trace cut mid-connection still renders.  Tracks become
        threads of a single process; thread ids are assigned in sorted
        track-name order, so the export is deterministic.
        """
        records = self.completed
        open_spans = self._open_spans()
        horizon = final_cycle
        if horizon is None:
            horizon = 0
            for span in records + open_spans:
                horizon = max(horizon, span.begin, span.end or span.begin)

        tracks = sorted(
            {span.track for span in records}
            | {span.track for span in open_spans}
        )
        tids = {track: index + 1 for index, track in enumerate(tracks)}

        events = [
            {
                "name": "process_name",
                "ph": _PH_METADATA,
                "pid": 1,
                "tid": 0,
                "args": {"name": "metro-sim"},
            }
        ]
        for track in tracks:
            events.append(
                {
                    "name": "thread_name",
                    "ph": _PH_METADATA,
                    "pid": 1,
                    "tid": tids[track],
                    "args": {"name": track},
                }
            )

        def _emit(span, end, extra_args=None):
            args = dict(span.args)
            if extra_args:
                args.update(extra_args)
            if end == span.begin:
                event = {
                    "name": span.name,
                    "cat": span.cat,
                    "ph": _PH_INSTANT,
                    "s": "t",
                    "ts": span.begin,
                    "pid": 1,
                    "tid": tids[span.track],
                    "args": args,
                }
            else:
                event = {
                    "name": span.name,
                    "cat": span.cat,
                    "ph": _PH_COMPLETE,
                    "ts": span.begin,
                    "dur": end - span.begin,
                    "pid": 1,
                    "tid": tids[span.track],
                    "args": args,
                }
            events.append(event)

        for span in records:
            _emit(span, span.end)
        for span in sorted(open_spans, key=lambda s: (s.track, s.begin)):
            _emit(span, max(horizon, span.begin), {"unfinished": True})

        body = sorted(
            events[1 + len(tracks):],
            key=lambda e: (e["ts"], e["tid"], -e.get("dur", 0), e["name"]),
        )
        return {
            "traceEvents": events[: 1 + len(tracks)] + body,
            "displayTimeUnit": "ms",
            "otherData": {"time_unit": "1 cycle = 1us"},
        }

    def export(self, path, **kwargs):
        """Write :meth:`to_chrome` JSON to ``path``; returns the doc."""
        document = self.to_chrome(**kwargs)
        with open(path, "w") as handle:
            json.dump(document, handle, indent=1)
        return document


#: Instant-event scopes the trace-event format allows.
_INSTANT_SCOPES = {"g", "p", "t"}
_KNOWN_PHASES = {_PH_COMPLETE, _PH_INSTANT, _PH_METADATA, "B", "E", "b", "e", "n"}


def validate_trace_events(document):
    """Check ``document`` against the trace-event schema subset we emit.

    Accepts either the object form (``{"traceEvents": [...]}``) or a
    bare event array.  Raises :class:`ValueError` describing the first
    few problems; returns the number of events on success.  This is
    the gate CI applies to the artifact from ``repro send
    --trace-export`` before uploading it.
    """
    if isinstance(document, dict):
        events = document.get("traceEvents")
        if not isinstance(events, list):
            raise ValueError("object form needs a 'traceEvents' array")
    elif isinstance(document, list):
        events = document
    else:
        raise ValueError(
            "trace must be an event array or an object with 'traceEvents'"
        )

    problems = []
    for index, event in enumerate(events):
        where = "event[{}]".format(index)
        if not isinstance(event, dict):
            problems.append("{}: not an object".format(where))
            continue
        phase = event.get("ph")
        if phase not in _KNOWN_PHASES:
            problems.append("{}: unknown phase {!r}".format(where, phase))
            continue
        if not isinstance(event.get("name"), str):
            problems.append("{}: missing/non-string 'name'".format(where))
        for field in ("pid", "tid"):
            if not isinstance(event.get(field), int):
                problems.append(
                    "{}: missing/non-integer {!r}".format(where, field)
                )
        if phase != _PH_METADATA:
            ts = event.get("ts")
            if not isinstance(ts, (int, float)) or ts < 0:
                problems.append("{}: bad 'ts' {!r}".format(where, ts))
        if phase == _PH_COMPLETE:
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append("{}: bad 'dur' {!r}".format(where, dur))
        if phase == _PH_INSTANT and event.get("s", "t") not in _INSTANT_SCOPES:
            problems.append(
                "{}: bad instant scope {!r}".format(where, event.get("s"))
            )
        if "args" in event and not isinstance(event["args"], dict):
            problems.append("{}: 'args' must be an object".format(where))
        if len(problems) >= 10:
            problems.append("... (further problems suppressed)")
            break
    if problems:
        raise ValueError(
            "invalid trace-event JSON:\n  " + "\n  ".join(problems)
        )
    return len(events)
