"""Durable write-ahead run journal: crash-safe sweeps, run it again.

A sweep that dies forty hours into a chaos soak should cost the time
of the *unfinished* trials, not the whole campaign.  The
:class:`RunJournal` is the durability half of that promise: a
:class:`~repro.harness.parallel.TrialRunner` given one appends a JSONL
record — flushed before :meth:`RunJournal.record` returns, and fsynced
(:meth:`RunJournal.sync`) before the runner waits on its workers, runs
a serial trial or returns — for every trial state transition:

* ``journal.start`` — file header carrying :data:`JOURNAL_FORMAT`;
* ``sweep.start`` — the sweep's full trial manifest (index, stable
  key, label, seed per trial) plus runner configuration;
* ``trial.queued`` / ``trial.start`` / ``trial.done`` /
  ``trial.failed`` / ``trial.quarantined`` — per-trial lifecycle,
  where ``trial.done`` carries the result's content hash
  (:func:`~repro.harness.cache.result_content_hash`) and
  ``trial.failed`` one attempt's failure kind/detail/exit code;
* ``sweep.end`` / ``sweep.interrupted`` — how the sweep stopped.

Trial identity is :func:`~repro.harness.spec.journal_trial_key`:
the spec's cache fingerprint when cacheable (journal and trial cache
agree on identity), else a label key.  That makes continuing a killed
sweep a pure replay, and the way to ask for it is to run the same sweep
on the same journal again: opening a journal that already holds records
reads them first (torn final lines are tolerated, exactly like
:func:`repro.telemetry.stream.read_run_log` — a crash mid-append
never poisons the file) and folds them into each trial's last known
state (:func:`replay_journal`, kept as :attr:`RunJournal.state`).  The
runner then serves every finished trial from the trial cache *after
verifying its content hash matches what the journal recorded*, carries
quarantine reports over, and re-executes only what never finished.
Because every trial is a pure function of its spec, the merged results
are byte-identical to an uninterrupted run — the kill-resume proof in
``tests/harness/test_journal.py`` pins this on both the dense and
events backends.

See ``docs/resilience.md`` for the format and the operational
workflow (``--journal`` on the sweep CLIs).
"""

import json
import os
import time

from repro.harness.cache import QuarantinedTrial
from repro.harness.reporting import format_quarantine_report, format_table
from repro.telemetry.stream import read_run_log, trim_torn_tail, validate_records

#: Format tag carried by ``journal.start``; bump on breaking changes.
JOURNAL_FORMAT = "metro-run-journal-v1"

#: Required fields per journal event kind (:func:`validate_journal`).
JOURNAL_REQUIRED_FIELDS = {
    "journal.start": ("format",),
    "sweep.start": ("total", "trials"),
    "trial.queued": ("index", "key", "label"),
    "trial.start": ("index", "key", "label", "attempt"),
    "trial.done": ("index", "key", "label", "source"),
    "trial.failed": ("index", "key", "label", "attempt", "kind"),
    "trial.quarantined": ("index", "key", "label", "report"),
    "sweep.end": ("total",),
    "sweep.interrupted": ("signum",),
}


class JournalMismatchError(ValueError):
    """This journal cannot take this sweep.

    Either the file is not a readable journal (a directory, malformed
    or undecodable lines, no ``journal.start`` header, an unknown
    format tag), or the trials it records share no key with the sweep:
    the wrong journal, or a code/parameter change moved every
    fingerprint.  Either way nothing in it can be continued, and
    appending this sweep to that file would corrupt its history.
    """


class RunJournal:
    """Append-only JSONL write-ahead journal for sweep state.

    Every :meth:`record` is one JSON object per line, written and
    flushed before returning: once in the kernel, a record survives a
    SIGKILL of the writer.  :meth:`sync` fsyncs what was written since
    the last sync, and :meth:`close` syncs, so a power cut loses at most
    the records after the writer's last sync; every trial being a pure
    function of its spec, those trials just run again.  The worst a
    crash can leave is one torn final line, which every reader here
    tolerates.  Opening an existing journal reads it, keeps the replay
    as :attr:`state` (what the file held when it was opened; the records
    this handle appends are not folded in) and appends after it — a
    re-run extends the same history; opening a fresh path writes the
    ``journal.start`` header first.  A file that is not a journal
    raises :class:`JournalMismatchError` with its bytes untouched.

    :param path: journal file path (parent directories are created).
    """

    def __init__(self, path):
        self.path = str(path)
        try:
            os.makedirs(
                os.path.dirname(os.path.abspath(self.path)), exist_ok=True
            )
            events = read_run_log(self.path) if os.path.exists(self.path) else []
            self.state = _journal_state(events) if events else JournalState()
        except (OSError, ValueError) as exc:
            raise JournalMismatchError(
                "journal {} cannot be continued: {}".format(self.path, exc)
            ) from exc
        trim_torn_tail(self.path)
        self._handle = open(self.path, "a")
        self.records_written = 0
        self._synced = 0  # records_written at the last sync
        if not events:
            self.record("journal.start", format=JOURNAL_FORMAT, pid=os.getpid())

    @property
    def closed(self):
        return self._handle is None

    def record(self, event, **fields):
        """Append one ``event`` record with ``fields`` and flush it."""
        if self._handle is None:
            return
        entry = {"event": event, "t": round(time.time(), 6)}
        entry.update(fields)
        self._handle.write(json.dumps(entry, sort_keys=True) + "\n")
        self._handle.flush()
        self.records_written += 1

    def sync(self):
        """fsync the records written since the last sync, if any."""
        if self._synced != self.records_written:
            os.fsync(self._handle.fileno())
            self._synced = self.records_written

    def close(self):
        """Sync and close the file (idempotent); further records are
        dropped."""
        if self._handle is not None:
            self.sync()
            self._handle.close()
            self._handle = None

    def __enter__(self):
        return self

    def __exit__(self, *_exc):
        self.close()
        return False

    def __repr__(self):
        return "<RunJournal {} ({} records{})>".format(
            self.path, self.records_written,
            ", closed" if self.closed else "",
        )


def validate_journal(events):
    """Schema-check parsed journal events; returns the event count.

    Requires the leading ``journal.start`` header with the known
    format tag and the per-kind required fields
    (:data:`JOURNAL_REQUIRED_FIELDS`).  Unknown kinds pass — the
    format is forward-extensible — but known kinds missing fields
    raise ``ValueError``.
    """
    return validate_records(
        events, "journal", "journal.start", JOURNAL_FORMAT,
        JOURNAL_REQUIRED_FIELDS,
    )


class JournalState:
    """The replayed view of a journal: where every trial got to.

    Built by :func:`replay_journal`.  Keys throughout are
    :func:`~repro.harness.spec.journal_trial_key` values.
    """

    def __init__(self):
        #: key -> {"index", "label", "seed"} from the sweep manifest.
        self.trials = {}
        #: key -> {"source", "result_hash", "elapsed"} for finished trials.
        self.done = {}
        #: key -> quarantine report dict (:meth:`QuarantinedTrial.as_dict`).
        self.quarantined = {}
        #: key -> highest attempt number observed.
        self.attempts = {}
        #: keys dispatched (``trial.start``) but never finished — a
        #: crash caught them mid-flight.
        self.started = set()
        #: signal name from ``sweep.interrupted``, else None.
        self.interrupted = None
        #: True once a ``sweep.end`` was recorded.
        self.completed = False

    @property
    def unfinished(self):
        """Manifest keys with neither a result nor a quarantine report."""
        return [
            key for key in self.trials
            if key not in self.done and key not in self.quarantined
        ]

    def describe(self):
        return (
            "{} trial(s): {} done, {} quarantined, {} unfinished"
            " ({} mid-flight){}{}".format(
                len(self.trials), len(self.done), len(self.quarantined),
                len(self.unfinished), len(self.started),
                "; interrupted by {}".format(self.interrupted)
                if self.interrupted else "",
                "; completed" if self.completed else "",
            )
        )

    def __repr__(self):
        return "<JournalState {}>".format(self.describe())


def replay_journal(events):
    """Fold parsed journal events into a :class:`JournalState`.

    Later records win (a retry's ``trial.failed`` after an earlier
    one, a ``trial.done`` after a crash on a previous attempt), so the
    state reflects each trial's *last* known transition.  Multiple
    ``sweep.start`` manifests merge — lazy sweeps
    (:func:`~repro.harness.saturation.saturation_search`) run one
    runner batch per probed point against the same journal.
    """
    state = JournalState()
    for event in events:
        kind = event.get("event")
        key = event.get("key")
        if kind == "sweep.start":
            for trial in event.get("trials", ()):
                if trial.get("key") is not None:
                    state.trials.setdefault(trial["key"], dict(trial))
        elif kind == "trial.queued":
            if key is not None:
                state.trials.setdefault(key, {
                    "index": event.get("index"),
                    "key": key,
                    "label": event.get("label"),
                    "seed": event.get("seed"),
                })
        elif kind == "trial.start":
            if key is not None:
                state.started.add(key)
                attempt = event.get("attempt") or 0
                if attempt > state.attempts.get(key, 0):
                    state.attempts[key] = attempt
        elif kind == "trial.done":
            if key is not None:
                state.done[key] = {
                    "source": event.get("source"),
                    "result_hash": event.get("result_hash"),
                    "elapsed": event.get("elapsed"),
                }
                state.started.discard(key)
        elif kind == "trial.failed":
            if key is not None:
                attempt = event.get("attempt") or 0
                if attempt > state.attempts.get(key, 0):
                    state.attempts[key] = attempt
        elif kind == "trial.quarantined":
            if key is not None:
                state.quarantined[key] = event.get("report") or {}
                state.started.discard(key)
        elif kind == "sweep.end":
            state.completed = True
        elif kind == "sweep.interrupted":
            state.interrupted = event.get("signal") or str(event.get("signum"))
    return state


def _journal_state(events):
    """The :class:`JournalState` of parsed journal records, schema-checked
    first (``ValueError``): how :class:`RunJournal` and
    :func:`load_journal_state` read a journal."""
    validate_journal(events)
    return replay_journal(events)


def load_journal_state(path):
    """Read + validate + replay ``path`` in one call."""
    return _journal_state(read_run_log(path))


def format_journal_event(event):
    """One ``tail --follow`` line for a journal record (None = silent)."""
    kind = event.get("event")
    if kind == "journal.start":
        return "journal.start ({}, pid {})".format(
            event.get("format"), event.get("pid")
        )
    if kind == "sweep.start":
        return "sweep.start {} trial(s), {} worker(s)".format(
            event.get("total"), event.get("workers")
        )
    if kind == "trial.start":
        return "trial       [{}] {} attempt {} on worker {}".format(
            event.get("index"), event.get("label"),
            event.get("attempt"), event.get("worker"),
        )
    if kind == "trial.done":
        elapsed = event.get("elapsed")
        return "trial done  [{}] {} ({}{})".format(
            event.get("index"), event.get("label"), event.get("source"),
            "" if elapsed is None else ", {:.2f}s".format(elapsed),
        )
    if kind == "trial.failed":
        return "trial FAIL  [{}] {} attempt {}: {} ({})".format(
            event.get("index"), event.get("label"), event.get("attempt"),
            event.get("kind"), event.get("detail"),
        )
    if kind == "trial.quarantined":
        return "QUARANTINE  [{}] {}".format(
            event.get("index"), event.get("label")
        )
    if kind == "sweep.end":
        return (
            "sweep.end   {} trial(s): {} executed, {} cached, "
            "{} quarantined".format(
                event.get("total"), event.get("executed"),
                event.get("cached"), event.get("quarantined"),
            )
        )
    if kind == "sweep.interrupted":
        return (
            "INTERRUPT   {} — journal flushed, run the same command "
            "again".format(event.get("signal") or event.get("signum"))
        )
    return None


def render_journal(events, last):
    """The ``tail`` summary of a run journal, as lines; the trial table
    shows the ``last`` trial events (see ``docs/resilience.md``)."""
    state = replay_journal(events)
    lines = [
        "run journal: {} event(s); {}".format(len(events), state.describe())
    ]

    rows = []
    for event in events:
        kind = event.get("event")
        if kind == "trial.done":
            detail = event.get("source")
            elapsed = event.get("elapsed")
            if elapsed is not None:
                detail = "{} ({:.2f}s)".format(detail, elapsed)
        elif kind == "trial.failed":
            detail = "{}: {}".format(
                event.get("kind"), (event.get("detail") or "")[:40]
            )
        elif kind == "trial.quarantined":
            detail = "attempt budget exhausted"
        else:
            continue
        rows.append(
            {
                "trial": event.get("label"),
                "event": kind.split(".", 1)[1],
                "attempt": event.get("attempt", "-"),
                "detail": detail,
            }
        )
    if rows:
        shown = rows[-last:]
        title = (
            "last {} of {} trial event(s)".format(len(shown), len(rows))
            if len(rows) > len(shown)
            else "trial events"
        )
        lines.append("")
        lines.append(format_table(shown, title=title))

    if state.quarantined:
        reports = [
            QuarantinedTrial.from_dict(report)
            for report in state.quarantined.values()
        ]
        lines.append("")
        lines.append(format_quarantine_report(reports))

    lines.append("")
    if state.interrupted:
        lines.append(
            "sweep interrupted by {} (run the same command again to "
            "finish it)".format(state.interrupted)
        )
    elif state.completed:
        lines.append("sweep completed")
    else:
        lines.append("sweep in progress (no sweep.end yet)")
    return lines
