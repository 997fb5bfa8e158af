"""Durable write-ahead run journal: crash-safe sweeps, kill-resume.

A sweep that dies forty hours into a chaos soak should cost the time
of the *unfinished* trials, not the whole campaign.  The
:class:`RunJournal` is the durability half of that promise: a
:class:`~repro.harness.parallel.TrialRunner` given one appends a JSONL
record — flushed *and* fsynced before the runner proceeds — for every
trial state transition:

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
agree on identity), else a label key.  That makes resume a pure
replay: :func:`resume_sweep` reads the journal (torn final lines are
tolerated, exactly like
:func:`repro.telemetry.stream.read_run_log` — a crash mid-append
never poisons the file), reconstructs each trial's last known state
(:func:`replay_journal`), serves every finished trial from the trial
cache *after verifying its content hash matches what the journal
recorded*, carries quarantine reports over, and re-executes only what
never finished.  Because every trial is a pure function of its spec,
the merged results are byte-identical to an uninterrupted run — the
kill-resume proof in ``tests/harness/test_journal.py`` pins this on
both the dense and events backends.

See ``docs/resilience.md`` for the format and the operational
workflow (``--journal`` / ``--resume`` on the sweep CLIs).
"""

import json
import logging
import os
import time

from repro.harness.cache import CACHE_MISS, QuarantinedTrial, result_content_hash
from repro.telemetry.stream import read_run_log, trim_torn_tail

logger = logging.getLogger(__name__)

#: Format tag carried by ``journal.start``; bump on breaking changes.
JOURNAL_FORMAT = "metro-run-journal-v1"

#: Required fields per journal event kind (:func:`validate_journal`;
#: also folded into run-log validation so journal events embedded in a
#: run log validate there too).
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


class RunJournal:
    """Append-only JSONL write-ahead journal for sweep state.

    Every :meth:`record` is one JSON object per line, written, flushed
    and fsynced before returning — the write-ahead
    discipline that makes a SIGKILL at any instant recoverable.  The
    worst a crash can leave is one torn final line, which every reader
    here tolerates.  Opening an existing journal appends to it (a
    resumed run extends the same history); opening a fresh path writes
    the ``journal.start`` header first.

    :param path: journal file path (parent directories are created).
    """

    def __init__(self, path):
        self.path = str(path)
        parent = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(parent, exist_ok=True)
        trim_torn_tail(self.path)
        fresh = (
            not os.path.exists(self.path)
            or os.path.getsize(self.path) == 0
        )
        self._handle = open(self.path, "a")
        self.records_written = 0
        if fresh:
            self.record("journal.start", format=JOURNAL_FORMAT, pid=os.getpid())

    @property
    def closed(self):
        return self._handle is None

    def record(self, event, **fields):
        """Durably append one ``event`` record with ``fields``."""
        if self._handle is None:
            return
        entry = {"event": event, "t": round(time.time(), 6)}
        entry.update(fields)
        self._handle.write(json.dumps(entry, sort_keys=True) + "\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())
        self.records_written += 1

    def close(self):
        """Close the file (idempotent); further records are dropped."""
        if self._handle is not None:
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


def read_journal(path_or_lines):
    """Parse a journal into event dicts (torn final line tolerated).

    Same parser and tolerance contract as
    :func:`repro.telemetry.stream.read_run_log`: blank lines are
    skipped, a malformed *final* line (crash mid-append) is dropped,
    a malformed interior line raises ``ValueError``.
    """
    return read_run_log(path_or_lines)


def validate_journal(events):
    """Schema-check parsed journal events; returns the event count.

    Requires the leading ``journal.start`` header with the known
    format tag and the per-kind required fields
    (:data:`JOURNAL_REQUIRED_FIELDS`).  Unknown kinds pass — the
    format is forward-extensible — but known kinds missing fields
    raise ``ValueError``.
    """
    if not events:
        raise ValueError("journal is empty")
    first = events[0]
    if first.get("event") != "journal.start":
        raise ValueError("journal must begin with a journal.start record")
    if first.get("format") != JOURNAL_FORMAT:
        raise ValueError(
            "unknown journal format {!r} (expected {!r})".format(
                first.get("format"), JOURNAL_FORMAT
            )
        )
    for index, event in enumerate(events):
        kind = event.get("event")
        if not isinstance(kind, str):
            raise ValueError("record {} has no event field".format(index))
        for field in JOURNAL_REQUIRED_FIELDS.get(kind, ()):
            if field not in event:
                raise ValueError(
                    "record {} ({}) is missing field {!r}".format(
                        index, kind, field
                    )
                )
    return len(events)


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
    (:func:`~repro.harness.saturation.find_saturation`) run one
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


def load_journal_state(path):
    """Read + validate + replay ``path`` in one call."""
    events = read_journal(path)
    validate_journal(events)
    return replay_journal(events)


def precomputed_from_state(state, trials, cache):
    """``{trial index: result}`` a journal replay can serve for ``trials``.

    ``trials`` are the runner's per-trial records (``index``, ``spec``,
    ``journal_key``, ``cache_key`` or None), so a spec's identity is the
    one the runner already computed for this batch.  The resume
    decision per trial, made by a resuming
    :class:`~repro.harness.parallel.TrialRunner` (``resume_from=`` or
    :func:`resume_sweep`) at the top of every batch:

    * a trial with a ``trial.done`` record is fetched from the trial
      ``cache`` and served **only if** its content hash matches the
      hash the journal recorded — a corrupt or foreign cache entry is
      re-executed, never trusted;
    * a quarantined trial's report is carried over as-is (it spent its
      attempt budget; resuming is not a free retry — re-run without
      resuming to try again);
    * an unfinished trial — never started, or caught *mid-flight* —
      is left out: it re-executes on the runner like any other trial
      (a checkpointed chaos soak then continues from its own snapshot
      ring instead of starting over).

    Serving nothing is always safe: trials are pure functions of
    their specs, so re-execution reproduces the journaled results
    byte-identically, just slower.
    """
    precomputed = {}
    recomputing = []
    for trial in trials:
        label = trial.spec.label
        report = state.quarantined.get(trial.journal_key)
        if report is not None:
            precomputed[trial.index] = QuarantinedTrial.from_dict(report)
            continue
        entry = state.done.get(trial.journal_key)
        if entry is None:
            continue
        if cache is None or trial.cache_key is None:
            recomputing.append(label)
            continue
        hit = cache.get(trial.cache_key)
        if hit is CACHE_MISS:
            recomputing.append(label)
            continue
        expected = entry.get("result_hash")
        if expected is not None and result_content_hash(hit) != expected:
            logger.warning(
                "resume: cached result for trial %r does not match the "
                "journal's content hash; re-executing", label,
            )
            recomputing.append(label)
            continue
        precomputed[trial.index] = hit
    if recomputing:
        shown = ", ".join(recomputing[:5])
        if len(recomputing) > 5:
            shown += ", ..."
        logger.warning(
            "resume: %d journal-finished trial(s) not servable from the "
            "trial cache; re-executing deterministically: %s",
            len(recomputing), shown,
        )
    return precomputed


def resume_sweep(journal_path, specs, runner):
    """Finish an interrupted sweep; returns results in spec order.

    Points ``runner`` at the journal (:meth:`TrialRunner.resume
    <repro.harness.parallel.TrialRunner.resume>`, what
    ``TrialRunner(resume_from=journal_path)`` does at construction)
    and runs ``specs`` on it, so every
    already-finished trial is served as a precomputed result (progress
    source ``"resumed"``) per :func:`precomputed_from_state`.

    Because trials are pure functions of their specs, the merged
    results are byte-identical to an uninterrupted run.  Raises
    :class:`~repro.harness.parallel.JournalMismatchError` (a
    ``ValueError``) when the journal shares no trial keys with
    ``specs`` — the wrong journal, or a code change moved every
    fingerprint, either way nothing can be safely resumed.

    Point the runner's own ``journal`` at the same path to extend the
    history: the resumed leg appends its records after the crash
    point.
    """
    runner.resume(journal_path)
    return runner.run(specs)
