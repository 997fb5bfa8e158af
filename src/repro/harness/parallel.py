"""Parallel trial execution: the runner and its policy.

Every sweep in :mod:`repro.harness` is a set of *independent* trials —
one network, one workload, one measured window — whose results are
aggregated afterwards.  That structure is embarrassingly parallel, and
this module is the shared execution layer that exploits it:

* :class:`~repro.harness.spec.TrialSpec` (:mod:`repro.harness.spec`) —
  a picklable description of one trial: a runner function (named by
  ``"module:function"`` so worker processes import it fresh), its
  parameters, and the trial's derived seed; and the trial's identity.
* :class:`~repro.harness.cache.TrialCache` (:mod:`repro.harness.cache`)
  — an on-disk result store keyed by a content hash of (runner,
  parameters, seed, code version), so re-running a sweep skips every
  point that has already been computed; and the result encoding.
* :class:`~repro.harness.pool.WorkerPool` (:mod:`repro.harness.pool`) —
  the supervised worker processes: mechanism, no policy.
* :class:`TrialRunner` (here) — executes a list of specs, serially
  (``workers=1``) or on the pool, and owns every decision: cache
  first, journal every transition, retry / quarantine / raise a failed
  attempt, report progress, stop cleanly on a signal.  Every name the
  three modules above define is re-exported from here.

The pool is supervised rather than a bare ``multiprocessing.Pool``:
the parent dispatches one trial at a time to each worker process and
watches the workers themselves, so a worker that *dies* mid-trial
(SIGKILL, OOM-kill, a segfaulting extension — failures an exception
handler never sees) is detected, reaped and replaced, and its trial is
retried under a :class:`TrialBackoff` policy (exponential backoff with
jitter and a per-trial attempt budget, mirroring
:mod:`repro.endpoint.retry`).  A trial that keeps killing its workers
is eventually *quarantined*: the sweep completes and the poison trial
surfaces as a structured :class:`QuarantinedTrial` report in the
results instead of hanging or crashing the whole sweep.  When a dead
worker cannot be respawned the pool shrinks and carries on with the
workers it has.  A worker answers on the private pipe its task went out
on, so every report the pool hands back is of a trial's current
attempt: the runner keeps no record of what is in flight and has no
late reply to drop.  See ``docs/resilience.md``.

Durability: pass ``journal=`` (a :class:`~repro.harness.journal
.RunJournal` or a path) and every trial's state transitions
(queued → running → done/failed/quarantined) are appended to a
crash-safe JSONL journal as they happen, and fsynced once per commit
point: before the runner waits on the pool, runs a serial trial or
returns.  SIGTERM/SIGINT mid-sweep flushes the journal and shuts the
pool down cleanly instead of tearing the run.  A runner given a
journal that already holds records replays it against the trial cache
first, so running an interrupted sweep again on the same journal
finishes it from where it died.

Determinism: each trial receives its own seed derived from the sweep's
root seed via :func:`repro.core.random_source.derive_seed`, and every
trial builds its network/workload from that seed alone.  No state is
shared between trials, so a pool of workers and a serial loop produce
bit-identical results — the serial-vs-parallel equivalence test in
``tests/harness/test_parallel.py`` pins this.

Cache invalidation: the cache key includes a fingerprint of the
installed ``repro`` source tree, so any code change invalidates every
cached trial.  ``REPRO_CODE_VERSION`` overrides the fingerprint (for
benchmarking cache behaviour itself).  See ``docs/parallel.md``.
"""

import collections
import heapq
import itertools
import logging
import os
import random
import signal
import threading
import time

from repro.harness.cache import (  # noqa: F401  (re-exported)
    CACHE_MISS,
    QuarantinedTrial,
    TrialCache,
    is_quarantined,
    partition_quarantined,
    result_content_hash,
)
from repro.harness.journal import JournalMismatchError, JournalState, RunJournal
from repro.harness.pool import WorkerPool, check_sendable
from repro.harness.spec import (  # noqa: F401  (re-exported)
    TrialSpec,
    execute_trial,
    journal_trial_key,
    repro_code_version,
    trial_keys,
)

logger = logging.getLogger(__name__)


class TrialTimeoutError(RuntimeError):
    """A worker trial exceeded the runner's wall-clock timeout.

    The hung worker is killed and the pool shut down before this is
    raised, so a stuck trial never leaves orphaned workers behind.
    When the runner was given a ``heartbeat_dir``, :attr:`heartbeat`
    carries the hung trial's last liveness heartbeat (cycle, delivered
    count, stall flag) so the failure names where the run got to
    instead of timing out silently.  Raised only when the trial's
    attempt budget is exhausted and the runner is not quarantining
    (see :class:`TrialRunner`).
    """

    def __init__(self, message, heartbeat=None):
        super().__init__(message)
        self.heartbeat = heartbeat


class WorkerCrashError(RuntimeError):
    """A pool worker died (SIGKILL/OOM/segfault) while running a trial.

    Raised only when the trial's attempt budget is exhausted and the
    runner is not quarantining; with ``on_exhausted="quarantine"`` the
    sweep completes and the trial surfaces as a
    :class:`QuarantinedTrial` instead.
    """


class SweepInterrupted(RuntimeError):
    """SIGTERM/SIGINT arrived mid-sweep (journaled runs only).

    The runner flushes a ``sweep.interrupted`` journal record and
    shuts the pool down cleanly before raising, so the journal +
    trial cache describe exactly what finished — running the same
    sweep on the same journal again picks up from there.
    """

    def __init__(self, message, signum=None):
        super().__init__(message)
        self.signum = signum


class TrialBackoff:
    """Backoff policy for re-dispatching failed trial attempts.

    The harness-scale mirror of the endpoint's retry discipline: the
    wait ceiling starts at ``base`` seconds and grows by
    :attr:`factor` with each failed attempt up to :attr:`max_delay`
    seconds, and with ``jitter`` the actual wait is
    drawn uniformly from ``[0, ceiling]`` (decorrelates retries when
    several workers died together, e.g. an OOM sweep; ``jitter=False``
    is for tests that assert on the waits).
    ``max_attempts`` is the per-trial attempt budget — the harness
    analogue of the endpoint's ``max_attempts`` — after which the
    trial is quarantined or the failure raised (the runner's
    ``on_exhausted`` knob).
    """

    factor = 2.0
    max_delay = 30.0

    def __init__(self, max_attempts=3, base=0.25, jitter=True):
        if max_attempts < 1:
            raise ValueError(
                "max_attempts must be >= 1, got {}".format(max_attempts)
            )
        if not 0 <= base <= self.max_delay:
            raise ValueError(
                "need 0 <= base <= {}, got {}".format(self.max_delay, base)
            )
        self.max_attempts = int(max_attempts)
        self.base = base
        self.jitter = jitter
        self._rng = random.Random(0)

    def delay(self, attempt):
        """Seconds to wait before re-dispatching after failed ``attempt``."""
        ceiling = min(
            self.max_delay, self.base * self.factor ** max(0, attempt - 1)
        )
        if self.jitter:
            return self._rng.uniform(0.0, ceiling)
        return ceiling

    def describe(self):
        return "backoff(attempts={}, base={}s, factor={}{})".format(
            self.max_attempts, self.base, self.factor,
            ", jitter" if self.jitter else "",
        )


def _normalize_retries(retries):
    """``retries`` knob -> a :class:`TrialBackoff` (int = attempt budget)."""
    if retries is None:
        return TrialBackoff(max_attempts=1, base=0.0)
    if isinstance(retries, int):
        return TrialBackoff(max_attempts=retries)
    return retries


class TrialEvent:
    """One progress report: trial ``index`` of ``total`` finished.

    ``source`` is ``"executed"``, ``"cache"``, ``"resumed"`` (the
    runner's journal already records the trial finished: served from
    the cache, content hash verified), ``"timeout"`` (the
    trial was killed at the runner's wall-clock limit), or
    ``"quarantined"`` (the trial exhausted its attempt budget and the
    sweep carried on without it).  On a parallel pool, events fire in
    *completion* order, which can differ from submission order.
    ``seconds``
    is the trial's own compute time (0.0 for cache hits);
    ``duration`` is wall-clock from submission to completion as the
    runner saw it, including pool queueing — on a saturated pool
    ``duration >> seconds`` means the trial *waited*, not that it was
    slow.  ``heartbeat`` is the hung trial's last liveness heartbeat
    dict on timeout events, else None.
    """

    __slots__ = ("index", "total", "label", "seconds", "source", "duration", "heartbeat")

    def __init__(
        self, index, total, label, seconds, source,
        duration=None, heartbeat=None,
    ):
        self.index = index
        self.total = total
        self.label = label
        self.seconds = seconds
        self.source = source
        self.duration = seconds if duration is None else duration
        self.heartbeat = heartbeat

    @property
    def cached(self):
        return self.source in ("cache", "resumed")

    @property
    def timed_out(self):
        return self.source == "timeout"

    @property
    def quarantined(self):
        return self.source == "quarantined"

    def __repr__(self):
        return "<TrialEvent {}/{} {} {}>".format(
            self.index + 1, self.total, self.label, self.source
        )


class TrialStats:
    """Counters for one :meth:`TrialRunner.run` batch (cumulative)."""

    def __init__(self):
        self.executed = 0
        self.cached = 0
        self.seconds = 0.0

    def __repr__(self):
        return "<TrialStats executed={} cached={} {:.2f}s>".format(
            self.executed, self.cached, self.seconds
        )


class _Trial:
    """One trial of one :meth:`TrialRunner.run` batch: everything the
    runner knows about it, in one place.

    Built once per spec per batch, so the spec's identity is computed
    once (a spec is mutable, hence here and not on :class:`TrialSpec`);
    the lookup, the serial loop, the pool loop and
    :meth:`TrialRunner._attempt_failed` all pass this record around
    instead of its fields.
    """

    __slots__ = (
        "index", "total", "spec", "journal_key", "cache_key", "attempt",
        "failures", "started", "resolved", "result", "result_hash",
    )

    def __init__(self, index, total, spec):
        self.index = index
        self.total = total
        self.spec = spec
        self.journal_key, self.cache_key = trial_keys(spec)
        #: Attempts dispatched so far.
        self.attempt = 0
        self.failures = []
        self.started = None
        self.resolved = False
        self.result = None
        #: The result's content hash, once something has computed it.
        self.result_hash = None


class TrialRunner:
    """Execute :class:`TrialSpec` lists with caching and parallelism.

    :param workers: 1 = run in-process (no pool, no pickling
        requirements); N>1 = fan out across a supervised worker pool.
    :param cache_dir: directory for a :class:`TrialCache`; None
        disables caching.
    :param progress: optional callback receiving a :class:`TrialEvent`
        as each trial completes (in completion order on a pool).
    :param trial_timeout: wall-clock seconds allowed per parallel
        trial; exceeding it kills and recycles the hung worker, then
        retries/quarantines/raises per the retry policy.  Every point
        runner in the repo simulates a bounded number of cycles, so
        this defends library callers against the hang a cycle bound
        cannot see (a trial stuck outside the engine loop); a serial
        trial runs in this process and has no such guard.
    :param heartbeat_dir: directory for per-trial liveness heartbeats
        (``trial-<index>.json``); each trial runs with
        :data:`~repro.telemetry.watchdog.HEARTBEAT_ENV` pointing at
        its own file, and a timed-out trial's last heartbeat is
        surfaced on the warning event and the raised
        :class:`TrialTimeoutError` instead of being lost with the
        killed worker.
    :param journal: a :class:`repro.harness.journal.RunJournal` (or a
        path to open one at) that receives every trial state
        transition as a JSONL record, flushed as it is written and
        fsynced before the runner waits on the pool, runs a serial
        trial or returns; also arms SIGTERM/SIGINT
        handling so an interrupted sweep journals its shutdown and
        stops cleanly (:class:`SweepInterrupted`) instead of tearing.
        A journal that already holds records is continued: every
        :meth:`run` batch first serves the trials it shows finished
        (content-hash-verified against the trial cache, source
        ``"resumed"``), carries its quarantine reports over and
        re-executes only the rest, so the way to finish a killed sweep
        is to run it again on the same journal.  That works across the
        batches of a lazy sweep; the *first* batch must share at least
        one trial with the journal, else :class:`JournalMismatchError`
        is raised before anything is recorded.  A trial the journal
        shows *mid-flight* is an unfinished trial like any other: it
        is re-dispatched, and a checkpointed chaos soak then continues
        from its own snapshot ring
        (:func:`repro.harness.chaos.run_chaos_point`).
    :param retries: per-trial attempt budget — a :class:`TrialBackoff`,
        an int (= ``max_attempts`` with default backoff), or None
        (single attempt, the historical behaviour).
    :param on_exhausted: what to do when a trial's attempt budget runs
        out: ``"raise"`` (default — surface the last failure as
        :class:`TrialTimeoutError` / :class:`WorkerCrashError` / the
        trial's own exception) or ``"quarantine"`` (the sweep
        completes; the trial's result slot holds a
        :class:`QuarantinedTrial` report).
    """

    def __init__(
        self,
        workers=1,
        cache_dir=None,
        progress=None,
        trial_timeout=None,
        heartbeat_dir=None,
        journal=None,
        retries=None,
        on_exhausted=None,
    ):
        self.workers = max(1, int(workers))
        self.cache = TrialCache(cache_dir) if cache_dir else None
        self.progress = progress
        self.trial_timeout = trial_timeout
        self.heartbeat_dir = heartbeat_dir
        if isinstance(journal, (str, os.PathLike)):
            journal = RunJournal(journal)
        self.journal = journal
        #: What the journal held when it was opened (without one: nothing).
        self._history = journal.state if journal is not None else JournalState()
        self.retries = _normalize_retries(retries)
        on_exhausted = on_exhausted or "raise"
        if on_exhausted not in ("raise", "quarantine"):
            raise ValueError(
                "on_exhausted must be 'raise' or 'quarantine', got "
                "{!r}".format(on_exhausted)
            )
        self.on_exhausted = on_exhausted
        self.stats = TrialStats()
        self._interrupt = None

    # -- public API ------------------------------------------------------

    def run(self, specs):
        """Run every spec; returns results in spec order.

        Trials the journal or the cache can serve (:meth:`_lookup`) are
        not executed; the remainder run serially or on the pool.
        Results are identical either way because each trial is a pure
        function of its spec.
        """
        specs = list(specs)
        trials = [
            _Trial(index, len(specs), spec) for index, spec in enumerate(specs)
        ]
        try:
            self._check_journal(trials)
            if self.journal is not None:
                self.journal.record(
                    "sweep.start",
                    total=len(trials),
                    workers=self.workers,
                    retries=self.retries.describe(),
                    on_exhausted=self.on_exhausted,
                    trials=[
                        {
                            "index": trial.index,
                            "key": trial.journal_key,
                            "label": trial.spec.label,
                            "seed": trial.spec.seed,
                        }
                        for trial in trials
                    ],
                )
            pending = []
            for trial in trials:
                result, source = self._lookup(trial)
                if result is CACHE_MISS:
                    pending.append(trial)
                    self._journal_trial(
                        "trial.queued", trial, seed=trial.spec.seed
                    )
                else:
                    self._finish(trial, result, 0.0, source)
            unserved = sum(
                trial.journal_key in self._history.done for trial in pending
            )
            if unserved:
                logger.warning(
                    "%d trial(s) journal %s records as finished cannot be "
                    "served from the trial cache; re-executing "
                    "deterministically",
                    unserved, self.journal.path,
                )

            if pending:
                restore = self._install_signal_handlers()
                try:
                    if self.workers == 1:
                        self._run_serial(pending)
                    else:
                        self._run_pool(trials, pending)
                finally:
                    restore()
            results = [trial.result for trial in trials]
            if self.journal is not None:
                _ok, quarantined = partition_quarantined(results)
                self.journal.record(
                    "sweep.end",
                    total=len(trials),
                    executed=self.stats.executed,
                    cached=self.stats.cached,
                    quarantined=len(quarantined),
                )
            return results
        finally:
            self._sync()  # run() returns or raises with every record synced

    # -- internals -------------------------------------------------------

    def _emit(self, trial, seconds, source, heartbeat=None):
        if self.progress is not None:
            self.progress(TrialEvent(
                trial.index, trial.total, trial.spec.label, seconds, source,
                duration=(
                    None if trial.started is None
                    else time.perf_counter() - trial.started
                ),
                heartbeat=heartbeat,
            ))

    def _check_journal(self, trials):
        """Refuse a journal that records other trials than ``trials``.

        Only the first batch is checked, while this runner has appended
        nothing and refusing leaves the file as it was found: later
        batches of a lazy search may legitimately probe points the
        earlier run never reached.  A journal that records no trial yet
        is a fresh one.
        """
        if self.journal is None or self.journal.records_written or not trials:
            return
        history = self._history
        known = set(history.trials) | set(history.done) | set(history.quarantined)
        if known and not any(trial.journal_key in known for trial in trials):
            raise JournalMismatchError(
                "journal {} does not describe this sweep: none of its {} "
                "trial key(s) match (wrong journal, or a code/parameter "
                "change moved every fingerprint)".format(
                    self.journal.path, len(trials)
                )
            )

    def _lookup(self, trial):
        """The one lookup per trial: ``(result, source)``, the result
        :data:`CACHE_MISS` when the trial has to run.

        * A trial the journal quarantined keeps its report (it spent
          its attempt budget; running the sweep again is not a free
          retry: use a fresh journal to try again).
        * Otherwise the trial cache is asked, once.  A hit for a trial
          the journal shows finished is served (``"resumed"``) **only
          if** its content hash is the one the journal recorded: a
          damaged or foreign entry is a warned miss, and the
          re-execution overwrites it.  A hit the journal says nothing
          about is served as ``"cache"``.
        * A trial that never finished, or was caught *mid-flight*, is
          a miss like any other.

        Serving nothing is always safe: trials are pure functions of
        their specs, so re-execution reproduces the journaled results
        byte-identically, just slower.
        """
        report = self._history.quarantined.get(trial.journal_key)
        if report is not None:
            return QuarantinedTrial.from_dict(report), "resumed"
        if self.cache is None or trial.cache_key is None:
            return CACHE_MISS, None
        result = self.cache.get(trial.cache_key)
        finished = self._history.done.get(trial.journal_key)
        if result is CACHE_MISS or finished is None:
            return result, "cache"
        digest = result_content_hash(result)
        if finished.get("result_hash") not in (None, digest):
            logger.warning(
                "cached result for trial %r does not match the content "
                "hash journal %s recorded; re-executing",
                trial.spec.label, self.journal.path,
            )
            return CACHE_MISS, None
        trial.result_hash = digest  # trial.done records it again
        return result, "resumed"

    def _sync(self):
        if self.journal is not None:
            self.journal.sync()

    def _journal_trial(self, event_kind, trial, **fields):
        if self.journal is None:
            return
        self.journal.record(
            event_kind, index=trial.index, key=trial.journal_key,
            label=trial.spec.label, **fields,
        )

    def _install_signal_handlers(self):
        """Arm SIGTERM/SIGINT → clean journaled shutdown (journaled runs).

        Returns a restore callable for the ``finally`` block.  No-op
        without a journal (the historical KeyboardInterrupt behaviour
        stands) or off the main thread (the signal module refuses).
        """
        if (self.journal is None
                or threading.current_thread() is not threading.main_thread()):
            return lambda: None
        self._interrupt = None

        def handler(signum, _frame):
            self._interrupt = signum

        previous = {}
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                previous[signum] = signal.signal(signum, handler)
            except (ValueError, OSError):
                pass

        def restore():
            for signum, prev in previous.items():
                try:
                    signal.signal(signum, prev)
                except (ValueError, OSError):
                    pass

        return restore

    def _check_interrupt(self):
        signum = self._interrupt
        if signum is None:
            return
        self._interrupt = None
        try:
            name = signal.Signals(signum).name
        except ValueError:
            name = str(signum)
        logger.warning("sweep interrupted by %s; flushing journal", name)
        # Only a journaled run arms the handler that sets ``_interrupt``.
        self.journal.record("sweep.interrupted", signum=int(signum), signal=name)
        self.journal.close()
        raise SweepInterrupted(
            "sweep interrupted by {}".format(name), signum=signum
        )

    def _heartbeat_path(self, index):
        if self.heartbeat_dir is None:
            return None
        os.makedirs(self.heartbeat_dir, exist_ok=True)
        return os.path.join(self.heartbeat_dir, "trial-{}.json".format(index))

    def _finish(self, trial, result, elapsed, source="executed"):
        """``trial`` has its result: executed just now, or served by
        :meth:`_lookup` (``"cache"``, or ``"resumed"`` under the
        journal's content hash)."""
        trial.result = result
        trial.resolved = True
        if source != "executed":
            self.stats.cached += 1
        else:
            self.stats.executed += 1
            self.stats.seconds += elapsed
            if self.cache is not None and trial.cache_key is not None:
                self.cache.put(trial.cache_key, result)
        if self.journal is not None:  # hashing a result is not free
            self._journal_trial(
                "trial.done", trial, source=source, elapsed=elapsed,
                result_hash=trial.result_hash or result_content_hash(result),
            )
        self._emit(trial, elapsed, source)

    def _attempt_failed(self, trial, kind, detail, exitcode=None, error=None,
                        heartbeat=None):
        """One failed attempt, whatever the mechanism (crash, hang,
        exception) and whichever path ran it: journal it, then retry /
        quarantine / raise per the attempt budget.

        Returns the backoff delay in seconds when the trial is to be
        re-dispatched, None when it was quarantined (its record then
        holds the report).  ``error`` is the trial's own exception
        when there is one to re-raise.
        """
        spec, attempt = trial.spec, trial.attempt
        trial.failures.append({
            "attempt": attempt, "kind": kind,
            "detail": detail, "exitcode": exitcode,
        })
        self._journal_trial(
            "trial.failed", trial, attempt=attempt, kind=kind,
            detail=detail, exitcode=exitcode,
        )
        if attempt < self.retries.max_attempts:
            delay = self.retries.delay(attempt)
            logger.warning(
                "trial %r attempt %d/%d failed (%s); retrying in %.2fs",
                spec.label, attempt, self.retries.max_attempts,
                detail.split("\n", 1)[0] if kind == "error" else kind, delay,
            )
            return delay
        if self.on_exhausted == "quarantine":
            report = QuarantinedTrial(
                spec.label, trial.journal_key, spec.seed, attempt,
                trial.failures,
            )
            trial.result = report
            trial.resolved = True
            logger.warning(
                "trial %r quarantined after %d failed attempt(s); sweep "
                "continues", spec.label, attempt,
            )
            self._journal_trial(
                "trial.quarantined", trial, report=report.as_dict(),
            )
            self._emit(trial, 0.0, "quarantined", heartbeat=heartbeat)
            return None
        if kind == "timeout":
            self._timeout(trial, heartbeat)
        if kind == "crash":
            raise WorkerCrashError(
                "worker running trial {!r} died with exit code {} "
                "(attempt {}/{})".format(
                    spec.label, exitcode, attempt, self.retries.max_attempts,
                )
            )
        if error is not None:
            raise error
        raise RuntimeError(
            "trial {!r} failed and its exception could not be "
            "pickled back: {}".format(spec.label, detail)
        )

    def _timeout(self, trial, heartbeat):
        """Report a hung trial loudly, then raise.

        The killed worker cannot tell us anything, but its last
        liveness heartbeat (if the trial ran with one) names the cycle
        the run got to — the difference between "the soak wedged at
        cycle 8400 with 3 sends pending" and a silent timeout.
        """
        detail = (
            "last heartbeat at cycle {} ({} finished{})".format(
                heartbeat.get("cycle"),
                heartbeat.get("delivered"),
                ", stalled" if heartbeat.get("stalled") else "",
            )
            if heartbeat
            else "no heartbeat recorded"
        )
        message = "trial {!r} exceeded the {}s wall-clock timeout ({})".format(
            trial.spec.label, self.trial_timeout, detail
        )
        logger.warning(message)
        self._emit(trial, self.trial_timeout, "timeout", heartbeat=heartbeat)
        raise TrialTimeoutError(message, heartbeat=heartbeat)

    def _run_serial(self, pending):
        for trial in pending:
            self._check_interrupt()
            trial.started = time.perf_counter()
            while not trial.resolved:
                trial.attempt += 1
                self._journal_trial(
                    "trial.start", trial, attempt=trial.attempt,
                    worker=os.getpid(),
                )
                self._sync()
                try:
                    result, elapsed = execute_trial(
                        trial.spec,
                        heartbeat_path=self._heartbeat_path(trial.index),
                    )
                except Exception as error:
                    delay = self._attempt_failed(
                        trial, "error",
                        "{}: {}".format(type(error).__name__, error),
                        error=error,
                    )
                    if delay is not None:
                        time.sleep(delay)
                    continue
                self._finish(trial, result, elapsed)

    def _run_pool(self, trials, pending):
        for trial in pending:
            check_sendable(trial.spec)
        pool = WorkerPool(min(self.workers, len(pending)), self.trial_timeout)
        submitted = time.perf_counter()
        for trial in pending:
            trial.started = submitted
        ready = collections.deque(pending)
        delayed = []  # heap of (monotonic ready-time, tiebreak, trial)
        tiebreak = 0
        unresolved = len(pending)
        try:
            while unresolved:
                self._check_interrupt()
                now = time.monotonic()
                while delayed and delayed[0][0] <= now:
                    ready.append(heapq.heappop(delayed)[2])

                for worker in pool.idle():
                    if not ready:
                        break
                    trial = ready.popleft()
                    if not pool.dispatch(
                        worker, trial.index, trial.attempt + 1, trial.spec,
                        self._heartbeat_path(trial.index),
                    ):
                        # Dead pipe: no attempt was spent; the trial
                        # goes to the next idle worker.
                        ready.appendleft(trial)
                        continue
                    trial.attempt += 1
                    self._journal_trial(
                        "trial.start", trial, attempt=trial.attempt,
                        worker=worker.process.pid,
                    )

                self._sync()  # one commit per pass, before drain() waits
                # scan() is lazy: the replies are handled before the scan
                # starts, and each lost attempt before the next worker.
                # Every report is of a trial's current attempt: a reply
                # is read off the pipe its task went out on, and a
                # killed worker's pipe is closed unread.
                for report in itertools.chain(pool.drain(), pool.scan()):
                    trial = trials[report.index]
                    if report.kind == "ok":
                        self._finish(trial, report.decoded(), report.elapsed)
                    else:
                        delay = self._attempt_failed(
                            trial, report.kind, report.detail,
                            exitcode=report.exitcode, error=report.decoded(),
                            heartbeat=report.heartbeat,
                        )
                        if delay is not None:
                            tiebreak += 1
                            heapq.heappush(
                                delayed,
                                (time.monotonic() + delay, tiebreak, trial),
                            )
                    if trial.resolved:
                        unresolved -= 1

                if not pool.workers and unresolved:
                    raise WorkerCrashError(
                        "worker pool exhausted: every worker died and none "
                        "could be respawned; {} trial(s) unfinished".format(
                            unresolved
                        )
                    )
        finally:
            pool.shutdown()


def run_trials(specs, runner=None, **runner_options):
    """Run ``specs`` on ``runner``, or on a one-shot :class:`TrialRunner`.

    Where every sweep function's ``runner=None`` default is resolved:
    a prebuilt runner (shared cache/stats/journal across several
    sweeps) overrides the other execution knobs; without one,
    ``runner_options`` (anything :class:`TrialRunner` accepts)
    configure a runner that lives for this call.
    """
    if runner is None:
        runner = TrialRunner(**runner_options)
    return runner.run(specs)
