"""Parallel trial execution: worker pools, seed streams, result cache.

Every sweep in :mod:`repro.harness` is a set of *independent* trials —
one network, one workload, one measured window — whose results are
aggregated afterwards.  That structure is embarrassingly parallel, and
this module is the shared execution layer that exploits it:

* :class:`TrialSpec` — a picklable description of one trial: a runner
  function (named by ``"module:function"`` so worker processes import
  it fresh), its parameters, and the trial's derived seed.
* :class:`TrialCache` — an on-disk result store keyed by a content
  hash of (runner, parameters, seed, code version), so re-running a
  sweep skips every point that has already been computed.
* :class:`TrialRunner` — executes a list of specs, serially
  (``workers=1``) or on a *supervised* worker pool, consulting the
  cache first and reporting per-trial progress/timing events.

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
workers it has.  See ``docs/resilience.md``.

Durability: pass ``journal=`` (a :class:`~repro.harness.journal
.RunJournal` or a path) and every trial's state transitions
(queued → running → done/failed/quarantined) are appended to a
crash-safe JSONL journal as they happen; SIGTERM/SIGINT mid-sweep
flushes the journal and shuts the pool down cleanly instead of tearing
the run.  A runner built with ``resume_from=`` (or
:func:`repro.harness.journal.resume_sweep`) replays such a journal
against the trial cache so an interrupted sweep finishes from where it
died.

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
import hashlib
import heapq
import importlib
import json
import logging
import multiprocessing
import os
import pickle
import queue as queue_module
import random
import signal
import tempfile
import threading
import time
import traceback

from repro.telemetry.watchdog import HEARTBEAT_ENV, read_heartbeat

logger = logging.getLogger(__name__)

#: Sentinel for a cache lookup that found nothing.
CACHE_MISS = object()


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
    trial cache describe exactly what finished —
    :func:`repro.harness.journal.resume_sweep` picks up from there.
    """

    def __init__(self, message, signum=None):
        super().__init__(message)
        self.signum = signum


class JournalMismatchError(ValueError):
    """The journal being resumed cannot serve the sweep.

    Either it is not a readable journal at all (missing, empty,
    malformed, undecodable), or it shares no trial with the sweep: the
    wrong journal, or a code/parameter change moved every fingerprint.
    Either way nothing can be safely resumed, and appending this sweep
    to that file would corrupt its history.
    """


# ---------------------------------------------------------------------------
# Canonicalization (hashing parameters that may include callables)
# ---------------------------------------------------------------------------


def _canonicalize(value, opaque):
    """A JSON-able canonical form of ``value`` for content hashing.

    Callables and classes are named by ``module:qualname``; anything
    else without a stable importable identity (lambdas, closures,
    instances of arbitrary classes) is rendered opaquely and flips
    ``opaque[0]`` so the spec is marked uncacheable rather than cached
    under an ambiguous key.
    """
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (list, tuple)):
        return [_canonicalize(v, opaque) for v in value]
    if isinstance(value, dict):
        return [
            [_canonicalize(k, opaque), _canonicalize(v, opaque)]
            for k, v in sorted(value.items(), key=lambda kv: repr(kv[0]))
        ]
    if callable(value):
        module = getattr(value, "__module__", None)
        qualname = getattr(value, "__qualname__", None)
        if module and qualname and "<" not in qualname:
            return "callable:{}:{}".format(module, qualname)
        opaque[0] = True
        return "opaque-callable:{}".format(qualname or repr(value))
    opaque[0] = True
    return "opaque:{}".format(repr(value))


class TrialSpec:
    """One independent trial, ready to run anywhere.

    :param runner: the trial function — either a ``"module:function"``
        string (preferred: always picklable, cache keys are stable) or
        a module-level callable.  It is invoked as
        ``runner(seed=seed, **params)`` and must return a picklable
        result.
    :param params: keyword arguments for the runner.  Values may
        include module-level callables (network factories, traffic
        classes); lambdas work in serial runs but make the spec
        uncacheable and unpicklable.
    :param seed: this trial's seed — derive it from the sweep's root
        seed with :func:`repro.core.random_source.derive_seed`.
    :param label: display name for progress output.
    """

    def __init__(self, runner, params=None, seed=0, label=None):
        self.runner = runner
        self.params = dict(params or {})
        self.seed = seed
        self.label = label if label is not None else self._default_label()

    def _default_label(self):
        name = self.runner if isinstance(self.runner, str) else getattr(
            self.runner, "__name__", repr(self.runner)
        )
        return "{}(seed={})".format(name.rsplit(":", 1)[-1], self.seed)

    def resolve_runner(self):
        """The runner callable (importing it if named by string)."""
        if isinstance(self.runner, str):
            module_name, _, attr = self.runner.partition(":")
            if not attr:
                raise ValueError(
                    "runner string must be 'module:function', got {!r}".format(
                        self.runner
                    )
                )
            return getattr(importlib.import_module(module_name), attr)
        return self.runner

    def canonical(self):
        """(canonical structure, cacheable flag) for this spec."""
        opaque = [False]
        structure = {
            "runner": _canonicalize(
                self.runner if isinstance(self.runner, str)
                else self.resolve_runner(),
                opaque,
            ),
            "params": _canonicalize(self.params, opaque),
            "seed": self.seed,
        }
        return structure, not opaque[0]

    def cacheable(self):
        """True when every parameter has a stable hashable identity."""
        return self.canonical()[1]

    def fingerprint(self, code_version=None):
        """Cache key: sha256 over (code version, runner, params, seed)."""
        structure, _cacheable = self.canonical()
        structure["code"] = (
            code_version if code_version is not None else repro_code_version()
        )
        blob = json.dumps(structure, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def __repr__(self):
        return "<TrialSpec {} seed={}>".format(self.label, self.seed)


def execute_trial(spec, heartbeat_path=None):
    """Run one spec; returns ``(result, elapsed_seconds)``.

    Module-level so worker processes can unpickle references to it.
    ``heartbeat_path`` exports :data:`~repro.telemetry.watchdog
    .HEARTBEAT_ENV` for the duration of the trial, so any harness that
    attaches a :class:`~repro.telemetry.watchdog.RunWatchdog` writes
    liveness heartbeats there (restored afterwards — worker processes
    run many trials back to back).
    """
    if os.environ.get("REPRO_CHAOSMONKEY"):
        # Test/CI-only fault injector; the env lookup is the only cost
        # in production runs.  See repro.harness.chaosmonkey.
        from repro.harness import chaosmonkey

        chaosmonkey.maybe_strike(spec)
    start = time.perf_counter()
    runner = spec.resolve_runner()
    if heartbeat_path is None:
        result = runner(seed=spec.seed, **spec.params)
    else:
        previous = os.environ.get(HEARTBEAT_ENV)
        os.environ[HEARTBEAT_ENV] = heartbeat_path
        try:
            result = runner(seed=spec.seed, **spec.params)
        finally:
            if previous is None:
                os.environ.pop(HEARTBEAT_ENV, None)
            else:
                os.environ[HEARTBEAT_ENV] = previous
    return result, time.perf_counter() - start


# ---------------------------------------------------------------------------
# Retry policy + quarantine report (worker supervision)
# ---------------------------------------------------------------------------


class TrialBackoff:
    """Backoff policy for re-dispatching failed trial attempts.

    The harness-scale mirror of the endpoint's retry discipline: the
    wait ceiling grows by ``factor`` with each failed attempt up to
    ``max_delay`` seconds, and with ``jitter`` the actual wait is
    drawn uniformly from ``[0, ceiling]`` (decorrelates retries when
    several workers died together, e.g. an OOM sweep).
    ``max_attempts`` is the per-trial attempt budget — the harness
    analogue of the endpoint's ``max_attempts`` — after which the
    trial is quarantined or the failure raised (the runner's
    ``on_exhausted`` knob).
    """

    def __init__(
        self, max_attempts=3, base=0.25, factor=2.0, max_delay=30.0,
        jitter=True, seed=0,
    ):
        if max_attempts < 1:
            raise ValueError(
                "max_attempts must be >= 1, got {}".format(max_attempts)
            )
        if base < 0 or factor < 1.0 or max_delay < base:
            raise ValueError(
                "need base >= 0, factor >= 1, max_delay >= base; got "
                "({}, {}, {})".format(base, factor, max_delay)
            )
        self.max_attempts = int(max_attempts)
        self.base = base
        self.factor = factor
        self.max_delay = max_delay
        self.jitter = jitter
        self._rng = random.Random(seed)

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


class QuarantinedTrial:
    """Structured report for a poison trial the sweep gave up on.

    Takes the trial's slot in the results list when a
    :class:`TrialRunner` running with ``on_exhausted="quarantine"``
    exhausts the attempt budget, so the sweep *completes* and the
    failure is inspectable data — label, per-attempt failure records
    (kind, detail, worker exit code) — instead of a dead sweep.  Plain
    data only, so quarantine reports pickle and journal like results.
    """

    quarantined = True

    def __init__(self, label, key, seed, attempts, failures):
        self.label = label
        self.key = key
        self.seed = seed
        self.attempts = attempts
        #: One dict per failed attempt: ``attempt``, ``kind``
        #: ("crash" | "timeout" | "error"), ``detail``, ``exitcode``.
        self.failures = [dict(f) for f in failures]

    def as_dict(self):
        return {
            "label": self.label,
            "key": self.key,
            "seed": self.seed,
            "attempts": self.attempts,
            "failures": [dict(f) for f in self.failures],
        }

    @classmethod
    def from_dict(cls, data):
        return cls(
            data.get("label"),
            data.get("key"),
            data.get("seed"),
            data.get("attempts"),
            data.get("failures", ()),
        )

    def __repr__(self):
        kinds = collections.Counter(f.get("kind") for f in self.failures)
        return "<QuarantinedTrial {} after {} attempt(s): {}>".format(
            self.label,
            self.attempts,
            ", ".join("{} x{}".format(k, n) for k, n in sorted(kinds.items()))
            or "no failures recorded",
        )


def is_quarantined(result):
    """True when a sweep result slot holds a quarantine report."""
    return isinstance(result, QuarantinedTrial)


def partition_quarantined(results):
    """Split sweep results into ``(ok_results, quarantined_reports)``."""
    ok, quarantined = [], []
    for result in results:
        (quarantined if is_quarantined(result) else ok).append(result)
    return ok, quarantined


def journal_trial_key(spec):
    """The stable identity a journal records for ``spec``.

    Cacheable specs use their content fingerprint (so the journal and
    the trial cache agree on identity); uncacheable ones fall back to
    ``"label:<label>"`` — resumable only if labels are unique and
    stable across runs.
    """
    if spec.cacheable():
        return spec.fingerprint()
    return "label:" + str(spec.label)


def result_content_hash(result):
    """sha256 hex digest of the pickled result.

    The journal records this for every finished trial, so a resumed
    sweep can *prove* the cache entry it is about to serve is the very
    bytes the original run produced (same protocol as
    :meth:`TrialCache.put` writes).
    """
    blob = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
    return hashlib.sha256(blob).hexdigest()


# ---------------------------------------------------------------------------
# Code-version fingerprint (cache invalidation on source change)
# ---------------------------------------------------------------------------

_CODE_VERSION = None


def repro_code_version():
    """A fingerprint of the installed ``repro`` source tree.

    sha256 over every ``.py`` file's path and contents (plus the
    package version), computed once per process.  Any source edit
    therefore invalidates the whole trial cache — stale results can
    never masquerade as current ones.  Set ``REPRO_CODE_VERSION`` to
    pin the fingerprint explicitly.
    """
    global _CODE_VERSION
    override = os.environ.get("REPRO_CODE_VERSION")
    if override:
        return override
    if _CODE_VERSION is None:
        import repro

        digest = hashlib.sha256()
        digest.update(getattr(repro, "__version__", "?").encode())
        root = os.path.dirname(os.path.abspath(repro.__file__))
        for dirpath, dirnames, filenames in sorted(os.walk(root)):
            dirnames.sort()
            for filename in sorted(filenames):
                if not filename.endswith(".py"):
                    continue
                path = os.path.join(dirpath, filename)
                digest.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
        _CODE_VERSION = digest.hexdigest()
    return _CODE_VERSION


# ---------------------------------------------------------------------------
# On-disk trial cache
# ---------------------------------------------------------------------------


class TrialCache:
    """Pickled trial results under ``root/<key[:2]>/<key>.pkl``.

    Keys are :meth:`TrialSpec.fingerprint` hex digests.  Writes are
    atomic (temp file + rename) so concurrent sweeps sharing a cache
    directory never read torn files; unreadable entries are treated as
    misses and recomputed.
    """

    def __init__(self, root):
        self.root = str(root)
        os.makedirs(self.root, exist_ok=True)
        self.hits = 0
        self.misses = 0

    def _path(self, key):
        return os.path.join(self.root, key[:2], key + ".pkl")

    def get(self, key):
        """The cached result for ``key``, or :data:`CACHE_MISS`.

        An *absent* entry is a silent miss.  A *present but
        unreadable* entry — truncated write, flipped bytes, foreign
        pickle, renamed class — is also a miss (the trial recomputes
        and overwrites it), but logged as a warning: corruption should
        never crash a sweep, and should never pass silently either.
        """
        path = self._path(key)
        try:
            with open(path, "rb") as handle:
                result = pickle.load(handle)
        except FileNotFoundError:
            self.misses += 1
            return CACHE_MISS
        except Exception as error:
            logger.warning(
                "corrupt trial-cache entry %s (%s: %s); treating as a "
                "miss and recomputing", path, type(error).__name__, error,
            )
            self.misses += 1
            return CACHE_MISS
        self.hits += 1
        return result

    def put(self, key, result):
        """Store ``result`` under ``key`` (atomically)."""
        path = self._path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                pickle.dump(result, handle, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def __len__(self):
        count = 0
        for _dirpath, _dirnames, filenames in os.walk(self.root):
            count += sum(1 for f in filenames if f.endswith(".pkl"))
        return count


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------


class TrialEvent:
    """One progress report: trial ``index`` of ``total`` finished.

    ``source`` is ``"executed"``, ``"cache"``, ``"resumed"`` (served
    from the cache via a journal replay —
    :func:`repro.harness.journal.resume_sweep`), ``"timeout"`` (the
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


def _preferred_start_method():
    # fork is markedly cheaper and inherits sys.path (so specs built
    # from test-local factories resolve); fall back to spawn where fork
    # does not exist (Windows) — specs must then be import-resolvable.
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


def _supervised_worker(conn, result_queue):
    """Worker-process main loop: recv a task, run it, report back.

    Tasks arrive as ``(index, attempt, spec, heartbeat_path)`` on the
    worker's private pipe; ``None`` (or a closed pipe) shuts the
    worker down.  Results go back on the shared queue as plain
    picklable tuples — the result/exception is pre-pickled *here*, in
    the worker, so a value that fails to pickle becomes a reported
    error instead of wedging the queue's feeder thread.
    """
    # The supervisor owns interrupt handling; a terminal SIGINT goes to
    # the whole process group and must not race workers into dying
    # before the parent journals the shutdown.
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # non-main thread / exotic platform
        pass
    pid = os.getpid()
    ppid = os.getppid()
    while True:
        try:
            # Poll rather than block: if the supervisor is SIGKILLed,
            # sibling workers (forked later) still hold the parent end
            # of this pipe, so EOF never arrives.  Orphaning — getppid
            # no longer the supervisor — is the reliable death signal;
            # without this check killed sweeps leak idle workers that
            # block on the pipe forever.
            while not conn.poll(1.0):
                if os.getppid() != ppid:
                    return
            task = conn.recv()
        except (EOFError, OSError):
            return
        if task is None:
            return
        index, attempt, spec, heartbeat_path = task
        try:
            result, elapsed = execute_trial(spec, heartbeat_path=heartbeat_path)
            payload = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
            message = (pid, index, attempt, "ok", payload, elapsed, None)
        except BaseException as error:
            detail = "{}: {}\n{}".format(
                type(error).__name__, error, traceback.format_exc()
            )
            try:
                payload = pickle.dumps(error, protocol=pickle.HIGHEST_PROTOCOL)
            except Exception:
                payload = None
            message = (pid, index, attempt, "error", payload, None, detail)
        result_queue.put(message)


class _PoolWorker:
    """Supervisor-side handle on one worker process."""

    __slots__ = ("process", "conn", "busy", "deadline")

    def __init__(self, process, conn):
        self.process = process
        self.conn = conn
        self.busy = None  # (index, attempt) while a task is dispatched
        self.deadline = None

    @property
    def dead(self):
        return self.process.exitcode is not None

    def kill(self):
        try:
            self.process.kill()
        except Exception:
            pass

    def reap(self, timeout=5.0):
        self.process.join(timeout)
        if self.process.is_alive():
            self.kill()
            self.process.join(1.0)
        try:
            self.conn.close()
        except Exception:
            pass


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
        retries/quarantines/raises per the retry policy.  (Serial
        trials are bounded by the engine's own deadline guard
        instead.)
    :param heartbeat_dir: directory for per-trial liveness heartbeats
        (``trial-<index>.json``); each trial runs with
        :data:`~repro.telemetry.watchdog.HEARTBEAT_ENV` pointing at
        its own file, and a timed-out trial's last heartbeat is
        surfaced on the warning event and the raised
        :class:`TrialTimeoutError` instead of being lost with the
        killed worker.
    :param journal: a :class:`repro.harness.journal.RunJournal` (or a
        path to create one at) that receives every trial state
        transition as a durable JSONL record; also arms SIGTERM/SIGINT
        handling so an interrupted sweep journals its shutdown and
        stops cleanly (:class:`SweepInterrupted`) instead of tearing.
    :param retries: per-trial attempt budget — a :class:`TrialBackoff`,
        an int (= ``max_attempts`` with default backoff), or None
        (single attempt, the historical behaviour).
    :param on_exhausted: what to do when a trial's attempt budget runs
        out: ``"raise"`` (default — surface the last failure as
        :class:`TrialTimeoutError` / :class:`WorkerCrashError` / the
        trial's own exception) or ``"quarantine"`` (the sweep
        completes; the trial's result slot holds a
        :class:`QuarantinedTrial` report).
    :param resume_from: path to an existing run journal to resume
        from: every :meth:`run` batch first serves trials the journal
        shows finished (content-hash-verified against the trial
        cache, source ``"resumed"``) and re-executes only the rest.
        Works across multiple batches on one runner (lazy sweeps);
        the *first* batch must share at least one trial with the
        journal, else :class:`JournalMismatchError` is raised before
        anything is recorded.  A trial the journal shows *mid-flight*
        is an unfinished trial like any other: it is re-dispatched,
        and a checkpointed chaos soak then continues from its own
        snapshot ring (:func:`repro.harness.chaos.run_chaos_point`).
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
        resume_from=None,
    ):
        self.workers = max(1, int(workers))
        self.cache = TrialCache(cache_dir) if cache_dir else None
        self.progress = progress
        self.trial_timeout = trial_timeout
        self.heartbeat_dir = heartbeat_dir
        # Resume state is replayed before the journal handle opens so
        # a missing/empty resume file fails loudly instead of being
        # created empty by the append-mode open below.
        self.resume_state = None
        self._resume_unchecked = None
        if resume_from:
            self.resume(resume_from)
        if isinstance(journal, (str, os.PathLike)):
            from repro.harness.journal import RunJournal

            journal = RunJournal(journal)
        self.journal = journal
        self.retries = _normalize_retries(retries)
        if on_exhausted is None:
            on_exhausted = "raise"
        if on_exhausted not in ("raise", "quarantine"):
            raise ValueError(
                "on_exhausted must be 'raise' or 'quarantine', got "
                "{!r}".format(on_exhausted)
            )
        self.on_exhausted = on_exhausted
        self.stats = TrialStats()
        self._interrupt = None
        self._journal_keys = {}

    # -- public API ------------------------------------------------------

    def resume(self, journal_path):
        """Replay ``journal_path`` into every later :meth:`run` batch.

        What ``resume_from=`` does at construction; a missing, empty, malformed or undecodable journal raises
        :class:`JournalMismatchError` here, before any file is opened
        for writing.
        """
        from repro.harness.journal import load_journal_state

        try:
            self.resume_state = load_journal_state(journal_path)
        except (OSError, ValueError) as exc:
            raise JournalMismatchError(
                "journal {} cannot be resumed: {}".format(journal_path, exc)
            ) from exc
        self._resume_unchecked = journal_path

    def run(self, specs):
        """Run every spec; returns results in spec order.

        Cached trials are served without execution; the remainder run
        serially or on the pool.  Results are identical either way
        because each trial is a pure function of its spec.  When the
        runner is resuming a journal, trials it shows finished are
        served with source ``"resumed"``
        (:func:`repro.harness.journal.precomputed_from_state`).
        """
        specs = list(specs)
        total = len(specs)
        results = [None] * total
        pending = []
        keys = {}
        precomputed = {}
        self._journal_keys = {}
        if self.resume_state is not None:
            from repro.harness.journal import precomputed_from_state

            self._check_resume(specs)
            precomputed = precomputed_from_state(
                self.resume_state, specs, self.cache
            )
        if self.journal is not None:
            self.journal.record(
                "sweep.start",
                total=total,
                workers=self.workers,
                retries=self.retries.describe(),
                on_exhausted=self.on_exhausted,
                trials=[
                    {
                        "index": i,
                        "key": self._journal_key(specs[i]),
                        "label": specs[i].label,
                        "seed": specs[i].seed,
                    }
                    for i in range(total)
                ],
            )
        for index, spec in enumerate(specs):
            source, result = "resumed", precomputed.get(index, CACHE_MISS)
            if (result is CACHE_MISS and self.cache is not None
                    and spec.cacheable()):
                keys[index] = spec.fingerprint()
                source, result = "cache", self.cache.get(keys[index])
            if result is not CACHE_MISS:
                results[index] = result
                self.stats.cached += 1
                if self.journal is not None:
                    self._journal_trial(
                        "trial.done", index, spec, source=source,
                        elapsed=0.0, result_hash=result_content_hash(result),
                    )
                self._emit(TrialEvent(index, total, spec.label, 0.0, source))
                continue
            pending.append(index)
            self._journal_trial("trial.queued", index, spec, seed=spec.seed)

        if pending:
            restore = self._install_signal_handlers()
            try:
                if self.workers == 1:
                    self._run_serial(specs, pending, results, keys, total)
                else:
                    self._run_pool(specs, pending, results, keys, total)
            finally:
                restore()
        if self.journal is not None:
            _ok, quarantined = partition_quarantined(results)
            self.journal.record(
                "sweep.end",
                total=total,
                executed=self.stats.executed,
                cached=self.stats.cached,
                quarantined=len(quarantined),
            )
        return results

    # -- internals -------------------------------------------------------

    def _emit(self, event):
        if self.progress is not None:
            self.progress(event)

    def _check_resume(self, specs):
        """Refuse to resume a journal that does not describe ``specs``.

        Only the first batch after :meth:`resume` is checked: later
        batches of a lazy search may legitimately probe points the
        interrupted run never reached.
        """
        journal_path, self._resume_unchecked = self._resume_unchecked, None
        if journal_path is None or not specs:
            return
        state = self.resume_state
        known = set(state.trials) | set(state.done) | set(state.quarantined)
        if not any(self._journal_key(spec) in known for spec in specs):
            raise JournalMismatchError(
                "journal {} does not describe this sweep: none of its {} "
                "trial key(s) match (wrong journal, or a code/parameter "
                "change moved every fingerprint)".format(
                    journal_path, len(specs)
                )
            )

    def _journal_key(self, spec):
        key = self._journal_keys.get(id(spec))
        if key is None:
            key = journal_trial_key(spec)
            self._journal_keys[id(spec)] = key
        return key

    def _journal_trial(self, event_kind, index, spec, **fields):
        if self.journal is None:
            return
        self.journal.record(
            event_kind, index=index, key=self._journal_key(spec),
            label=spec.label, **fields,
        )

    def _install_signal_handlers(self):
        """Arm SIGTERM/SIGINT → clean journaled shutdown (journaled runs).

        Returns a restore callable for the ``finally`` block.  No-op
        without a journal (the historical KeyboardInterrupt behaviour
        stands) or off the main thread (the signal module refuses).
        """
        if self.journal is None:
            return lambda: None
        if threading.current_thread() is not threading.main_thread():
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
        if self.journal is not None:
            self.journal.record("sweep.interrupted", signum=int(signum), signal=name)
            self.journal.close()
        raise SweepInterrupted(
            "sweep interrupted by {}".format(name), signum=signum
        )

    def _finish(self, index, total, spec, result, elapsed, keys, duration=None):
        self.stats.executed += 1
        self.stats.seconds += elapsed
        if self.cache is not None and index in keys:
            self.cache.put(keys[index], result)
        self._journal_trial(
            "trial.done", index, spec, source="executed", elapsed=elapsed,
            result_hash=(
                result_content_hash(result)
                if self.journal is not None else None
            ),
        )
        self._emit(
            TrialEvent(
                index, total, spec.label, elapsed, "executed",
                duration=duration,
            )
        )

    def _heartbeat_path(self, index):
        if self.heartbeat_dir is None:
            return None
        os.makedirs(self.heartbeat_dir, exist_ok=True)
        return os.path.join(self.heartbeat_dir, "trial-{}.json".format(index))

    def _attempt_failed(self, index, total, spec, attempt, failures, started,
                        results, kind, detail, exitcode=None, error=None,
                        heartbeat=None):
        """One failed attempt, whatever the mechanism (crash, hang,
        exception) and whichever path ran it: journal it, then retry /
        quarantine / raise per the attempt budget.

        Returns the backoff delay in seconds when the trial is to be
        re-dispatched, None when it was quarantined (its result slot
        then holds the report).  ``error`` is the trial's own exception
        when there is one to re-raise.
        """
        failures.append({
            "attempt": attempt, "kind": kind,
            "detail": detail, "exitcode": exitcode,
        })
        self._journal_trial(
            "trial.failed", index, spec, attempt=attempt, kind=kind,
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
                spec.label, self._journal_key(spec), spec.seed, attempt, failures,
            )
            results[index] = report
            logger.warning(
                "trial %r quarantined after %d failed attempt(s); sweep "
                "continues", spec.label, attempt,
            )
            self._journal_trial(
                "trial.quarantined", index, spec, report=report.as_dict(),
            )
            self._emit(
                TrialEvent(
                    index, total, spec.label, 0.0, "quarantined",
                    duration=time.perf_counter() - started,
                    heartbeat=heartbeat,
                )
            )
            return None
        if kind == "timeout":
            self._timeout(index, total, spec, started, heartbeat=heartbeat)
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

    def _run_serial(self, specs, pending, results, keys, total):
        for index in pending:
            self._check_interrupt()
            spec = specs[index]
            started = time.perf_counter()
            attempt = 0
            failures = []
            while True:
                attempt += 1
                self._journal_trial(
                    "trial.start", index, spec, attempt=attempt,
                    worker=os.getpid(),
                )
                try:
                    result, elapsed = execute_trial(
                        spec, heartbeat_path=self._heartbeat_path(index)
                    )
                except Exception as error:
                    delay = self._attempt_failed(
                        index, total, spec, attempt, failures, started,
                        results, "error",
                        "{}: {}".format(type(error).__name__, error),
                        error=error,
                    )
                    if delay is None:
                        break
                    time.sleep(delay)
                    continue
                results[index] = result
                self._finish(
                    index, total, spec, result, elapsed, keys,
                    duration=time.perf_counter() - started,
                )
                break

    # -- supervised pool -------------------------------------------------

    def _spawn_worker(self, context, result_queue):
        parent_conn, child_conn = context.Pipe()
        process = context.Process(
            target=_supervised_worker,
            args=(child_conn, result_queue),
            daemon=True,
        )
        process.start()
        child_conn.close()
        return _PoolWorker(process, parent_conn)

    def _shutdown_pool(self, workers, result_queue):
        for worker in workers:
            try:
                worker.conn.send(None)
            except Exception:
                pass
        for worker in workers:
            worker.reap(timeout=2.0)
        try:
            result_queue.close()
            result_queue.cancel_join_thread()
        except Exception:
            pass

    def _run_pool(self, specs, pending, results, keys, total):
        for index in pending:
            try:
                pickle.dumps(specs[index])
            except Exception as error:
                raise ValueError(
                    "trial {!r} is not picklable and cannot run on a "
                    "worker pool (use module-level factories, or "
                    "workers=1): {}".format(specs[index].label, error)
                )
        context = multiprocessing.get_context(_preferred_start_method())
        result_queue = context.Queue()
        workers = [
            self._spawn_worker(context, result_queue)
            for _ in range(min(self.workers, len(pending)))
        ]
        submitted = time.perf_counter()
        ready = collections.deque(pending)
        delayed = []  # heap of (monotonic ready-time, tiebreak, index)
        tiebreak = 0
        attempts = {index: 0 for index in pending}
        failures = {index: [] for index in pending}
        inflight = {}  # index -> attempt currently dispatched
        done = set()

        def resolve_failure(index, kind, detail, **extra):
            nonlocal tiebreak
            inflight.pop(index, None)
            delay = self._attempt_failed(
                index, total, specs[index], attempts[index], failures[index],
                submitted, results, kind, detail, **extra
            )
            if delay is None:
                done.add(index)
            else:
                tiebreak += 1
                heapq.heappush(
                    delayed, (time.monotonic() + delay, tiebreak, index)
                )

        def recycle(worker, reason):
            # Kill/reap a dead-or-hung worker and try to replace it;
            # the pool shrinks (loudly) when respawning fails.
            worker.kill()
            worker.reap()
            workers.remove(worker)
            try:
                workers.append(self._spawn_worker(context, result_queue))
            except Exception as spawn_error:
                logger.warning(
                    "could not respawn worker after %s (%s: %s); pool "
                    "shrinks to %d worker(s)", reason,
                    type(spawn_error).__name__, spawn_error, len(workers),
                )

        try:
            while len(done) < len(pending):
                self._check_interrupt()
                now = time.monotonic()
                while delayed and delayed[0][0] <= now:
                    _, _, index = heapq.heappop(delayed)
                    ready.append(index)

                # Dispatch to idle workers.
                for worker in workers:
                    if not ready:
                        break
                    if worker.busy is not None or worker.dead:
                        continue
                    index = ready.popleft()
                    attempts[index] += 1
                    attempt = attempts[index]
                    task = (
                        index, attempt, specs[index],
                        self._heartbeat_path(index),
                    )
                    try:
                        worker.conn.send(task)
                    except Exception:
                        # Dead pipe — undo and let the liveness scan
                        # reap the corpse next iteration.
                        attempts[index] -= 1
                        ready.appendleft(index)
                        continue
                    worker.busy = (index, attempt)
                    worker.deadline = (
                        time.monotonic() + self.trial_timeout
                        if self.trial_timeout is not None else None
                    )
                    inflight[index] = attempt
                    self._journal_trial(
                        "trial.start", index, specs[index], attempt=attempt,
                        worker=worker.process.pid,
                    )

                # Drain one result (50ms tick doubles as the
                # supervision cadence).
                try:
                    message = result_queue.get(timeout=0.05)
                except (queue_module.Empty, EOFError, OSError):
                    message = None
                if message is not None:
                    pid, index, attempt, status, payload, elapsed, detail = (
                        message
                    )
                    for worker in workers:
                        if worker.busy == (index, attempt):
                            worker.busy = None
                            worker.deadline = None
                            break
                    # Late replies from killed/superseded attempts are
                    # dropped; the supervisor already resolved them.
                    if index not in done and inflight.get(index) == attempt:
                        if status == "ok":
                            inflight.pop(index, None)
                            result = pickle.loads(payload)
                            results[index] = result
                            done.add(index)
                            self._finish(
                                index, total, specs[index], result, elapsed,
                                keys, duration=time.perf_counter() - submitted,
                            )
                        else:
                            error = None
                            if payload is not None:
                                try:
                                    error = pickle.loads(payload)
                                except Exception:
                                    error = None
                            resolve_failure(
                                index, "error", detail, error=error,
                            )

                # Liveness + deadline scan.
                now = time.monotonic()
                for worker in list(workers):
                    if worker.dead:
                        busy = worker.busy
                        exitcode = worker.process.exitcode
                        worker.busy = None
                        recycle(
                            worker,
                            "worker death (exit code {})".format(exitcode),
                        )
                        if busy is not None:
                            index, attempt = busy
                            if (index not in done
                                    and inflight.get(index) == attempt):
                                logger.warning(
                                    "worker running trial %r died with "
                                    "exit code %s; recycling worker",
                                    specs[index].label, exitcode,
                                )
                                resolve_failure(
                                    index, "crash",
                                    "worker died with exit code {}".format(
                                        exitcode
                                    ),
                                    exitcode=exitcode,
                                )
                    elif (worker.busy is not None
                            and worker.deadline is not None
                            and now >= worker.deadline):
                        index, attempt = worker.busy
                        worker.busy = None
                        heartbeat = None
                        path = self._heartbeat_path(index)
                        if path is not None:
                            heartbeat = read_heartbeat(path)
                        recycle(worker, "trial timeout")
                        if (index not in done
                                and inflight.get(index) == attempt):
                            resolve_failure(
                                index, "timeout",
                                "exceeded {}s wall-clock timeout".format(
                                    self.trial_timeout
                                ),
                                heartbeat=heartbeat,
                            )

                if not workers and len(done) < len(pending):
                    raise WorkerCrashError(
                        "worker pool exhausted: every worker died and none "
                        "could be respawned; {} trial(s) unfinished".format(
                            len(pending) - len(done)
                        )
                    )
        finally:
            self._shutdown_pool(workers, result_queue)

    def _timeout(self, index, total, spec, submitted, heartbeat=None):
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
            spec.label, self.trial_timeout, detail
        )
        logger.warning(message)
        self._emit(
            TrialEvent(
                index,
                total,
                spec.label,
                self.trial_timeout,
                "timeout",
                duration=time.perf_counter() - submitted,
                heartbeat=heartbeat,
            )
        )
        raise TrialTimeoutError(message, heartbeat=heartbeat)


def run_trials(
    specs,
    workers=1,
    cache_dir=None,
    progress=None,
    trial_timeout=None,
    heartbeat_dir=None,
    journal=None,
    retries=None,
    on_exhausted=None,
    runner=None,
):
    """Run ``specs`` on ``runner``, or on a one-shot :class:`TrialRunner`.

    Where every sweep function's ``runner=None`` default is resolved:
    a prebuilt runner (shared cache/stats/journal across several
    sweeps) overrides the other execution knobs; without one, they
    configure a runner that lives for this call.
    """
    if runner is None:
        runner = TrialRunner(
            workers=workers,
            cache_dir=cache_dir,
            progress=progress,
            trial_timeout=trial_timeout,
            heartbeat_dir=heartbeat_dir,
            journal=journal,
            retries=retries,
            on_exhausted=on_exhausted,
        )
    return runner.run(specs)
