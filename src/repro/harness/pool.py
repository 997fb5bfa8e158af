"""The supervised worker pool: processes, pipes, deadlines, heartbeats.

Mechanism only.  A :class:`WorkerPool` owns a set of worker processes
and reports *what happened* to the attempts it was handed; what to do
about it (retry, quarantine, raise, journal, cache) is the runner's
business (:class:`repro.harness.parallel.TrialRunner`).  One pass of the
supervision loop is three steps:

* :meth:`WorkerPool.dispatch` — hand one attempt to one idle worker (a
  dead pipe is reported, not raised);
* :meth:`WorkerPool.drain` — wait one supervision tick for a worker's
  reply (``"ok"`` or ``"error"``);
* :meth:`WorkerPool.scan` — find workers that died (``"crash"``) or ran
  past the wall-clock limit (``"timeout"``), kill, reap and replace them.

The pool is supervised rather than a bare ``multiprocessing.Pool`` or
``ProcessPoolExecutor``: the parent dispatches one trial at a time to
each worker and watches the workers themselves, so a worker that *dies*
mid-trial (SIGKILL, OOM-kill, a segfaulting extension — failures an
exception handler never sees, and which break every pending future of
an executor) costs one attempt of one trial.  When a dead worker cannot
be respawned the pool shrinks and carries on with the workers it has.
Tasks go out on one private pipe per worker; replies come back on one
shared pipe, written under one lock by the worker itself.

This module imports nothing from the runner or the journal, which is
what lets ``tests/harness/test_runner_policy.py`` script a worker
without forking.  See ``docs/resilience.md``.
"""

import collections
import logging
import multiprocessing
import os
import signal
import time
import traceback
from multiprocessing.reduction import ForkingPickler

from repro.harness.cache import decode_result, encode_result
from repro.harness.spec import execute_trial
from repro.telemetry.watchdog import read_heartbeat

logger = logging.getLogger(__name__)


def _preferred_start_method():
    # fork is markedly cheaper and inherits sys.path (so specs built
    # from test-local factories resolve); fall back to spawn where fork
    # does not exist (Windows) — specs must then be import-resolvable.
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


def _supervised_worker(conn, replies, reply_lock):
    """Worker-process main loop: recv a task, run it, report back.

    Tasks arrive as ``(index, attempt, spec, heartbeat_path)`` on the
    worker's private pipe; ``None`` (or a closed pipe) shuts the
    worker down.  Replies go back on the pool's shared ``replies`` pipe
    as plain picklable tuples — the result/exception is pre-encoded
    *here*, so a value that fails to pickle becomes a reported error —
    written under ``reply_lock`` by this thread, the one that runs
    trials.  (A ``multiprocessing.Queue`` writes from a feeder thread:
    a worker SIGKILLed at the start of its next trial could die with
    that thread still holding the queue's write lock, which then blocks
    every other worker's reply for good.)
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
            message = (pid, index, attempt, "ok", encode_result(result), elapsed, None)
        except BaseException as error:
            detail = "{}: {}\n{}".format(
                type(error).__name__, error, traceback.format_exc()
            )
            try:
                payload = encode_result(error)
            except Exception:
                payload = None
            message = (pid, index, attempt, "error", payload, None, detail)
        try:
            with reply_lock:
                replies.send(message)
        except OSError:  # the supervisor is gone
            return


def check_sendable(spec):
    """Raise ``ValueError`` for a spec that cannot cross a pipe.

    Asked before any worker is spawned, so a lambda factory is one
    clear error instead of a dispatch failure per attempt.  A task
    travels as ``Connection.send`` pickles it, whatever encoding
    results come back in.
    """
    try:
        ForkingPickler.dumps(spec)
    except Exception as error:
        raise ValueError(
            "trial {!r} is not picklable and cannot run on a "
            "worker pool (use module-level factories, or "
            "workers=1): {}".format(spec.label, error)
        )


class _PoolWorker:
    """Supervisor-side handle on one worker process."""

    __slots__ = ("process", "conn", "task", "deadline")

    def __init__(self, process, conn):
        self.process = process
        self.conn = conn
        #: (index, attempt, spec, heartbeat_path) while one is dispatched.
        self.task = None
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


class AttemptReport(collections.namedtuple(
    "AttemptReport",
    "index attempt kind detail payload elapsed exitcode heartbeat",
    defaults=(None, None, None, None),
)):
    """What became of attempt ``attempt`` of trial ``index``.

    ``kind`` is ``"ok"`` (``payload`` holds the encoded result,
    ``elapsed`` the trial's own seconds), ``"error"`` (the trial raised:
    ``detail`` is its traceback, ``payload`` the encoded exception or
    None), ``"crash"`` (the worker died: ``exitcode``) or ``"timeout"``
    (killed at the wall-clock limit: ``heartbeat`` is its last liveness
    heartbeat, if it wrote one).
    """

    __slots__ = ()

    def decoded(self):
        """The result (``"ok"``), or the trial's own exception when it
        survived the trip back, else None."""
        if self.kind == "ok":
            return decode_result(self.payload)
        try:
            return None if self.payload is None else decode_result(self.payload)
        except Exception:
            return None


class WorkerPool:
    """``size`` supervised worker processes and the pipe they answer on.

    :param trial_timeout: wall-clock seconds an attempt may run before
        :meth:`scan` kills its worker; None = no limit.
    """

    #: Seconds :meth:`drain` waits for a reply: the supervision cadence.
    TICK = 0.05

    def __init__(self, size, trial_timeout=None):
        self.trial_timeout = trial_timeout
        self._context = multiprocessing.get_context(_preferred_start_method())
        self._replies, self.reply_writer = self._context.Pipe(duplex=False)
        self._reply_lock = self._context.Lock()
        self.workers = [self.spawn() for _ in range(size)]

    def spawn(self):
        """Start one worker process; returns its handle."""
        parent_conn, child_conn = self._context.Pipe()
        process = self._context.Process(
            target=_supervised_worker,
            args=(child_conn, self.reply_writer, self._reply_lock),
            daemon=True,
        )
        process.start()
        child_conn.close()
        return _PoolWorker(process, parent_conn)

    def idle(self):
        """The workers an attempt can be dispatched to right now."""
        return [w for w in self.workers if w.task is None and not w.dead]

    def dispatch(self, worker, index, attempt, spec, heartbeat_path=None):
        """Send one attempt to ``worker``; False when its pipe is dead.

        A dead pipe sends nothing and changes nothing: the caller keeps
        the trial, and the next :meth:`scan` reaps the corpse.
        """
        task = (index, attempt, spec, heartbeat_path)
        try:
            worker.conn.send(task)
        except Exception:
            return False
        worker.task = task
        worker.deadline = (
            time.monotonic() + self.trial_timeout
            if self.trial_timeout is not None else None
        )
        return True

    def drain(self):
        """At most one worker reply, waiting up to :data:`TICK` for it.

        The worker that sent it is idle again.  A reply whose attempt
        the supervisor already resolved (its worker was killed at the
        deadline, or died, after writing it) is still reported: only
        the caller knows which attempt of a trial is current.
        """
        try:
            if not self._replies.poll(self.TICK):
                return []
            message = self._replies.recv()
        except (EOFError, OSError):
            return []
        _pid, index, attempt, kind, payload, elapsed, detail = message
        for worker in self.workers:
            if worker.task is not None and worker.task[:2] == (index, attempt):
                worker.task = None
                worker.deadline = None
                break
        return [AttemptReport(index, attempt, kind, detail, payload, elapsed)]

    def scan(self):
        """Liveness and deadline scan: yields one report per attempt lost.

        A dead worker, or one past its deadline, is killed, reaped and
        replaced *before* its report is yielded, and the caller handles
        each report before the scan moves on to the next worker.
        """
        now = time.monotonic()
        for worker in list(self.workers):
            task = worker.task
            if worker.dead:
                exitcode = worker.process.exitcode
                worker.task = None
                self._recycle(
                    worker, "worker death (exit code {})".format(exitcode)
                )
                if task is not None:
                    logger.warning(
                        "worker running trial %r died with exit code %s; "
                        "recycling worker", task[2].label, exitcode,
                    )
                    yield AttemptReport(
                        task[0], task[1], "crash",
                        "worker died with exit code {}".format(exitcode),
                        exitcode=exitcode,
                    )
            elif (task is not None and worker.deadline is not None
                    and now >= worker.deadline):
                worker.task = None
                heartbeat = (
                    read_heartbeat(task[3]) if task[3] is not None else None
                )
                self._recycle(worker, "trial timeout")
                yield AttemptReport(
                    task[0], task[1], "timeout",
                    "exceeded {}s wall-clock timeout".format(self.trial_timeout),
                    heartbeat=heartbeat,
                )

    def _recycle(self, worker, reason):
        # Kill/reap a dead-or-hung worker and try to replace it; the
        # pool shrinks (loudly) when respawning fails.
        worker.kill()
        worker.reap()
        self.workers.remove(worker)
        try:
            self.workers.append(self.spawn())
        except Exception as spawn_error:
            logger.warning(
                "could not respawn worker after %s (%s: %s); pool "
                "shrinks to %d worker(s)", reason,
                type(spawn_error).__name__, spawn_error, len(self.workers),
            )

    def shutdown(self):
        """Ask every worker to exit, reap them, close the reply pipe."""
        for worker in self.workers:
            try:
                worker.conn.send(None)
            except Exception:
                pass
        for worker in self.workers:
            worker.reap(timeout=2.0)
        self._replies.close()
        self.reply_writer.close()
