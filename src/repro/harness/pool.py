"""The supervised worker pool: processes, pipes, deadlines, heartbeats.

Mechanism only.  A :class:`WorkerPool` owns a set of worker processes
and reports *what happened* to the attempts it was handed; what to do
about it (retry, quarantine, raise, journal, cache) is the runner's
business (:class:`repro.harness.parallel.TrialRunner`).  One pass of the
supervision loop is three steps:

* :meth:`WorkerPool.dispatch` — hand one attempt to one idle worker (a
  dead pipe is reported, not raised);
* :meth:`WorkerPool.drain` — wait one supervision tick for the busy
  workers' replies (``"ok"`` or ``"error"``);
* :meth:`WorkerPool.scan` — find workers that died (``"crash"``) or ran
  past the wall-clock limit (``"timeout"``), kill, reap and replace them.

The pool is supervised rather than a bare ``multiprocessing.Pool`` or
``ProcessPoolExecutor``: the parent dispatches one trial at a time to
each worker and watches the workers themselves, so a worker that *dies*
mid-trial (SIGKILL, OOM-kill, a segfaulting extension — failures an
exception handler never sees, and which break every pending future of
an executor) costs one attempt of one trial.  When a dead worker cannot
be respawned the pool shrinks and carries on with the workers it has.
Each worker has one private duplex pipe and nothing else to talk on: a
reply comes back on the pipe its task went out on, so *where* it arrives
names the attempt it answers, a worker killed at its deadline takes its
unread bytes with its closed pipe, and a worker killed mid-write is an
end-of-file on a pipe only it wrote to.  No worker can block another.

This module imports nothing from the runner or the journal, which is
what lets ``tests/harness/test_runner_policy.py`` script a worker
without forking.  See ``docs/resilience.md``.
"""

import collections
import logging
import multiprocessing
import multiprocessing.connection
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


def _supervised_worker(conn):
    """Worker-process main loop: recv a task, run it, answer on ``conn``.

    Tasks arrive as ``(spec, heartbeat_path)`` on the worker's private
    pipe; ``None`` (or a closed pipe) shuts the worker down.  The reply
    goes back on the same pipe as a plain picklable tuple ``(kind,
    payload, elapsed, detail)`` — the result/exception is pre-encoded
    *here*, so a value that fails to pickle becomes a reported error —
    written by this thread, the one that runs trials, so a worker that
    dies has no second thread left holding anything.
    """
    # The supervisor owns interrupt handling; a terminal SIGINT goes to
    # the whole process group and must not race workers into dying
    # before the parent journals the shutdown.
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # non-main thread / exotic platform
        pass
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
        spec, heartbeat_path = task
        try:
            result, elapsed = execute_trial(spec, heartbeat_path=heartbeat_path)
            message = ("ok", encode_result(result), elapsed, None)
        except BaseException as error:
            detail = "{}: {}\n{}".format(
                type(error).__name__, error, traceback.format_exc()
            )
            try:
                payload = encode_result(error)
            except Exception:
                payload = None
            message = ("error", payload, None, detail)
        try:
            conn.send(message)
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
    """``size`` supervised worker processes, one private pipe each.

    :param trial_timeout: wall-clock seconds an attempt may run before
        :meth:`scan` kills its worker; None = no limit.
    """

    #: Seconds :meth:`drain` waits for a reply: the supervision cadence.
    TICK = 0.05

    def __init__(self, size, trial_timeout=None):
        self.trial_timeout = trial_timeout
        self._context = multiprocessing.get_context(_preferred_start_method())
        self.workers = [self.spawn() for _ in range(size)]

    def spawn(self):
        """Start one worker process; returns its handle."""
        parent_conn, child_conn = self._context.Pipe()
        process = self._context.Process(
            target=_supervised_worker, args=(child_conn,), daemon=True,
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
        try:
            worker.conn.send((spec, heartbeat_path))
        except Exception:
            return False
        worker.task = (index, attempt, spec, heartbeat_path)
        worker.deadline = (
            time.monotonic() + self.trial_timeout
            if self.trial_timeout is not None else None
        )
        return True

    def drain(self):
        """The replies of the busy workers, waiting up to :data:`TICK`
        for the first of them.

        A reply answers the attempt its pipe's worker was handed, and
        that worker is idle again.  End-of-file or a torn message means
        the worker died with the pipe in its hand (nobody else writes
        to it): it is killed here, and :meth:`scan` reports it.
        """
        busy = {w.conn: w for w in self.workers if w.task is not None}
        reports = []
        for conn in multiprocessing.connection.wait(list(busy), self.TICK):
            worker = busy[conn]
            try:
                kind, payload, elapsed, detail = conn.recv()
            except (EOFError, OSError):
                worker.kill()
                worker.process.join(self.TICK)  # dead by this pass's scan
                continue
            index, attempt = worker.task[:2]
            worker.task = None
            worker.deadline = None
            reports.append(
                AttemptReport(index, attempt, kind, detail, payload, elapsed)
            )
        return reports

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
        """Ask every worker to exit and reap them (closing their pipes)."""
        for worker in self.workers:
            try:
                worker.conn.send(None)
            except Exception:
                pass
        for worker in self.workers:
            worker.reap(timeout=2.0)
