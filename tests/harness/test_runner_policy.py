"""The runner's policy, driven through a scripted worker.

``repro.harness.pool`` is mechanism (processes, pipes, deadlines) and
``repro.harness.parallel`` is policy (retry, quarantine, raise, journal,
cache), so the three pool paths real processes cannot reach on demand
are reached here by replacing :meth:`WorkerPool.spawn`: no fork, no
sleep, no chaosmonkey.  A scripted worker is a ``_PoolWorker`` around a
fake process and the supervisor's end of a real ``multiprocessing.Pipe``;
the script holds the other end and, as a task is dispatched to the
worker, runs one step on it: write a reply, close it, or nothing.  The
pool's clock stands still unless the script lets time pass.

Also here: where the runner commits its journal (every record synced
before a pool drain waits, before a serial trial runs and when
``run()`` hands back control), the import directions the split rests
on, and how often a batch canonicalises a spec.
"""

import ast
import json
import multiprocessing
import os
import types

import pytest

from repro.harness import parallel
from repro.harness import pool as pool_module
from repro.harness.cache import encode_result
from repro.harness.journal import JournalState
from repro.harness.parallel import (
    TrialBackoff,
    TrialRunner,
    TrialSpec,
    WorkerCrashError,
)
from repro.harness.pool import WorkerPool, _PoolWorker

from tests.mutants import seeded

HARNESS = os.path.join(
    os.path.dirname(__file__), os.pardir, os.pardir, "src", "repro", "harness"
)


def _never_runs(seed=0):
    raise AssertionError("a scripted worker executes nothing")


def _spec(label, seed=0):
    return TrialSpec(__name__ + ":_never_runs", seed=seed, label=label)


class _Process:
    def __init__(self, pid):
        self.pid = pid
        self.exitcode = None

    def kill(self):
        if self.exitcode is None:
            self.exitcode = -9

    def join(self, timeout=None):
        pass

    def is_alive(self):
        return False


class _Script:
    """``steps[n]`` is what the n-th spawned worker does as a task is
    dispatched to it: a callable ``(script, worker, far)``, ``far`` being
    the worker's end of its pipe.  It runs just before the send, so it
    can also be what the send finds.  Spawning past the end of the
    script fails, as a host out of processes would.  ``drains`` holds,
    for every ``drain()``, how many of the journal's records were still
    unsynced as it began to wait."""

    def __init__(self, monkeypatch):
        self.now = 0.0
        self.passing = 0.0
        self.steps = []
        self.spawned = []
        self.far = []
        self.shutdowns = 0
        self.journal = _Journal()
        self.drains = []
        script = self

        def spawn(pool):
            if len(script.spawned) >= len(script.steps):
                raise OSError("fork budget exhausted")
            near, far = multiprocessing.Pipe()
            worker = _PoolWorker(_Process(1000 + len(script.spawned)), near)
            script.spawned.append(worker)
            script.far.append(far)
            return worker

        dispatch = WorkerPool.dispatch

        def scripted_dispatch(pool, worker, *task):
            n = script.spawned.index(worker)
            script.steps[n](script, worker, script.far[n])
            return dispatch(pool, worker, *task)

        shutdown = WorkerPool.shutdown

        def counted_shutdown(pool):
            script.shutdowns += 1
            shutdown(pool)

        drain = WorkerPool.drain

        def logged_drain(pool):
            script.drains.append(script.journal.unsynced)
            return drain(pool)

        monkeypatch.setattr(WorkerPool, "spawn", spawn)
        monkeypatch.setattr(WorkerPool, "drain", logged_drain)
        monkeypatch.setattr(WorkerPool, "dispatch", scripted_dispatch)
        monkeypatch.setattr(WorkerPool, "shutdown", counted_shutdown)
        monkeypatch.setattr(
            pool_module, "time", types.SimpleNamespace(monotonic=self.monotonic)
        )

    def monotonic(self):
        # ``dispatch`` reads the clock right after the send a step runs
        # before, to set the deadline; time a step lets pass shows from
        # the reading after that one.
        now = self.now
        self.now += self.passing
        self.passing = 0.0
        return now

    def close(self):
        for far in self.far:
            far.close()


def _reply(far, value):
    far.send(("ok", encode_result(value), 0.25, None))


@pytest.fixture
def script(monkeypatch):
    script = _Script(monkeypatch)
    yield script
    script.close()


class _Journal:
    """What the runner records, in order, and how much of it it synced
    (``RunJournal``'s interface: a fresh journal, so it held nothing
    when it was opened)."""

    path = "scripted"
    records_written = 0

    def __init__(self):
        self.records = []
        self.synced = 0  # len(records) at the last sync
        self.state = JournalState()

    def record(self, event, **fields):
        self.records.append(dict(fields, event=event))

    def sync(self):
        self.synced = len(self.records)

    @property
    def unsynced(self):
        return len(self.records) - self.synced

    def close(self):
        self.sync()

    def of(self, *kinds):
        return [r for r in self.records if r["event"] in kinds]


def _assert_committed(script):
    """Every drain began with the journal synced, and so did the
    return (or raise) of ``run()``."""
    assert script.drains and not any(script.drains), script.drains
    assert script.journal.unsynced == 0


def _runner(journal, **options):
    options.setdefault(
        "retries", TrialBackoff(max_attempts=3, base=0.0, jitter=False)
    )
    return TrialRunner(workers=2, journal=journal, **options)


def test_late_reply_from_a_resolved_attempt_is_dropped(script, monkeypatch):
    """A reply written before the deadline kill is closed unread with
    its worker's pipe, and the retry's reply is the one served."""

    def hang(script, worker, far):
        script.passing = 10.0  # past the 5 s limit

    def answer(script, worker, far):
        _reply(far, "fresh")

    scan = WorkerPool.scan

    def scan_after_the_hung_worker_answers(pool):
        # Too late for this pass's drain, in time to sit in the pipe
        # when the scan kills its worker at the deadline.
        if not script.spawned[0].dead:
            _reply(script.far[0], "stale")
        return scan(pool)

    monkeypatch.setattr(WorkerPool, "scan", scan_after_the_hung_worker_answers)
    script.steps = [hang, answer]
    journal, events = script.journal, []
    runner = _runner(journal, trial_timeout=5.0, progress=events.append)
    assert runner.run([_spec("slow")]) == ["fresh"]
    assert runner.stats.executed == 1
    assert [
        (r["event"], r.get("attempt"), r.get("kind"))
        for r in journal.of("trial.start", "trial.failed", "trial.done")
    ] == [
        ("trial.start", 1, None),
        ("trial.failed", 1, "timeout"),
        ("trial.start", 2, None),
        ("trial.done", None, None),
    ]
    assert [event.source for event in events] == ["executed"]
    # The hung worker was killed and reaped, its reply still in the
    # pipe that was closed with it; the pool was shut down once.
    assert script.spawned[0].process.exitcode == -9
    assert script.spawned[0].conn.closed
    assert script.shutdowns == 1
    _assert_committed(script)


def test_dispatch_onto_a_dead_pipe_spends_no_attempt(script):
    def dead_pipe(script, worker, far):
        worker.process.exitcode = 1
        far.close()  # the send that follows is a BrokenPipeError

    def answer(script, worker, far):
        _reply(far, "done")

    script.steps = [dead_pipe, answer]
    journal = script.journal
    runner = _runner(journal)
    assert runner.run([_spec("requeued")]) == ["done"]
    # Re-queued, not failed: the only trial.start there is says attempt 1.
    assert [r["attempt"] for r in journal.of("trial.start")] == [1]
    assert [r["worker"] for r in journal.of("trial.start")] == [1001]
    assert journal.of("trial.failed") == []
    assert runner.stats.executed == 1
    assert script.spawned[0].conn.closed  # the corpse was reaped
    _assert_committed(script)


def test_the_dead_pipe_test_catches_an_attempt_spent_on_a_dead_pipe(script):
    """Seeded runner-policy bug (``docs/testing.md``, the mutation
    table): a dispatch that failed is counted as an attempt."""
    with seeded("runner-dead-pipe-spends-attempt"):
        with pytest.raises(AssertionError):
            test_dispatch_onto_a_dead_pipe_spends_no_attempt(script)


def test_every_worker_dead_and_none_respawnable_raises(script, caplog):
    def die(script, worker, far):
        worker.process.exitcode = -9

    script.steps = [die, die]  # a third spawn fails
    journal = script.journal
    runner = _runner(journal)
    with caplog.at_level("WARNING", logger="repro.harness"):
        with pytest.raises(
            WorkerCrashError, match=r"pool exhausted.*2 trial\(s\) unfinished"
        ):
            runner.run([_spec("a", seed=1), _spec("b", seed=2)])
    assert [r["kind"] for r in journal.of("trial.failed")] == ["crash"] * 2
    assert sum("pool shrinks" in r.message for r in caplog.records) == 2
    assert all(worker.conn.closed for worker in script.spawned)
    assert script.shutdowns == 1
    assert journal.of("sweep.end") == []
    _assert_committed(script)


# ---------------------------------------------------------------------------
# Commit points on a real journal
# ---------------------------------------------------------------------------


def _echo(value=0, seed=0):
    return (value, seed)


def test_a_serial_sweep_syncs_each_trial_start_before_running_it(
    tmp_path, monkeypatch
):
    """N fresh trials cost N + 1 fsyncs: one before each trial runs
    (its ``trial.start`` the last record synced) and one as ``run()``
    returns."""
    path = str(tmp_path / "run.jsonl")
    synced = []  # the file's size at each fsync
    fsync = os.fsync

    def counted_fsync(fd):
        fsync(fd)
        synced.append(os.fstat(fd).st_size)

    execute = parallel.execute_trial

    def execute_after_commit(spec, **options):
        assert synced and synced[-1] == os.path.getsize(path)
        with open(path) as handle:
            last = json.loads(handle.read().splitlines()[-1])
        assert (last["event"], last["label"]) == ("trial.start", spec.label)
        return execute(spec, **options)

    monkeypatch.setattr(os, "fsync", counted_fsync)
    monkeypatch.setattr(parallel, "execute_trial", execute_after_commit)
    specs = [
        TrialSpec(__name__ + ":_echo", params=dict(value=v), seed=v)
        for v in range(3)
    ]
    runner = TrialRunner(journal=path)
    assert runner.run(specs) == [(v, v) for v in range(3)]
    assert len(synced) == len(specs) + 1
    assert synced[-1] == os.path.getsize(path)
    runner.journal.close()  # nothing left to sync
    assert len(synced) == len(specs) + 1


def test_the_commit_tests_catch_a_runner_that_skips_its_final_sync(
    script, tmp_path, monkeypatch
):
    """Seeded runner bug (``docs/testing.md``, the mutation table): the
    sync in ``run()``'s ``finally`` is dropped, so ``trial.done`` and
    ``sweep.end`` are still unsynced when ``run()`` returns."""
    with seeded("runner-skips-final-sync"):
        with pytest.raises(AssertionError):
            test_a_serial_sweep_syncs_each_trial_start_before_running_it(
                tmp_path, monkeypatch
            )
        with pytest.raises(AssertionError):
            test_dispatch_onto_a_dead_pipe_spends_no_attempt(script)


# ---------------------------------------------------------------------------
# Import directions
# ---------------------------------------------------------------------------


def _imports(path):
    """``(name imported, enclosing function or None)`` for every import."""
    with open(path) as handle:
        tree = ast.parse(handle.read())
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Import):
                found.extend((a.name, function) for a in child.names)
            elif isinstance(child, ast.ImportFrom):
                found.extend(
                    ("{}.{}".format(child.module, a.name), function)
                    for a in child.names
                )
            inner = (
                child.name
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
                else function
            )
            visit(child, inner)

    visit(tree, None)
    return found


@pytest.mark.parametrize("leaf", ["spec.py", "cache.py", "pool.py"])
def test_leaf_modules_import_neither_the_runner_nor_the_journal(leaf):
    for module, _function in _imports(os.path.join(HARNESS, leaf)):
        assert not module.startswith(
            ("repro.harness.parallel", "repro.harness.journal")
        ), (leaf, module)


@pytest.mark.parametrize(
    "name", ["spec.py", "cache.py", "pool.py", "parallel.py", "journal.py"]
)
def test_no_harness_import_hides_inside_a_function(name):
    """No harness module imports another one inside a function."""
    lazy = [
        (module, function)
        for module, function in _imports(os.path.join(HARNESS, name))
        if function is not None and module.startswith("repro.harness")
    ]
    assert lazy == []


def test_only_the_cache_module_spells_the_result_encoding():
    """ROADMAP item 6(iv) changes how a result is encoded: one module."""
    picklers = [
        name for name in sorted(os.listdir(HARNESS)) if name.endswith(".py")
        and any(module == "pickle" or module.startswith("pickle.")
                for module, _function in _imports(os.path.join(HARNESS, name)))
    ]
    assert picklers == ["cache.py"]


# ---------------------------------------------------------------------------
# Identity is computed once per spec per batch
# ---------------------------------------------------------------------------


def test_a_batch_canonicalises_each_spec_once(tmp_path, monkeypatch):
    calls = []
    canonical = TrialSpec.canonical

    def counted(self):
        calls.append(self.label)
        return canonical(self)

    monkeypatch.setattr(TrialSpec, "canonical", counted)
    specs = [
        TrialSpec(__name__ + ":_echo", params=dict(value=v), seed=v)
        for v in range(8)
    ]
    journal = str(tmp_path / "run.jsonl")
    for _leg in ("cold", "resumed"):
        runner = TrialRunner(cache_dir=str(tmp_path), journal=journal)
        try:
            assert runner.run(specs) == [(v, v) for v in range(8)]
        finally:
            runner.journal.close()
        assert len(calls) == len(specs)  # 32 and 48 before the record
        del calls[:]
