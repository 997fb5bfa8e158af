"""Run journal: durability, replay, resume, and the kill-resume proof."""

import json
import os
import signal
import subprocess
import sys
import textwrap

import pytest

from repro.harness.journal import (
    JOURNAL_FORMAT,
    RunJournal,
    load_journal_state,
    replay_journal,
    validate_journal,
)
from repro.harness.parallel import (
    QuarantinedTrial,
    SweepInterrupted,
    TrialRunner,
    TrialSpec,
    is_quarantined,
    journal_trial_key,
    result_content_hash,
)
from repro.telemetry.stream import read_run_log

from tests.chaosmonkey import (
    corrupt_cache_entry,
    needs_fork,
    strike_counts,
    truncate_tail,
)
from tests.fresh import ROOT
from tests.mutants import seeded


def _load_specs(n=3, backend=None):
    """Small, fast, *real* simulation trials (cacheable)."""
    specs = []
    for index in range(n):
        params = dict(
            rate=0.005 * (index + 1), warmup_cycles=100, measure_cycles=300
        )
        if backend is not None:
            params["backend"] = backend
        specs.append(
            TrialSpec(
                "repro.harness.load_sweep:run_load_point",
                params=params,
                seed=index,
                label="pt{}".format(index),
            )
        )
    return specs


def _echo_trial(value=0, seed=0):
    return (value, seed)


def _failing_trial(seed=0):
    raise RuntimeError("boom")


def _result_bytes(results):
    """Byte-exact serialization (JSON: pickle memoizes identity)."""
    return json.dumps(
        [
            [r.as_dict(), r._latencies, r._attempts,
             sorted(r.attempt_failures.items())]
            for r in results
        ],
        sort_keys=True,
    ).encode()


# ---------------------------------------------------------------------------
# Journal file format
# ---------------------------------------------------------------------------


def test_journal_header_and_round_trip(tmp_path):
    path = tmp_path / "run.jsonl"
    with RunJournal(path) as journal:
        journal.record("sweep.start", total=1, trials=[
            {"index": 0, "key": "k0", "label": "pt0", "seed": 0},
        ])
        journal.record("trial.done", index=0, key="k0", label="pt0",
                       source="executed", result_hash="abc")
    events = read_run_log(str(path))
    assert validate_journal(events) == 3
    assert events[0]["event"] == "journal.start"
    assert events[0]["format"] == JOURNAL_FORMAT
    assert all("t" in event for event in events)
    # Closed journals drop further records instead of crashing.
    journal.record("sweep.end", total=1)
    assert len(read_run_log(str(path))) == 3


def test_a_record_is_in_the_file_when_record_returns(tmp_path):
    """Flushed, not only buffered: a second reader of the file (or a
    resumed leg after a SIGKILL) sees every record already returned."""
    path = tmp_path / "run.jsonl"
    with RunJournal(path) as journal:
        for index in range(3):
            journal.record("trial.queued", index=index, key="k", label="pt")
            with open(path) as reader:
                lines = reader.read().splitlines()
            assert len(lines) == index + 2  # after the journal.start header
            assert json.loads(lines[-1])["index"] == index


def test_the_flush_test_catches_a_record_left_in_the_buffer(tmp_path):
    """Seeded journal bug (``docs/testing.md``, the mutation table)."""
    with seeded("journal-record-unflushed"):
        with pytest.raises(AssertionError):
            test_a_record_is_in_the_file_when_record_returns(tmp_path)


def test_torn_tail_is_tolerated_and_trimmed_on_append(tmp_path):
    path = tmp_path / "run.jsonl"
    with RunJournal(path) as journal:
        journal.record("trial.queued", index=0, key="k0", label="pt0")
        journal.record("trial.queued", index=1, key="k1", label="pt1")
    # Crash mid-append: the final record is torn.
    assert truncate_tail(str(path), 9) == 9
    events = read_run_log(str(path))
    assert [e["event"] for e in events] == ["journal.start", "trial.queued"]
    # Appending after the crash must not glue onto the fragment.
    with RunJournal(path) as journal:
        journal.record("trial.queued", index=2, key="k2", label="pt2")
    events = read_run_log(str(path))
    assert validate_journal(events) == 3
    assert [e.get("key") for e in events] == [None, "k0", "k2"]
    # The header was not rewritten on reopen.
    assert sum(1 for e in events if e["event"] == "journal.start") == 1


def test_validate_journal_rejects_malformed(tmp_path):
    with pytest.raises(ValueError, match="empty"):
        validate_journal([])
    with pytest.raises(ValueError, match="journal.start"):
        validate_journal([{"event": "sweep.start", "total": 0, "trials": []}])
    with pytest.raises(ValueError, match="format"):
        validate_journal([{"event": "journal.start", "format": "bogus"}])
    header = {"event": "journal.start", "format": JOURNAL_FORMAT}
    with pytest.raises(ValueError, match="missing field"):
        validate_journal([header, {"event": "trial.done", "index": 0}])
    # Unknown kinds pass: the format is forward-extensible.
    assert validate_journal([header, {"event": "trial.custom"}]) == 2
    # JSON that is not an object is stopped by the shared parser.
    with pytest.raises(ValueError, match="line 1 is not a JSON object"):
        read_run_log(["[1,2,3]", "42"])


def test_replay_journal_later_records_win():
    events = [
        {"event": "journal.start", "format": JOURNAL_FORMAT},
        {"event": "sweep.start", "total": 2, "trials": [
            {"index": 0, "key": "a", "label": "A", "seed": 1},
            {"index": 1, "key": "b", "label": "B", "seed": 2},
        ]},
        {"event": "trial.start", "index": 0, "key": "a", "label": "A",
         "attempt": 1},
        {"event": "trial.failed", "index": 0, "key": "a", "label": "A",
         "attempt": 1, "kind": "crash"},
        {"event": "trial.start", "index": 0, "key": "a", "label": "A",
         "attempt": 2},
        {"event": "trial.done", "index": 0, "key": "a", "label": "A",
         "source": "executed", "result_hash": "h"},
        {"event": "trial.start", "index": 1, "key": "b", "label": "B",
         "attempt": 1},
    ]
    state = replay_journal(events)
    assert state.done["a"]["result_hash"] == "h"
    assert state.attempts["a"] == 2
    assert "a" not in state.started      # finishing clears mid-flight
    assert state.started == {"b"}
    assert state.unfinished == ["b"]
    assert not state.completed
    state = replay_journal(
        events + [{"event": "sweep.interrupted", "signum": 15,
                   "signal": "SIGTERM"}]
    )
    assert state.interrupted == "SIGTERM"


# ---------------------------------------------------------------------------
# Runner integration
# ---------------------------------------------------------------------------


def test_runner_journals_full_sweep_lifecycle(tmp_path):
    path = tmp_path / "run.jsonl"
    runner = TrialRunner(cache_dir=str(tmp_path / "cache"), journal=str(path))
    specs = [
        TrialSpec(__name__ + ":_echo_trial", params=dict(value=v), seed=v,
                  label="echo{}".format(v))
        for v in range(2)
    ]
    results = runner.run(specs)
    runner.journal.close()
    events = read_run_log(str(path))
    validate_journal(events)
    kinds = [e["event"] for e in events]
    assert kinds[0] == "journal.start"
    assert kinds[1] == "sweep.start"
    assert kinds.count("trial.queued") == 2
    assert kinds.count("trial.done") == 2
    assert kinds[-1] == "sweep.end"
    # The journaled content hash is the result's actual content hash.
    done = {e["key"]: e for e in events if e["event"] == "trial.done"}
    for spec, result in zip(specs, results):
        entry = done[journal_trial_key(spec)]
        assert entry["result_hash"] == result_content_hash(result)
        assert entry["source"] == "executed"
    state = load_journal_state(str(path))
    assert state.completed and not state.unfinished


def test_resume_sweep_is_byte_identical_to_uninterrupted(tmp_path):
    specs = _load_specs(3)
    cache_dir = str(tmp_path / "cache")
    path = str(tmp_path / "run.jsonl")
    # Leg 1 dies after finishing only the first two trials.
    leg1 = TrialRunner(cache_dir=cache_dir, journal=path)
    leg1.run(specs[:2])
    leg1.journal.close()
    # Leg 2 resumes the full sweep against the same journal.
    sources = []
    leg2 = TrialRunner(
        cache_dir=cache_dir, journal=path,
        progress=lambda e: sources.append(e.source),
    )
    resumed = leg2.run(specs)
    leg2.journal.close()
    assert sources == ["resumed", "resumed", "executed"]
    assert leg2.stats.executed == 1
    control = TrialRunner(cache_dir=str(tmp_path / "control")).run(specs)
    assert _result_bytes(resumed) == _result_bytes(control)
    # The resumed leg extended the same journal, which now completes.
    state = load_journal_state(path)
    assert state.completed and len(state.done) == 3


def test_resume_rejects_unrelated_journal(tmp_path):
    path = str(tmp_path / "run.jsonl")
    leg1 = TrialRunner(cache_dir=str(tmp_path / "cache"), journal=path)
    leg1.run(_load_specs(2))
    leg1.journal.close()
    other = [
        TrialSpec(__name__ + ":_echo_trial", params=dict(value=9), seed=9)
    ]
    before = open(path, "rb").read()
    with pytest.raises(ValueError, match="does not describe this sweep"):
        TrialRunner(journal=path).run(other)
    assert open(path, "rb").read() == before


def test_resume_refuses_corrupt_cache_entry_and_recomputes(tmp_path):
    specs = _load_specs(2)
    cache_dir = str(tmp_path / "cache")
    path = str(tmp_path / "run.jsonl")
    leg1 = TrialRunner(cache_dir=cache_dir, journal=path)
    control = leg1.run(specs)
    leg1.journal.close()
    # A worker died mid-write / the disk lied: flip a cached byte.
    assert corrupt_cache_entry(leg1.cache, specs[0].fingerprint())
    leg2 = TrialRunner(cache_dir=cache_dir, journal=path)
    resumed = leg2.run(specs)
    leg2.journal.close()
    # The damaged entry was not trusted; the result is still right.
    assert leg2.stats.executed == 1
    assert _result_bytes(resumed) == _result_bytes(control)


@pytest.mark.parametrize("damage", ["rewritten in place", "another result"])
def test_resume_refuses_a_damaged_cache_entry_that_still_decodes(
    tmp_path, damage
):
    """The journal's content hash is the only thing that can catch it:
    ``TrialCache.get`` decodes the entry without complaint."""
    specs = [
        TrialSpec(__name__ + ":_echo_trial", params=dict(value=value),
                  seed=1, label="echo-{}".format(value))
        for value in ("payload-AAAA", "payload-CCCC")
    ]
    cache_dir = str(tmp_path / "cache")
    path = str(tmp_path / "run.jsonl")
    leg1 = TrialRunner(cache_dir=cache_dir, journal=path)
    control = leg1.run(specs)
    leg1.journal.close()
    key = specs[0].fingerprint()
    entry = leg1.cache._path(key)
    intact = open(entry, "rb").read()
    if damage == "rewritten in place":
        assert intact.count(b"payload-AAAA") == 1
        with open(entry, "wb") as handle:
            handle.write(intact.replace(b"payload-AAAA", b"payload-BBBB"))
    else:
        leg1.cache.put(key, ("payload-BBBB", 1))
    assert leg1.cache.get(key) == ("payload-BBBB", 1)

    sources = []
    leg2 = TrialRunner(cache_dir=cache_dir, journal=path,
                       progress=lambda e: sources.append(e.source))
    resumed = leg2.run(specs)
    leg2.journal.close()
    assert sources == ["resumed", "executed"]  # completion order
    assert leg2.stats.executed == 1
    assert resumed == control == [("payload-AAAA", 1), ("payload-CCCC", 1)]
    # The re-execution left a correct entry behind.
    assert open(entry, "rb").read() == intact


@pytest.mark.parametrize("damage", ["rewritten in place", "another result"])
def test_the_damaged_entry_test_catches_a_runner_that_ignores_the_hash(
    tmp_path, damage
):
    """Seeded runner bug (``docs/testing.md``, the mutation table):
    ``TrialRunner._lookup`` serves a finished trial's cache entry
    whatever content hash the journal recorded for it."""
    with seeded("runner-ignores-result-hash"):
        with pytest.raises(AssertionError):
            test_resume_refuses_a_damaged_cache_entry_that_still_decodes(
                tmp_path, damage
            )


def test_every_trial_done_of_a_key_records_one_hash(tmp_path):
    """Why ``replay_journal`` letting the *earliest* ``trial.done`` of a
    key win would change nothing (``docs/testing.md``, the mutation
    table): the runner reads only a finished trial's ``result_hash``,
    every ``trial.done`` it writes carries one, and a journal key is a
    spec's fingerprint under one code version, so a trial that
    finishes again (served from the cache, or re-executed after its
    entry was damaged) records the same hash again."""
    specs = [
        TrialSpec(__name__ + ":_echo_trial", params=dict(value=value),
                  seed=1, label="echo-{}".format(value))
        for value in ("payload-AAAA", "payload-CCCC")
    ]
    cache_dir = str(tmp_path / "cache")
    path = str(tmp_path / "run.jsonl")
    for leg in range(3):
        runner = TrialRunner(cache_dir=cache_dir, journal=path)
        if leg == 2:
            runner.cache.put(specs[0].fingerprint(), ("payload-BBBB", 1))
        runner.run(specs)
        runner.journal.close()
    done = {}
    for event in read_run_log(path):
        if event["event"] == "trial.done":
            done.setdefault(event["key"], []).append(event)
    assert [[e["source"] for e in done[spec.fingerprint()]] for spec in specs] == [
        ["executed", "resumed", "executed"],
        ["executed", "resumed", "resumed"],
    ]
    for records in done.values():
        assert len({e["result_hash"] for e in records}) == 1


def test_quarantine_report_carries_over_on_resume(tmp_path):
    cache_dir = str(tmp_path / "cache")
    path = str(tmp_path / "run.jsonl")
    specs = [
        TrialSpec(__name__ + ":_echo_trial", params=dict(value=1), seed=1,
                  label="ok"),
        TrialSpec(__name__ + ":_failing_trial", params={}, seed=2,
                  label="poison"),
    ]
    leg1 = TrialRunner(cache_dir=cache_dir, journal=path, retries=2,
                       on_exhausted="quarantine")
    results = leg1.run(specs)
    leg1.journal.close()
    assert is_quarantined(results[1])
    # Resume does not grant the poison trial a fresh attempt budget.
    leg2 = TrialRunner(cache_dir=cache_dir, journal=path)
    resumed = leg2.run(specs)
    leg2.journal.close()
    assert leg2.stats.executed == 0
    assert resumed[0] == (1, 1)
    report = resumed[1]
    assert isinstance(report, QuarantinedTrial)
    assert report.label == "poison"
    assert report.attempts == 2
    assert [f["kind"] for f in report.failures] == ["error", "error"]


def test_sigterm_mid_sweep_flushes_journal_and_resumes(tmp_path):
    cache_dir = str(tmp_path / "cache")
    path = str(tmp_path / "run.jsonl")
    specs = _load_specs(3)

    def interrupt_after_first(event):
        if event.index == 0:
            signal.raise_signal(signal.SIGTERM)

    leg1 = TrialRunner(cache_dir=cache_dir, journal=path,
                       progress=interrupt_after_first)
    with pytest.raises(SweepInterrupted):
        leg1.run(specs)
    state = load_journal_state(path)
    assert state.interrupted == "SIGTERM"
    assert len(state.done) >= 1 and state.unfinished
    leg2 = TrialRunner(cache_dir=cache_dir, journal=path)
    resumed = leg2.run(specs)
    leg2.journal.close()
    control = TrialRunner(cache_dir=str(tmp_path / "control")).run(specs)
    assert _result_bytes(resumed) == _result_bytes(control)


# ---------------------------------------------------------------------------
# The kill-resume proof (acceptance criterion)
# ---------------------------------------------------------------------------

_VICTIM_SCRIPT = textwrap.dedent(
    """
    import sys
    from repro.harness.parallel import TrialRunner, TrialSpec
    from tests.chaosmonkey import armed

    cache_dir, journal, backend, ledger = sys.argv[1:5]
    specs = []
    for index in range(3):
        params = dict(rate=0.005 * (index + 1), warmup_cycles=100,
                      measure_cycles=300)
        if backend != "none":
            params["backend"] = backend
        specs.append(TrialSpec("repro.harness.load_sweep:run_load_point",
                               params=params, seed=index,
                               label="pt{}".format(index)))
    runner = TrialRunner(cache_dir=cache_dir, journal=journal)
    with armed(ledger, target="pt1", strikes=1):
        runner.run(specs)
    print("SURVIVED")  # the chaosmonkey must never let us get here
    """
)


@needs_fork
@pytest.mark.parametrize("backend", [None, "events"],
                         ids=["dense", "events"])
def test_kill_resume_byte_identical(tmp_path, backend):
    """SIGKILL a sweep mid-run, resume from the journal, match control.

    The chaosmonkey SIGKILLs the victim process at the start of its
    second trial, so the journal records one finished trial and one
    mid-flight — the crash shape a real OOM kill leaves behind.
    """
    cache_dir = str(tmp_path / "cache")
    journal = str(tmp_path / "run.jsonl")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), ROOT, env.get("PYTHONPATH"))
        if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", _VICTIM_SCRIPT, cache_dir, journal,
         backend or "none", str(tmp_path / "ledger")],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == -signal.SIGKILL, proc.stderr
    assert "SURVIVED" not in proc.stdout
    assert strike_counts(str(tmp_path / "ledger")) == {"pt1": 1}

    state = load_journal_state(journal)
    assert len(state.done) == 1
    assert state.started and not state.completed

    specs = _load_specs(3, backend=backend)
    resumed_runner = TrialRunner(cache_dir=cache_dir, journal=journal)
    resumed = resumed_runner.run(specs)
    resumed_runner.journal.close()
    assert resumed_runner.stats.cached == 1     # pt0 served, not re-run
    assert resumed_runner.stats.executed == 2   # pt1 (killed) + pt2

    control = TrialRunner(cache_dir=str(tmp_path / "control")).run(specs)
    assert _result_bytes(resumed) == _result_bytes(control)
    state = load_journal_state(journal)
    assert state.completed and not state.unfinished
