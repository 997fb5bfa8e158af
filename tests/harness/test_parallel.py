"""The parallel trial runner: equivalence, caching, specs, timeouts."""

import os
import signal
import sys
import time

import pytest

from repro.core.random_source import SeedStream, derive_seed
from repro.harness.fault_sweep import fault_degradation_sweep
from repro.harness.load_sweep import figure1_network, figure3_sweep, load_trial_specs
from repro.harness.parallel import (
    CACHE_MISS,
    TrialCache,
    TrialRunner,
    TrialSpec,
    TrialTimeoutError,
    repro_code_version,
    run_trials,
)
from repro.harness.reporting import format_trial_event
from repro.harness.saturation import find_saturation

SWEEP_KW = dict(
    network_factory=figure1_network,
    message_words=6,
    warmup_cycles=150,
    measure_cycles=500,
)


def _result_bytes(results):
    """Byte-exact serialization of a sweep's full statistics.

    JSON rather than pickle: pickle's memo encodes object *identity*
    (strings shared in-process but distinct after a worker round-trip),
    which would flag equal values as different bytes.
    """
    import json

    return json.dumps(
        [
            [r.as_dict(), r._latencies.tolist(), r._attempts.tolist(),
             sorted(r.attempt_failures.items())]
            for r in results
        ],
        sort_keys=True,
    ).encode()


def _sleepy_trial(seconds, seed=0):
    time.sleep(seconds)
    return seed


def _echo_trial(value=0, seed=0):
    return (value, seed)


# ---------------------------------------------------------------------------
# Seed streams
# ---------------------------------------------------------------------------


def test_derive_seed_is_deterministic_and_path_sensitive():
    assert derive_seed(3, "load", 0.04) == derive_seed(3, "load", 0.04)
    assert derive_seed(3, "load", 0.04) != derive_seed(4, "load", 0.04)
    assert derive_seed(3, "load", 0.04) != derive_seed(3, "load", 0.08)
    assert derive_seed(3, "load", 0.04) != derive_seed(3, "fault", 0.04)


def test_derive_seed_position_independent():
    # A trial's seed does not depend on what else is in the sweep.
    sparse = load_trial_specs(rates=(0.04,), seed=3)
    dense = load_trial_specs(rates=(0.002, 0.04, 0.32), seed=3)
    assert sparse[0].seed == dense[1].seed


def test_seed_stream_children():
    stream = SeedStream(7)
    assert stream.seed("a", 1) == SeedStream(7).seed("a", 1)
    child = stream.child("a")
    assert child.root == stream.seed("a")
    assert stream.stream("x").bits(16) == stream.stream("x").bits(16)


# ---------------------------------------------------------------------------
# Trial specs
# ---------------------------------------------------------------------------


def test_spec_fingerprint_stable_and_parameter_sensitive():
    spec = TrialSpec("repro.harness.load_sweep:run_load_point",
                     params=dict(rate=0.01), seed=5)
    same = TrialSpec("repro.harness.load_sweep:run_load_point",
                     params=dict(rate=0.01), seed=5)
    assert spec.fingerprint() == same.fingerprint()
    other_rate = TrialSpec("repro.harness.load_sweep:run_load_point",
                           params=dict(rate=0.02), seed=5)
    other_seed = TrialSpec("repro.harness.load_sweep:run_load_point",
                           params=dict(rate=0.01), seed=6)
    assert spec.fingerprint() != other_rate.fingerprint()
    assert spec.fingerprint() != other_seed.fingerprint()


def test_spec_fingerprint_distinguishes_engine_backends():
    """A cached reference-backend trial must never satisfy an events
    request (or vice versa) — and the default sweep's cache entries
    must keep their pre-backend identity, so the knob only enters the
    params when overridden."""
    from repro.harness.load_sweep import load_trial_specs

    default, = load_trial_specs(rates=(0.01,), seed=5)
    events, = load_trial_specs(rates=(0.01,), seed=5, backend="events")
    assert default.seed == events.seed
    # The default sweep's params — and so its cache identity — are
    # unchanged from before the backend knob existed...
    assert "backend" not in default.params
    # ...while an events sweep of the same seed hashes differently.
    assert events.params["backend"] == "events"
    assert default.fingerprint() != events.fingerprint()


def test_spec_fingerprint_includes_code_version():
    spec = TrialSpec("repro.harness.load_sweep:run_load_point",
                     params=dict(rate=0.01), seed=5)
    assert spec.fingerprint(code_version="a") != spec.fingerprint(code_version="b")


def test_module_level_callables_are_cacheable_lambdas_are_not():
    good = TrialSpec("repro.harness.load_sweep:run_load_point",
                     params=dict(network_factory=figure1_network, rate=0.01))
    assert good.cacheable()
    bad = TrialSpec("repro.harness.load_sweep:run_load_point",
                    params=dict(network_factory=lambda seed: None, rate=0.01))
    assert not bad.cacheable()


def test_code_version_env_override(monkeypatch):
    monkeypatch.setenv("REPRO_CODE_VERSION", "pinned")
    assert repro_code_version() == "pinned"
    monkeypatch.delenv("REPRO_CODE_VERSION")
    fingerprint = repro_code_version()
    assert len(fingerprint) == 64 and fingerprint != "pinned"


def test_string_runner_resolves():
    spec = TrialSpec("repro.harness.load_sweep:run_load_point")
    from repro.harness.load_sweep import run_load_point

    assert spec.resolve_runner() is run_load_point
    with pytest.raises(ValueError):
        TrialSpec("no-colon-here").resolve_runner()


# ---------------------------------------------------------------------------
# Serial vs parallel equivalence (the acceptance criterion)
# ---------------------------------------------------------------------------


def test_load_sweep_parallel_matches_serial_byte_identical():
    kw = dict(rates=(0.01, 0.03, 0.06), seed=9, **SWEEP_KW)
    serial = figure3_sweep(workers=1, **kw)
    parallel = figure3_sweep(workers=4, **kw)
    assert _result_bytes(serial) == _result_bytes(parallel)


def test_fault_sweep_parallel_matches_serial():
    kw = dict(fault_levels=((0, 0), (2, 0)), rate=0.02, seed=5, **SWEEP_KW)
    serial = fault_degradation_sweep(workers=1, **kw)
    parallel = fault_degradation_sweep(workers=2, **kw)
    assert _result_bytes(serial) == _result_bytes(parallel)


def test_saturation_parallel_matches_serial():
    kw = dict(
        network_factory=figure1_network,
        seed=2,
        message_words=8,
        warmup_cycles=200,
        measure_cycles=800,
    )
    sat_serial, serial = find_saturation(workers=1, **kw)
    sat_parallel, parallel = find_saturation(workers=2, **kw)
    assert _result_bytes(serial) == _result_bytes(parallel)
    assert sat_serial.label == sat_parallel.label


@pytest.mark.slow
def test_large_sweep_parallel_matches_serial_byte_identical():
    """Scaled-up equivalence check; deselected by default (-m 'not slow')."""
    kw = dict(
        rates=(0.005, 0.01, 0.02, 0.04, 0.08, 0.16),
        seed=3,
        network_factory=figure1_network,
        message_words=8,
        warmup_cycles=500,
        measure_cycles=2000,
    )
    serial = figure3_sweep(workers=1, **kw)
    parallel = figure3_sweep(workers=4, **kw)
    assert _result_bytes(serial) == _result_bytes(parallel)


def test_sweep_results_unchanged_by_rerun():
    kw = dict(rates=(0.02,), seed=11, **SWEEP_KW)
    assert _result_bytes(figure3_sweep(**kw)) == _result_bytes(figure3_sweep(**kw))


# ---------------------------------------------------------------------------
# Caching
# ---------------------------------------------------------------------------


def test_repeated_sweep_hits_cache(tmp_path):
    kw = dict(rates=(0.01, 0.04), seed=9, **SWEEP_KW)
    first = TrialRunner(workers=1, cache_dir=str(tmp_path))
    baseline = figure3_sweep(runner=first, **kw)
    assert first.stats.executed == 2
    assert first.stats.cached == 0

    second = TrialRunner(workers=1, cache_dir=str(tmp_path))
    replay = figure3_sweep(runner=second, **kw)
    assert second.stats.executed == 0  # nothing recomputed
    assert second.stats.cached == 2
    assert _result_bytes(baseline) == _result_bytes(replay)


def test_cache_distinguishes_seeds_and_parameters(tmp_path):
    runner = TrialRunner(workers=1, cache_dir=str(tmp_path))
    figure3_sweep(runner=runner, rates=(0.01,), seed=9, **SWEEP_KW)
    figure3_sweep(runner=runner, rates=(0.01,), seed=10, **SWEEP_KW)
    figure3_sweep(runner=runner, rates=(0.02,), seed=9, **SWEEP_KW)
    assert runner.stats.executed == 3
    assert runner.stats.cached == 0


def test_parallel_run_populates_and_uses_cache(tmp_path):
    kw = dict(rates=(0.01, 0.04), seed=9, **SWEEP_KW)
    first = TrialRunner(workers=2, cache_dir=str(tmp_path))
    figure3_sweep(runner=first, **kw)
    assert first.stats.executed == 2

    second = TrialRunner(workers=2, cache_dir=str(tmp_path))
    second_results = figure3_sweep(runner=second, **kw)
    assert second.stats.executed == 0
    assert second.stats.cached == 2
    assert len(second_results) == 2


def test_corrupt_cache_entry_is_recomputed(tmp_path):
    cache = TrialCache(str(tmp_path))
    spec = TrialSpec(__name__ + ":_echo_trial", params=dict(value=1), seed=2)
    key = spec.fingerprint()
    cache.put(key, "good")
    assert cache.get(key) == "good"
    with open(cache._path(key), "wb") as handle:
        handle.write(b"\x80garbage")
    assert cache.get(key) is CACHE_MISS
    runner = TrialRunner(workers=1, cache_dir=str(tmp_path))
    assert runner.run([spec]) == [(1, 2)]
    assert runner.stats.executed == 1


def test_uncacheable_specs_bypass_cache(tmp_path):
    runner = TrialRunner(workers=1, cache_dir=str(tmp_path))
    spec = TrialSpec(lambda seed: seed + 1, seed=1)
    assert runner.run([spec]) == [2]
    assert runner.run([spec]) == [2]
    assert runner.stats.executed == 2  # never cached
    assert len(runner.cache) == 0


# ---------------------------------------------------------------------------
# Runner mechanics
# ---------------------------------------------------------------------------


def test_results_preserve_spec_order():
    specs = [
        TrialSpec(__name__ + ":_echo_trial", params=dict(value=v), seed=v)
        for v in range(6)
    ]
    assert run_trials(specs, workers=3) == [(v, v) for v in range(6)]


def test_progress_events_fire_in_order(tmp_path):
    events = []
    runner = TrialRunner(
        workers=1, cache_dir=str(tmp_path), progress=events.append
    )
    specs = [
        TrialSpec(__name__ + ":_echo_trial", params=dict(value=v), seed=v)
        for v in range(3)
    ]
    runner.run(specs)
    assert [e.index for e in events] == [0, 1, 2]
    assert all(e.source == "executed" for e in events)
    runner.run(specs)
    cached = events[3:]
    assert all(e.source == "cache" and e.cached for e in cached)
    line = format_trial_event(events[0])
    assert "[1/3]" in line and "s" in line
    assert "cached" in format_trial_event(cached[0])


def test_unpicklable_spec_raises_clear_error_on_pool():
    runner = TrialRunner(workers=2)
    spec = TrialSpec(lambda seed: seed, seed=0, label="anonymous")
    with pytest.raises(ValueError, match="not picklable"):
        runner.run([spec])


def test_pool_trial_timeout_raises_instead_of_hanging():
    runner = TrialRunner(workers=2, trial_timeout=0.25)
    spec = TrialSpec(__name__ + ":_sleepy_trial", params=dict(seconds=30),
                     label="sleeper")
    start = time.monotonic()
    with pytest.raises(TrialTimeoutError, match="sleeper"):
        runner.run([spec])
    assert time.monotonic() - start < 20  # pool terminated, not drained


def test_worker_exception_propagates():
    runner = TrialRunner(workers=2)
    spec = TrialSpec("repro.harness.load_sweep:run_load_point",
                     params=dict(rate="not-a-rate"), seed=0)
    with pytest.raises(Exception):
        runner.run([spec])


def _heartbeating_sleepy_trial(seconds, seed=0):
    from repro.telemetry.watchdog import (
        heartbeat_path_from_env,
        write_heartbeat,
    )

    path = heartbeat_path_from_env()
    if path:
        write_heartbeat(path, cycle=4242, delivered=17)
    time.sleep(seconds)
    return seed


def test_trial_event_duration_defaults_to_seconds():
    from repro.harness.parallel import TrialEvent

    event = TrialEvent(0, 1, "t", 2.5, "executed")
    assert event.duration == 2.5
    assert not event.timed_out
    timed = TrialEvent(0, 1, "t", 1.0, "timeout", duration=3.0)
    assert timed.timed_out and timed.duration == 3.0


def test_timeout_logs_warning_and_surfaces_heartbeat(tmp_path, caplog):
    events = []
    runner = TrialRunner(
        workers=2,
        trial_timeout=1.5,
        heartbeat_dir=str(tmp_path),
        progress=events.append,
    )
    spec = TrialSpec(
        __name__ + ":_heartbeating_sleepy_trial",
        params=dict(seconds=30),
        label="sleeper",
    )
    with caplog.at_level("WARNING", logger="repro.harness.parallel"):
        with pytest.raises(TrialTimeoutError) as excinfo:
            runner.run([spec])
    # The hung trial's last liveness heartbeat rides the exception...
    assert excinfo.value.heartbeat["cycle"] == 4242
    assert "cycle 4242" in str(excinfo.value)
    # ...is logged as a warning rather than vanishing silently...
    assert any("sleeper" in r.message for r in caplog.records)
    # ...and fires a progress event marked as the timeout it was.
    assert len(events) == 1
    assert events[0].timed_out
    assert events[0].heartbeat["cycle"] == 4242
    assert events[0].duration >= 1.5


def test_timeout_without_heartbeat_reports_none_recorded(caplog):
    runner = TrialRunner(workers=2, trial_timeout=0.25)
    spec = TrialSpec(__name__ + ":_sleepy_trial", params=dict(seconds=30),
                     label="sleeper")
    with caplog.at_level("WARNING", logger="repro.harness.parallel"):
        with pytest.raises(TrialTimeoutError) as excinfo:
            runner.run([spec])
    assert excinfo.value.heartbeat is None
    assert "no heartbeat recorded" in str(excinfo.value)


def test_serial_events_carry_wall_durations(tmp_path):
    events = []
    runner = TrialRunner(workers=1, progress=events.append)
    specs = [
        TrialSpec(__name__ + ":_echo_trial", params=dict(value=v), seed=v)
        for v in range(2)
    ]
    runner.run(specs)
    assert all(e.duration >= e.seconds for e in events)
    assert all(e.heartbeat is None for e in events)


# ---------------------------------------------------------------------------
# Supervision: retries, quarantine, worker recycling, pool shrink
# ---------------------------------------------------------------------------


def _crash_once_trial(seed=0):
    # Killed externally by the chaosmonkey on its first attempt.
    return ("survived", seed)


def test_trial_backoff_mirrors_retry_shapes():
    from repro.harness.parallel import TrialBackoff, _normalize_retries

    backoff = TrialBackoff(max_attempts=4, base=0.5, jitter=False)
    assert [backoff.delay(a) for a in (1, 2, 3)] == [0.5, 1.0, 2.0]
    assert backoff.delay(9) == TrialBackoff.max_delay == 30.0
    jittered = TrialBackoff(max_attempts=4, base=0.5)
    assert 0.0 <= jittered.delay(1) <= 0.5
    assert _normalize_retries(None).max_attempts == 1
    assert _normalize_retries(3).max_attempts == 3
    assert _normalize_retries(backoff) is backoff


def test_timed_out_trial_recycles_worker_and_pool_completes(caplog):
    """Satellite fix: a hung trial must not occupy its worker forever.

    One trial hangs past the timeout on a 2-worker pool while four
    quick trials queue behind it.  If the timed-out worker were left
    occupied, the pool would finish on one worker (or not at all);
    recycling it keeps both lanes live and the sweep completes with
    the hung trial quarantined.
    """
    from repro.harness.parallel import TrialBackoff, is_quarantined

    runner = TrialRunner(
        workers=2, trial_timeout=0.8,
        retries=TrialBackoff(max_attempts=1, base=0.0),
        on_exhausted="quarantine",
    )
    specs = [TrialSpec(__name__ + ":_sleepy_trial", params=dict(seconds=30),
                       label="hung")]
    specs += [
        TrialSpec(__name__ + ":_echo_trial", params=dict(value=v), seed=v,
                  label="quick{}".format(v))
        for v in range(4)
    ]
    with caplog.at_level("WARNING", logger="repro.harness.parallel"):
        results = runner.run(specs)
    assert is_quarantined(results[0])
    assert results[0].failures[0]["kind"] == "timeout"
    assert results[1:] == [(v, v) for v in range(4)]


def test_worker_killed_three_times_quarantines_and_sweep_completes(
    tmp_path, monkeypatch
):
    """Acceptance: 3x SIGKILL on one trial -> quarantine, sweep lives."""
    from repro.harness.chaosmonkey import arm
    from repro.harness.parallel import TrialBackoff, partition_quarantined

    for key, value in arm(str(tmp_path / "ledger"), target="victim",
                          strikes=3).items():
        monkeypatch.setenv(key, value)
    runner = TrialRunner(
        workers=2,
        retries=TrialBackoff(max_attempts=3, base=0.0, jitter=False),
        on_exhausted="quarantine",
    )
    specs = [TrialSpec(__name__ + ":_crash_once_trial", seed=7,
                       label="victim")]
    specs += [
        TrialSpec(__name__ + ":_echo_trial", params=dict(value=v), seed=v,
                  label="bystander{}".format(v))
        for v in range(3)
    ]
    results = runner.run(specs)
    ok, quarantined = partition_quarantined(results)
    assert ok == [(v, v) for v in range(3)]
    (report,) = quarantined
    assert report.label == "victim"
    assert report.attempts == 3
    assert [f["kind"] for f in report.failures] == ["crash"] * 3
    assert all(f["exitcode"] == -9 for f in report.failures)
    # The report is structured data: it round-trips and summarizes.
    from repro.harness.parallel import QuarantinedTrial
    from repro.harness.reporting import format_quarantine_report

    assert QuarantinedTrial.from_dict(report.as_dict()).label == "victim"
    assert "crash x3" in format_quarantine_report([report])


def test_crashed_worker_retries_to_success(tmp_path, monkeypatch):
    """A worker SIGKILLed once retries the trial and succeeds."""
    from repro.harness.chaosmonkey import arm
    from repro.harness.parallel import TrialBackoff

    for key, value in arm(str(tmp_path / "ledger"), target="victim",
                          strikes=1).items():
        monkeypatch.setenv(key, value)
    runner = TrialRunner(
        workers=2,
        retries=TrialBackoff(max_attempts=2, base=0.0, jitter=False),
    )
    results = runner.run(
        [TrialSpec(__name__ + ":_crash_once_trial", seed=7, label="victim")]
    )
    assert results == [("survived", 7)]


def _flaky_trial(ledger, fail_first, seed=0):
    # Raises on its first ``fail_first`` attempts; the count lives in a
    # file because on a pool every attempt may run in a fresh process.
    attempt = 1
    if os.path.exists(ledger):
        with open(ledger) as handle:
            attempt = int(handle.read()) + 1
    with open(ledger, "w") as handle:
        handle.write(str(attempt))
    if attempt <= fail_first:
        raise ValueError("boom on attempt {}".format(attempt))
    return ("recovered", attempt, seed)


@pytest.mark.parametrize(
    "fail_first, max_attempts, on_exhausted",
    [(2, 3, "raise"), (5, 2, "quarantine"), (5, 2, "raise")],
    ids=["retry-to-success", "exhausted-quarantine", "exhausted-raise"],
)
def test_serial_and_pool_agree_on_failure_handling(
    tmp_path, fail_first, max_attempts, on_exhausted
):
    """One failed-attempt policy: the journal's trial.failed /
    trial.quarantined sequence, the quarantine report and the outcome
    are the same whether the trial ran in-process or on the pool
    (``worker``, ``t`` and ``detail`` aside: the pool's detail carries
    the worker's traceback)."""
    from repro.telemetry.stream import read_run_log
    from repro.harness.parallel import TrialBackoff, is_quarantined

    ledger = str(tmp_path / "attempts.txt")
    specs = [
        TrialSpec(__name__ + ":_flaky_trial",
                  params=dict(ledger=ledger, fail_first=fail_first),
                  seed=11, label="flaky"),
        TrialSpec(__name__ + ":_echo_trial", params=dict(value=1), seed=1,
                  label="bystander"),
    ]

    def scrub(record):
        record = {k: v for k, v in record.items()
                  if k not in ("t", "worker", "detail")}
        if "report" in record:
            record["report"] = scrub(record["report"])
        if "failures" in record:
            record["failures"] = [scrub(f) for f in record["failures"]]
        return record

    def observe(workers):
        if os.path.exists(ledger):
            os.remove(ledger)
        journal = str(tmp_path / "journal-{}.jsonl".format(workers))
        runner = TrialRunner(
            workers=workers, journal=journal, on_exhausted=on_exhausted,
            retries=TrialBackoff(max_attempts=max_attempts, base=0.0,
                                 jitter=False),
        )
        try:
            flaky = runner.run(specs)[0]
            outcome = (
                scrub(flaky.as_dict()) if is_quarantined(flaky) else flaky
            )
        except ValueError as error:
            outcome = "raised {}".format(error)
        finally:
            runner.journal.close()
        failures = [
            scrub(event) for event in read_run_log(journal)
            if event.get("label") == "flaky"
            and event["event"] in ("trial.failed", "trial.quarantined")
        ]
        return outcome, failures

    serial, pool = observe(1), observe(2)
    assert serial == pool
    outcome, failures = serial
    kinds = [event["event"] for event in failures]
    if fail_first < max_attempts:
        assert outcome == ("recovered", fail_first + 1, 11)
        assert kinds == ["trial.failed"] * fail_first
    elif on_exhausted == "quarantine":
        assert outcome["attempts"] == max_attempts
        assert kinds == ["trial.failed"] * max_attempts + ["trial.quarantined"]
    else:
        assert outcome == "raised boom on attempt {}".format(max_attempts)
        assert kinds == ["trial.failed"] * max_attempts
    attempts = [e["attempt"] for e in failures if e["event"] == "trial.failed"]
    assert attempts == list(range(1, len(attempts) + 1))


def test_pool_shrinks_when_respawn_fails(tmp_path, monkeypatch, caplog):
    """Graceful degradation: a dead worker that cannot be respawned
    shrinks the pool instead of wedging or crashing the sweep."""
    from repro.harness.chaosmonkey import arm
    from repro.harness.parallel import TrialBackoff

    for key, value in arm(str(tmp_path / "ledger"), target="victim",
                          strikes=1).items():
        monkeypatch.setenv(key, value)
    from repro.harness.pool import WorkerPool

    original = WorkerPool.spawn
    spawned = []

    def rationed_spawn(self):
        if len(spawned) >= 2:
            raise OSError("fork budget exhausted")
        spawned.append(True)
        return original(self)

    monkeypatch.setattr(WorkerPool, "spawn", rationed_spawn)
    runner = TrialRunner(
        workers=2,
        retries=TrialBackoff(max_attempts=2, base=0.0, jitter=False),
    )
    specs = [TrialSpec(__name__ + ":_crash_once_trial", seed=7,
                       label="victim")]
    specs += [
        TrialSpec(__name__ + ":_echo_trial", params=dict(value=v), seed=v,
                  label="bystander{}".format(v))
        for v in range(3)
    ]
    with caplog.at_level("WARNING", logger="repro.harness.parallel"):
        results = runner.run(specs)
    assert results[0] == ("survived", 7)
    assert results[1:] == [(v, v) for v in range(3)]
    assert any("pool shrinks" in r.message for r in caplog.records)


def _thread_count_trial(seed=0):
    import threading

    return threading.active_count()


def test_workers_reply_from_the_thread_that_runs_trials():
    """A worker has one thread.  A ``multiprocessing.Queue`` replies
    from a feeder thread, which could hold the queue's write lock when
    the worker was SIGKILLed at the start of its next trial: every
    other worker's reply then blocked for good and the sweep hung."""
    specs = [
        TrialSpec(__name__ + ":_thread_count_trial", seed=v) for v in range(6)
    ]
    assert TrialRunner(workers=2).run(specs) == [1] * 6


def _bulky_trial(seed=0):
    return bytes(200000)


def test_worker_killed_halfway_through_its_reply_costs_one_attempt(
        tmp_path, monkeypatch):
    """A kill that lands inside the reply write (an OOM kill, a deadline
    kill at the instant a trial finishes) tears a message on a pipe only
    the victim wrote to: the supervisor reads end-of-file, the attempt
    is a ``crash``, and nobody else waits on anything the victim held.
    No ``trial_timeout``: nothing but the pool itself may break a hang.
    When replies shared one pipe under one lock the victim died holding
    the lock and every other worker blocked on it for good."""
    from multiprocessing.connection import Connection

    from repro.harness.journal import read_run_log
    from repro.harness.parallel import TrialBackoff

    supervisor, struck = os.getpid(), str(tmp_path / "struck")
    send = Connection._send

    def tear_the_first_bulky_message(conn, buf):
        if (os.getpid() != supervisor and len(buf) > 100000
                and not os.path.exists(struck)):
            open(struck, "w").close()
            os.write(conn.fileno(), buf[:len(buf) // 2])
            os.kill(os.getpid(), signal.SIGKILL)
        send(conn, buf)

    def hung(signum, frame):
        raise AssertionError("the pool hung on a half-written reply")

    monkeypatch.setattr(Connection, "_send", tear_the_first_bulky_message)
    journal = str(tmp_path / "journal.jsonl")
    runner = TrialRunner(
        workers=2, journal=journal, trial_timeout=None,
        retries=TrialBackoff(max_attempts=2, base=0.0, jitter=False),
    )
    specs = [
        TrialSpec(__name__ + ":_bulky_trial", seed=7, label="victim"),
        TrialSpec(__name__ + ":_echo_trial", params=dict(value=1), seed=1,
                  label="bystander"),
    ]
    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    try:
        results = runner.run(specs)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
        runner.journal.close()
    assert results == [bytes(200000), (1, 1)]
    assert os.path.exists(struck)
    assert [
        (event["label"], event["attempt"], event["kind"], event["exitcode"])
        for event in read_run_log(journal) if event["event"] == "trial.failed"
    ] == [("victim", 1, "crash", -signal.SIGKILL)]


def test_corrupt_cache_entry_is_a_warned_miss(tmp_path, caplog):
    """Satellite fix: unreadable cached pickles never crash a sweep."""
    cache = TrialCache(str(tmp_path))
    cache.put("key", {"fine": True})
    assert cache.get("key") == {"fine": True}
    with open(cache._path("key"), "wb") as handle:
        handle.write(b"not a pickle at all")
    with caplog.at_level("WARNING", logger="repro.harness.parallel"):
        assert cache.get("key") is CACHE_MISS
    assert any("corrupt" in r.message.lower() or "unreadable" in
               r.message.lower() for r in caplog.records)


def test_cache_writes_are_atomic(tmp_path):
    """No torn entry is ever visible under the final cache filename."""
    cache = TrialCache(str(tmp_path))
    cache.put("key", list(range(1000)))
    leftovers = [
        name
        for _root, _dirs, files in os.walk(str(tmp_path))
        for name in files
        if not name.endswith(".pkl")
    ]
    assert leftovers == []
    assert cache.get("key") == list(range(1000))


_ORPHAN_VICTIM = """
import sys

sys.path.insert(0, {src!r})
from repro.harness.parallel import TrialRunner, TrialSpec

specs = [
    TrialSpec(
        "repro.harness.load_sweep:run_load_point",
        params=dict(rate=0.01, warmup_cycles=200, measure_cycles=600),
        seed=i,
        label="pt{{}}".format(i),
    )
    for i in range(200)
]
TrialRunner(workers=2).run(specs)
"""


def _children_of(pid):
    kids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open("/proc/{}/stat".format(entry)) as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == pid:  # field 4 of stat: ppid
            kids.append(int(entry))
    return kids


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads /proc")
def test_workers_exit_when_supervisor_is_sigkilled(tmp_path):
    """SIGKILLing the supervisor must not leak orphaned idle workers.

    Forked-later siblings hold the parent end of earlier workers'
    pipes, so EOF never reaches an orphan; the worker loop's getppid
    poll is what lets the pool die with its supervisor.
    """
    import subprocess

    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    victim = subprocess.Popen(
        [sys.executable, "-c", _ORPHAN_VICTIM.format(src=os.path.abspath(src))],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    try:
        deadline = time.time() + 30
        workers = []
        while time.time() < deadline and len(workers) < 2:
            workers = _children_of(victim.pid)
            time.sleep(0.1)
        assert len(workers) >= 2, "victim never spawned its pool"
        victim.kill()
        assert victim.wait(timeout=10) == -signal.SIGKILL
        # Orphans notice within ~1s (the conn.poll interval) once their
        # in-flight trial ends — the trials are short, so well inside
        # this deadline.
        deadline = time.time() + 30
        while time.time() < deadline:
            alive = [pid for pid in workers if os.path.exists(
                "/proc/{}".format(pid))]
            if not alive:
                return
            time.sleep(0.25)
        raise AssertionError(
            "orphaned workers survived the supervisor: {}".format(alive)
        )
    finally:
        if victim.poll() is None:
            victim.kill()
        for pid in _children_of(victim.pid):
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass


# ---------------------------------------------------------------------------
# Pinned identities (tests/fixtures/harness_identity.json)
# ---------------------------------------------------------------------------
#
# What the harness writes to disk or compares across runs, as literals:
# cache keys, journal keys, the soak identity a checkpoint ring carries,
# the bytes of a cache entry, and the records a journal holds for each
# trial.  A refactor of the harness must leave the fixture untouched;
# after an *intentional* identity change regenerate it with
#
#     PYTHONPATH=src python -m tests.harness.test_parallel --regen
#
# and review the diff (every trial cache and journal in the field moves
# with it).

IDENTITY_PATH = os.path.join(
    os.path.dirname(__file__), os.pardir, "fixtures", "harness_identity.json"
)

#: A runner string is part of a fingerprint, so the pinned batch names
#: this module by its import path: ``__name__`` is ``__main__`` under
#: ``--regen``.
_HERE = "tests.harness.test_parallel"
_LEDGER_ENV = "REPRO_TEST_FLAKY_LEDGER"
_PINNED_RESULT = {"answer": 42, "values": [1, 2.5, "x"], "ok": True}


def _env_flaky_trial(seed=0):
    # ``_flaky_trial`` failing once, its ledger named by the environment:
    # a path in the params would move the key with every tmp_path.
    return _flaky_trial(os.environ[_LEDGER_ENV], 1, seed=seed)


def _pinned_specs():
    from repro.harness.chaos import chaos_trial_specs
    from repro.harness.fault_sweep import fault_trial_specs
    from repro.harness.saturation import saturation_trial_specs
    from repro.harness.workload_sweep import (
        collective_trial_specs,
        service_trial_specs,
    )
    from repro.verify.backend_diff import backend_diff_specs
    from repro.verify.resume_diff import resume_diff_specs

    return {
        "load": load_trial_specs(rates=(0.04,), seed=3, **SWEEP_KW)[0],
        "fault": fault_trial_specs(fault_levels=((2, 1),), seed=3)[0],
        "saturation": saturation_trial_specs(seed=3)[1],
        "chaos": chaos_trial_specs(
            seeds=1, seed=3, n_windows=6, window_cycles=200
        )[0],
        "collective": collective_trial_specs(
            fault_levels=((2, 0),), seed=3, words=6
        )[0],
        "service": service_trial_specs(rates=(0.001,), seed=3)[0],
        "backend_diff": backend_diff_specs(n_trials=1, seed=3)[0],
        "resume_diff": resume_diff_specs(n_trials=1, seed=3)[0],
    }


def _default_soak_identity():
    import inspect

    from repro.harness.chaos import _soak_identity, run_chaos_point

    params = {
        name: parameter.default
        for name, parameter in inspect.signature(
            run_chaos_point
        ).parameters.items()
    }
    # What ``run_chaos_point(snapshot_every=3, snapshot_dir=...)`` stamps
    # into its ring: defaults resolved, wherever the ring and log live.
    params["snapshot_every"] = 3
    return _soak_identity(params)


def _journal_shape(path):
    """The records a journal holds, per trial key.

    A pool interleaves trials in completion order, so the order that is
    pinned is each trial's own; wall-clock and process facts (``t``,
    pids, seconds, the pool's traceback under the first ``detail``
    line) are masked.
    """
    from repro.telemetry.stream import read_run_log

    sweep, trials = [], {}
    for event in read_run_log(path):
        event = {
            k: v for k, v in event.items()
            if k not in ("t", "pid", "worker", "elapsed")
        }
        if "detail" in event:
            event["detail"] = event["detail"].split("\n", 1)[0]
        if event["event"].startswith("trial."):
            trials.setdefault(event.pop("key"), []).append(event)
        else:
            sweep.append(event)
    return {"sweep": sweep, "trials": trials}


def _pinned_batch_journals(directory, workers):
    """Cold, then resumed onto the same journal, then warm from the cache."""
    from repro.harness.parallel import TrialBackoff

    specs = [
        TrialSpec(_HERE + ":_echo_trial", params=dict(value=v), seed=v,
                  label="echo{}".format(v))
        for v in range(3)
    ]
    specs.insert(1, TrialSpec(_HERE + ":_env_flaky_trial", seed=11,
                              label="flaky"))
    base = os.path.join(directory, "w{}".format(workers))
    os.environ[_LEDGER_ENV] = base + "-ledger.txt"
    cold, warm = base + "-cold.jsonl", base + "-warm.jsonl"
    legs = [
        dict(journal=cold),
        dict(journal=cold),
        dict(journal=warm),
    ]
    try:
        for leg in legs:
            runner = TrialRunner(
                workers=workers, cache_dir=base + "-cache",
                retries=TrialBackoff(max_attempts=2, base=0.0, jitter=False),
                **leg
            )
            try:
                results = runner.run(specs)
            finally:
                runner.journal.close()
            assert results[1] == ("recovered", 2, 11)
    finally:
        del os.environ[_LEDGER_ENV]
    return {
        "cold_then_resumed": _journal_shape(cold),
        "warm": _journal_shape(warm),
    }


def _parallel_public_names():
    """What ``repro.harness.parallel`` offers: the harness's own classes
    and functions reachable from it (not the stdlib modules and
    telemetry helpers it happens to import), plus ``CACHE_MISS``."""
    import inspect

    from repro.harness import parallel

    return sorted(
        name for name, value in vars(parallel).items()
        if not name.startswith("_") and (
            name == "CACHE_MISS"
            or ((inspect.isclass(value) or inspect.isfunction(value))
                and value.__module__.startswith("repro.harness."))
        )
    )


def _identity_state(directory):
    """Everything the fixture pins; needs ``REPRO_CODE_VERSION=pinned``."""
    import hashlib

    from repro.harness.parallel import journal_trial_key, result_content_hash

    assert repro_code_version() == "pinned"
    cache = TrialCache(os.path.join(directory, "cache"))
    key = "ab" + "0" * 62
    cache.put(key, _PINNED_RESULT)
    entry = os.path.join("ab", key + ".pkl")
    with open(os.path.join(cache.root, entry), "rb") as handle:
        entry_sha256 = hashlib.sha256(handle.read()).hexdigest()
    return {
        "specs": {
            family: {
                "runner": spec.runner,
                "label": spec.label,
                "seed": spec.seed,
                "fingerprint": spec.fingerprint(code_version="pinned"),
                "journal_key": journal_trial_key(spec),
            }
            for family, spec in _pinned_specs().items()
        },
        "uncacheable_journal_key": journal_trial_key(
            TrialSpec(lambda seed: seed, seed=3, label="anonymous")
        ),
        "default_soak_identity": _default_soak_identity(),
        "cache_entry": {
            "path": entry,
            "sha256": entry_sha256,
            "result_content_hash": result_content_hash(_PINNED_RESULT),
        },
        "journal": {
            "workers={}".format(workers): _pinned_batch_journals(
                directory, workers
            )
            for workers in (1, 2)
        },
    }


def _load_identity_fixture():
    import json

    with open(IDENTITY_PATH) as handle:
        return json.load(handle)


def test_harness_identities_match_the_pinned_fixture(tmp_path, monkeypatch):
    import json

    monkeypatch.setenv("REPRO_CODE_VERSION", "pinned")
    pinned = _load_identity_fixture()
    # Through JSON, as the fixture went: tuples become lists.
    observed = json.loads(json.dumps(_identity_state(str(tmp_path))))
    for section in sorted(observed):
        assert observed[section] == pinned[section], section
    # The pool journals what the serial loop journals, trial by trial.
    serial, pool = (
        pinned["journal"]["workers={}".format(workers)] for workers in (1, 2)
    )
    for leg in serial:
        assert serial[leg]["trials"] == pool[leg]["trials"], leg


def test_parallel_offers_every_name_the_pinned_parent_offered():
    from repro.harness import parallel

    missing = [
        name for name in _load_identity_fixture()["parallel_public_names"]
        if not hasattr(parallel, name)
    ]
    assert missing == []


def _regen_identity():
    import json
    import tempfile

    os.environ["REPRO_CODE_VERSION"] = "pinned"
    with tempfile.TemporaryDirectory() as directory:
        state = _identity_state(directory)
    state["parallel_public_names"] = _parallel_public_names()
    with open(IDENTITY_PATH, "w") as handle:
        json.dump(state, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print("wrote {} ({} specs, {} names)".format(
        IDENTITY_PATH, len(state["specs"]),
        len(state["parallel_public_names"]),
    ))


if __name__ == "__main__":
    if "--regen" in sys.argv:
        _regen_identity()
    else:
        print(__doc__)
