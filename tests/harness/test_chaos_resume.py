"""The chaos snapshot ring: periodic checkpoints, pruning, and a soak
that continues from its own ring when it is run again."""

import json
import logging
import os
import shutil

import pytest

from repro.harness.chaos import SNAPSHOT_KEEP, chaos_trial_specs, run_chaos_point
from repro.harness.journal import RunJournal
from repro.harness.load_sweep import figure1_network
from repro.harness.parallel import TrialRunner, TrialSpec, journal_trial_key
from repro.sim.snapshot import MAGIC, Snapshot
from repro.telemetry.stream import read_run_log
from repro.verify.families import FAMILIES

# Small, fast soak: 6 windows of 200 cycles, ring every window.
SOAK_KW = dict(
    seed=3,
    n_windows=6,
    window_cycles=200,
    warmup_windows=2,
    rate=0.02,
    n_flaky_links=1,
    n_dead_routers=1,
    mtbf=400,
    mttr=200,
    max_attempts=30,
)
RING_KW = dict(SOAK_KW, snapshot_every=1)


#: The nine verdict fields both provers compare for a soak.
_fingerprint = FAMILIES["chaos"].fingerprint


def _cycles(ring):
    return sorted(
        int(name[len("chaos-"):-len(".snap")]) for name in os.listdir(ring)
    )


@pytest.fixture(scope="module")
def soaks(tmp_path_factory):
    """One uninterrupted soak and one ringed, streamed soak, run once.

    ``reference`` is the plain soak's fingerprint; ``ring`` and ``log``
    are what the finished ringed soak left on disk.  Tests copy them
    (:func:`_interrupted`) rather than re-running the soak.
    """
    root = tmp_path_factory.mktemp("soaks")
    ring, log = str(root / "ring"), str(root / "log.jsonl")
    ringed = run_chaos_point(snapshot_dir=ring, stream_path=log, **RING_KW)
    return {
        "reference": _fingerprint(run_chaos_point(**SOAK_KW)),
        "ringed": _fingerprint(ringed),
        "ring": ring,
        "log": log,
    }


def _interrupted(soaks, tmp_path):
    """A private copy of the ring and of the run log up to the newest
    checkpoint: what a soak killed right after writing it leaves."""
    ring, log = str(tmp_path / "ring"), str(tmp_path / "log.jsonl")
    shutil.copytree(soaks["ring"], ring)
    with open(soaks["log"]) as handle:
        lines = handle.readlines()
    last = max(
        i for i, line in enumerate(lines)
        if json.loads(line)["event"] == "snapshot.write"
    )
    with open(log, "w") as handle:
        handle.writelines(lines[:last + 1])
    return ring, log


@pytest.fixture
def ring_log(caplog):
    caplog.set_level(logging.INFO, logger="repro.harness.chaos")
    return caplog


def _warnings(caplog):
    return [r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING]


def test_ring_writes_and_prunes_to_snapshot_keep(tmp_path, ring_log):
    # Checkpoint every window so several ring entries are written
    # (repair servicing may advance the engine over a grid point), then
    # verify only the newest SNAPSHOT_KEEP survive.
    ring = str(tmp_path / "ring")
    run_chaos_point(snapshot_dir=ring, **RING_KW)
    # No ring yet is the ordinary first run: nothing to warn about.
    assert not _warnings(ring_log)
    names = sorted(os.listdir(ring))
    assert len(names) == SNAPSHOT_KEEP < 5, names  # 5 were written
    assert all(
        n.startswith("chaos-") and n.endswith(".snap") for n in names
    )
    # Checkpoints land on the window grid, cycle-stamped in the name.
    cycles = _cycles(ring)
    assert all(c % 200 == 0 for c in cycles)
    assert not [n for n in os.listdir(ring) if n.endswith(".tmp")]


def test_resume_matches_the_uninterrupted_soak(soaks, tmp_path, ring_log):
    # Checkpointing is observation: the ringed soak scores identically.
    assert soaks["ringed"] == soaks["reference"]
    newest = _cycles(soaks["ring"])[-1]
    # A "host restart": running the soak again finishes it from the
    # newest ring entry, on both the original and the other backend.
    for backend in ("reference", "events"):
        ring = str(tmp_path / backend)
        shutil.copytree(soaks["ring"], ring)
        resumed = run_chaos_point(
            snapshot_dir=ring, backend=backend, **RING_KW
        )
        assert _fingerprint(resumed) == soaks["reference"]
        assert "{}: continuing from cycle {}".format(ring, newest) in ring_log.text
    assert not _warnings(ring_log)


def test_resume_skips_a_corrupt_newest_entry(soaks, tmp_path, ring_log):
    ring, _log = _interrupted(soaks, tmp_path)
    names = sorted(os.listdir(ring))
    assert len(names) == 3
    path = os.path.join(ring, names[-1])
    data = open(path, "rb").read()
    with open(path, "wb") as fh:  # truncate mid-payload
        fh.write(data[: len(data) // 2])
    # The next-newest was written by a build with a backend this one
    # no longer registers: skipped too, on to the intact third entry.
    older = os.path.join(ring, names[-2])
    stale = Snapshot.load(older)
    stale.backend = "vector"
    stale.save(older)
    resumed = run_chaos_point(snapshot_dir=ring, **RING_KW)
    assert _fingerprint(resumed) == soaks["reference"]
    skipped = _warnings(ring_log)
    assert len(skipped) == 2
    assert names[-1] in skipped[0]
    assert names[-2] in skipped[1] and "backend 'vector'" in skipped[1]
    assert "continuing from cycle {}".format(
        _cycles(soaks["ring"])[0]
    ) in ring_log.text


def test_empty_or_unusable_ring_is_a_warned_fresh_start(
    soaks, tmp_path, ring_log
):
    ring = tmp_path / "allbad"
    ring.mkdir()
    (ring / "chaos-000000000400.snap").write_bytes(b"not a snapshot")
    (ring / "chaos-000000000800.snap").write_bytes(MAGIC + b"\x00")
    Snapshot(backend="vector", cycle=1200, blob=b"").save(
        str(ring / "chaos-000000001200.snap")
    )
    # Another soak's checkpoint (here: another rate) is as unusable as
    # a corrupt one, however intact.
    foreign = Snapshot.load(
        os.path.join(soaks["ring"], sorted(os.listdir(soaks["ring"]))[-1])
    )
    foreign.meta["identity"] = "0" * 64
    foreign.save(str(ring / "chaos-000000001600.snap"))
    result = run_chaos_point(snapshot_dir=str(ring), **RING_KW)
    assert _fingerprint(result) == soaks["reference"]
    warned = _warnings(ring_log)
    assert len(warned) == 5
    assert "different soak" in warned[0]
    assert "starting the soak at cycle 0" in warned[-1]
    # Every unusable entry is gone; the ring is the soak's own.
    assert _cycles(str(ring)) == _cycles(soaks["ring"])


def test_a_soak_without_a_stable_identity_never_resumes(tmp_path, ring_log):
    # A lambda factory has no importable name, so two different soaks
    # could not be told apart: such a soak checkpoints, and every run
    # of it is a warned fresh start.
    ring = str(tmp_path / "ring")
    kwargs = dict(
        seed=1, n_windows=3, window_cycles=100, warmup_windows=1,
        n_flaky_links=0, n_dead_routers=0, self_heal=False,
        network_factory=lambda seed, **kw: figure1_network(seed, **kw),
        snapshot_every=1, snapshot_dir=ring,
    )
    first = run_chaos_point(**kwargs)
    assert _cycles(ring) == [100, 200] and not _warnings(ring_log)
    again = run_chaos_point(**kwargs)
    assert _fingerprint(again) == _fingerprint(first)
    assert "starting the soak at cycle 0" in _warnings(ring_log)[-1]
    assert _cycles(ring) == [100, 200]


def test_journal_resume_finishes_a_mid_flight_soak_in_a_pool_worker(
    soaks, tmp_path
):
    ring, log = _interrupted(soaks, tmp_path)
    checkpoint = _cycles(ring)[-1]
    params = dict(RING_KW, snapshot_dir=ring, stream_path=log)
    spec = TrialSpec(
        "repro.harness.chaos:run_chaos_point",
        params=params, seed=params.pop("seed"), label="soak",
    )
    # The journal of a sweep killed while the soak was running: its
    # last record for the spec is trial.start.
    journal = str(tmp_path / "run.jsonl")
    trial = dict(index=0, key=journal_trial_key(spec), label=spec.label)
    with RunJournal(journal) as handle:
        handle.record("sweep.start", total=1, trials=[dict(trial, seed=spec.seed)])
        handle.record("trial.queued", seed=spec.seed, **trial)
        handle.record("trial.start", attempt=1, worker=os.getpid(), **trial)
    before = len(read_run_log(journal))

    events = []
    runner = TrialRunner(
        workers=2, journal=journal, progress=events.append,
    )
    (result,) = runner.run([spec])
    runner.journal.close()
    assert _fingerprint(result) == soaks["reference"]
    # An ordinary unfinished trial: dispatched to a pool worker, with
    # its own trial.start record, and reported as executed.
    assert [event.source for event in events] == ["executed"]
    (start,) = [
        e for e in read_run_log(journal)[before:] if e["event"] == "trial.start"
    ]
    assert start["worker"] != os.getpid()
    # The worker picked the soak up at its checkpoint: the run log's
    # appended leg starts there, not at window 0.
    with open(log) as handle:
        leg = [json.loads(line) for line in handle]
    leg = leg[max(i for i, e in enumerate(leg) if e["event"] == "run.start"):]
    assert leg[0]["cycle"] == checkpoint > 0
    windows = [e["window"] for e in leg if e["event"] == "window.stats"]
    assert windows[0] == checkpoint // SOAK_KW["window_cycles"]
    assert leg[-1]["event"] == "run.end"


def test_trial_specs_give_each_soak_its_own_ring_subdir(tmp_path):
    specs = chaos_trial_specs(
        seeds=2,
        self_heal=(True, False),
        snapshot_every=2,
        snapshot_dir=str(tmp_path),
        **SOAK_KW
    )
    subdirs = [spec.params["snapshot_dir"] for spec in specs]
    assert len(set(subdirs)) == len(specs)
    assert [os.path.basename(d) for d in subdirs] == [
        "soak0-healon", "soak0-healoff", "soak1-healon", "soak1-healoff",
    ]
    for spec in specs:
        assert spec.params["snapshot_every"] == 2
    # Without a ring, no snapshot params leak into the specs.
    for spec in chaos_trial_specs(seeds=1, **SOAK_KW):
        assert "snapshot_dir" not in spec.params
