"""The chaos snapshot ring: periodic checkpoints, pruning, and resume
after a simulated host restart."""

import os

import pytest

from repro.harness.chaos import (
    chaos_trial_specs,
    resume_chaos_point,
    run_chaos_point,
)
from repro.sim.snapshot import MAGIC, Snapshot, SnapshotFormatError

# Small, fast soak: 6 windows of 200 cycles, ring every 2 windows.
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


def _fingerprint(result):
    return {
        "windows": list(result.windows),
        "availability": result.availability,
        "undeliverable": result.undeliverable,
        "attempt_failures": dict(result.attempt_failures),
        "fault_events": list(result.fault_events),
        "mask_events": list(result.mask_events),
        "repairs": list(result.repairs),
        "evidence_count": result.evidence_count,
        "oracle_violations": result.oracle_violations,
    }


def _ring(tmp_path, **overrides):
    ring = str(tmp_path / "ring")
    kwargs = dict(SOAK_KW, snapshot_every=2, snapshot_dir=ring)
    kwargs.update(overrides)
    return ring, run_chaos_point(**kwargs)


def test_ring_writes_and_prunes_to_snapshot_keep(tmp_path):
    # Checkpoint every window so several ring entries are written
    # (repair servicing may advance the engine over a grid point), then
    # verify only the newest snapshot_keep survive.
    ring, _ = _ring(tmp_path, snapshot_every=1, snapshot_keep=2)
    names = sorted(os.listdir(ring))
    assert len(names) == 2, names
    assert all(
        n.startswith("chaos-") and n.endswith(".snap") for n in names
    )
    # Checkpoints land on the window grid, cycle-stamped in the name.
    cycles = [int(n[len("chaos-"):-len(".snap")]) for n in names]
    assert cycles == sorted(cycles)
    assert all(c % 200 == 0 for c in cycles)
    assert not [n for n in os.listdir(ring) if n.endswith(".tmp")]


def test_resume_matches_the_uninterrupted_soak(tmp_path):
    reference = run_chaos_point(**SOAK_KW)
    ring, ringed = _ring(tmp_path)
    # Checkpointing is observation: the ringed soak scores identically.
    assert _fingerprint(ringed) == _fingerprint(reference)
    # A "host restart": finish the soak from the newest ring entry, on
    # both the original and the other backend.
    resumed = resume_chaos_point(ring)
    assert _fingerprint(resumed) == _fingerprint(reference)
    resumed_events = resume_chaos_point(ring, backend="events")
    assert _fingerprint(resumed_events) == _fingerprint(reference)


def test_resume_skips_a_corrupt_newest_entry(tmp_path):
    reference = run_chaos_point(**SOAK_KW)
    ring, _ = _ring(tmp_path, snapshot_every=1)  # several entries
    newest = sorted(os.listdir(ring))[-1]
    path = os.path.join(ring, newest)
    data = path and open(path, "rb").read()
    with open(path, "wb") as fh:  # truncate mid-payload
        fh.write(data[: len(data) // 2])
    # The next-newest was written by a build with a backend this one
    # no longer registers: skipped too, on to the intact third entry.
    older = os.path.join(ring, sorted(os.listdir(ring))[-2])
    stale = Snapshot.load(older)
    stale.backend = "vector"
    stale.save(older)
    resumed = resume_chaos_point(ring)
    assert _fingerprint(resumed) == _fingerprint(reference)


def test_resume_of_empty_or_unusable_ring_fails_loudly(tmp_path):
    with pytest.raises(FileNotFoundError):
        resume_chaos_point(str(tmp_path / "nowhere"))
    ring = tmp_path / "allbad"
    ring.mkdir()
    (ring / "chaos-000000000400.snap").write_bytes(b"not a snapshot")
    (ring / "chaos-000000000800.snap").write_bytes(MAGIC + b"\x00")
    Snapshot(backend="vector", cycle=1200, blob=b"").save(
        str(ring / "chaos-000000001200.snap")
    )
    with pytest.raises(SnapshotFormatError) as excinfo:
        resume_chaos_point(str(ring))
    assert "no usable chaos snapshot" in str(excinfo.value)
    assert "unknown engine backend 'vector'" in str(excinfo.value)


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
