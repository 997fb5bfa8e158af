"""The deterministic-resume proof harness itself.

The full acceptance matrix (every workload family crossed with every
capture/restore backend pair) runs in CI and via
``repro verify --resume-diff``; here a cross-backend trial per family
keeps the proof wired into the default test run, a seeded break of
snapshot fidelity shows the proof can fail, plus unit coverage of the
harness API (kind routing, spec derivation)."""

from functools import partial

import pytest

from repro.harness import workload_sweep
from repro.harness.parallel import run_trials
from repro.harness.sweeps import sweep_specs
from repro.sim.channel import Channel, _Pipe
from repro.verify import families
from repro.verify.backend_diff import DEFAULT_KINDS
from repro.verify.resume_diff import (
    DEFAULT_PAIRS,
    ResumeReport,
    resume_point,
    run_resume_trial,
)


@pytest.mark.parametrize("kind", DEFAULT_KINDS)
def test_one_cross_backend_resume_per_family(kind):
    # The hardest direction per family: capture under one engine,
    # restore under the other.
    report = resume_point(
        kind, seed=5, backend="reference", restore_backend="events"
    )
    assert report.ok, report.mismatches
    assert report.kind == kind
    assert report.restore_backend == "events"


@pytest.mark.parametrize("kind", DEFAULT_KINDS)
def test_a_snapshot_that_drops_in_flight_words_fails_the_proof(
    kind, monkeypatch
):
    """The resume proof, shown to fail (the clean control is
    ``test_one_cross_backend_resume_per_family``, same seed and pair).

    The break: every channel comes back from a snapshot with its four
    pipelines empty, as if ``Channel.__getstate__`` had forgotten the
    words on the wire.  It reaches every family, ``chaos`` included:
    all of them restore through ``pickle.loads`` of a network graph
    (the five split families via ``resume_at``, the soak via its own
    ring), and each is split while words are in flight.  The original
    run never passes through a pickle, so only the ``resumed:`` leg may
    diverge; the ``restored:`` check at the capture point stays quiet
    because no fingerprint looks inside a wire.
    """
    healthy = Channel.__setstate__

    def lossy(self, state):
        healthy(self, state)
        for name in ("_a_to_b", "_b_to_a", "_bcb_b_to_a", "_bcb_a_to_b"):
            setattr(self, name, _Pipe(self.delay))

    monkeypatch.setattr(Channel, "__setstate__", lossy)
    # A run that lost words may never drain (a DROP that vanished leaves
    # its circuit locked): cap the two open-ended drive loops, so the
    # broken leg costs thousands of cycles and not the whole budget.
    monkeypatch.setattr(
        families, "finish_scenario",
        partial(families.finish_scenario, max_cycles=2000),
    )
    healthy_collective = workload_sweep.finish_collective
    monkeypatch.setattr(
        workload_sweep, "finish_collective",
        lambda network, workload, max_cycles, label: healthy_collective(
            network, workload, max_cycles=min(max_cycles, 4000), label=label
        ),
    )
    report = resume_point(
        kind, seed=5, backend="reference", restore_backend="events"
    )
    assert not report.ok, "resume_point missed the lossy snapshot"
    assert {m.split(":")[0] for m in report.mismatches} == {"resumed"}, [
        m.splitlines()[0] for m in report.mismatches
    ]


def test_unknown_kind_is_rejected():
    with pytest.raises(ValueError) as excinfo:
        resume_point("voltage", seed=0)
    assert "voltage" in str(excinfo.value)
    assert "scenario" in str(excinfo.value)


def test_default_restore_backend_is_the_capture_backend():
    report = resume_point("scenario", seed=3, backend="events")
    assert report.ok, report.mismatches
    assert report.backend == "events"
    assert report.restore_backend == "events"


def test_specs_cross_kinds_with_backend_pairs():
    specs = sweep_specs("resume-diff", n_trials=28, seed=3)
    combos = [
        (
            spec.params["kind"],
            spec.params["backend"],
            spec.params["restore_backend"],
        )
        for spec in specs
    ]
    # 28 trials tile the full 7x4 matrix: every family resumed under
    # every capture/restore pair, each exactly once.
    assert len(set(combos)) == 28
    assert {kind for kind, _, _ in combos} == set(DEFAULT_KINDS)
    assert {(b, rb) for _, b, rb in combos} == set(DEFAULT_PAIRS)
    assert combos[0] == ("scenario", "reference", "reference")
    assert combos[7] == ("scenario", "events", "events")
    # Seeds are pure functions of (root seed, index): extending a sweep
    # never changes an existing trial's cache identity.
    assert len({spec.seed for spec in specs}) == 28
    prints = [spec.fingerprint(code_version="x") for spec in specs]
    assert prints[:8] == [
        spec.fingerprint(code_version="x")
        for spec in sweep_specs("resume-diff", n_trials=8, seed=3)
    ]
    assert prints != [
        spec.fingerprint(code_version="x")
        for spec in sweep_specs("resume-diff", n_trials=28, seed=4)
    ]


def test_sweep_reports_and_failure_filter():
    reports = run_trials(sweep_specs("resume-diff", n_trials=2, seed=1))
    assert [report.kind for report in reports] == list(DEFAULT_KINDS[:2])
    # ``ok`` is the whole failure filter: it is what the CLI gate reads.
    assert all(report.ok for report in reports)
    broken = ResumeReport(
        kind="traffic",
        seed=9,
        backend="reference",
        restore_backend="events",
        ok=False,
        mismatches=["resumed:cycle: 5 != 6"],
    )
    assert [r for r in reports + [broken] if not r.ok] == [broken]


def test_run_resume_trial_matches_resume_point():
    assert run_resume_trial(
        seed=11, kind="scenario", backend="events", restore_backend="reference"
    ) == resume_point(
        "scenario", 11, backend="events", restore_backend="reference"
    )


@pytest.mark.slow
def test_acceptance_full_resume_matrix():
    """The acceptance bar: byte-identical resume across all seven
    workload families, on both backends and both cross-backend
    directions: the full 7x4 (kind, capture, restore) matrix."""
    reports = run_trials(
        sweep_specs("resume-diff", n_trials=28, seed=0), workers=4
    )
    assert len(reports) == 28
    failures = [report for report in reports if not report.ok]
    assert not failures, [
        (r.kind, r.seed, r.backend, r.restore_backend, r.mismatches[:2])
        for r in failures
    ]
