"""Deterministic-resume proof for engine snapshots.

:mod:`repro.sim.snapshot` claims that a restored simulation is
indistinguishable from one that never stopped.  This module is the
proof harness, the snapshot counterpart of
:mod:`repro.verify.backend_diff`: each resume point runs the same
seeded workload twice —

* **reference**: N cycles straight through;
* **resumed**: N/2 cycles, snapshot, pickle round-trip (simulating a
  process boundary), restore, remaining N/2 cycles —

and compares everything observable with the same fingerprints the
backend diff uses: the full message log message by message, arrivals,
checksum failures, attempt-failure tallies, telemetry metrics,
applied-fault histories, oracle verdicts and the final engine cycle.
The *original* simulation also keeps running after the capture and is
held to the same fingerprint, proving the capture itself perturbs
nothing.

The same four workload families as the backend diff are covered —
``scenario`` (random topology under the conformance oracle),
``traffic`` (figure-1 network, seeded open-ended traffic, metrics
hub), ``faults`` (traffic plus static/scheduled/reverted/transient
faults) and ``chaos`` (a self-healing soak, continued from its on-disk
snapshot ring by a second :func:`~repro.harness.chaos.run_chaos_point`
call) — and every restore is exercised **across backends** too: a snapshot
captured under the dense reference engine must resume byte-identically
under the event-driven engine and vice versa.

Comparisons are structural (field-by-field ``==``), never pickle-bytes
equality: objects that rode a snapshot carry non-interned strings, so
re-pickling a resumed result encodes the same values with different
memoization — a serialization artifact, not a behavioural difference.

Every resume point is a pure function of ``(kind, seed, backend,
restore_backend)``, so sweeps are reproducible and fan out across a
:class:`~repro.harness.parallel.TrialRunner` worker pool.
"""

import logging
import pickle
import random
import tempfile
from collections import namedtuple

from repro.core.random_source import derive_seed
from repro.harness.parallel import TrialSpec, run_trials
from repro.sim.snapshot import restore_network, snapshot_network
from repro.verify.backend_diff import (
    DEFAULT_KINDS,
    _build_traffic,
    _compare,
    _traffic_fingerprint,
)

#: (capture backend, restore backend) pairs swept by default: both
#: same-backend resumes plus both cross-backend directions.
DEFAULT_PAIRS = (
    ("reference", "reference"),
    ("events", "events"),
    ("reference", "events"),
    ("events", "reference"),
)

#: Outcome of one resume point.  ``mismatches`` is a list of
#: human-readable field descriptions (empty when the resumed run is
#: indistinguishable from the uninterrupted one).
ResumeReport = namedtuple(
    "ResumeReport",
    ["kind", "seed", "backend", "restore_backend", "ok", "mismatches"],
)


def _roundtrip(snap):
    """Pickle the snapshot and load it back — the process boundary a
    real checkpoint crosses (worker hand-off, host restart)."""
    return pickle.loads(pickle.dumps(snap, protocol=pickle.HIGHEST_PROTOCOL))


def _run_spans(network, cycles):
    """Run ``cycles`` cycles in several run() calls, like the backend
    diff does: run boundaries must be transparent, so the reference and
    resumed runs deliberately use *different* boundaries."""
    remaining = cycles
    while remaining > 0:
        span = min(remaining, max(1, cycles // 3))
        network.run(span)
        remaining -= span


# ---------------------------------------------------------------------------
# Workload families
# ---------------------------------------------------------------------------

_TRAFFIC_CYCLES = 2400


def _resume_traffic(seed, backend, restore_backend, with_faults):
    mismatches = []
    # Uninterrupted reference.
    network, telemetry, injector = _build_traffic(
        seed, backend, _TRAFFIC_CYCLES, with_faults
    )
    _run_spans(network, _TRAFFIC_CYCLES)
    reference = _traffic_fingerprint(network, telemetry, injector)

    # Same workload, snapshotted at the midpoint.  The original keeps
    # running after the capture and must match the reference exactly —
    # capture is observation, not perturbation.
    network, telemetry, injector = _build_traffic(
        seed, backend, _TRAFFIC_CYCLES, with_faults
    )
    split = _TRAFFIC_CYCLES // 2
    _run_spans(network, split)
    snap = _roundtrip(
        snapshot_network(
            network, extras={"telemetry": telemetry, "injector": injector}
        )
    )
    _run_spans(network, _TRAFFIC_CYCLES - split)
    original = _traffic_fingerprint(network, telemetry, injector)
    _compare((reference, original), mismatches, prefix="original:")

    # The restored copy finishes the run, possibly on the other backend.
    restored = restore_network(snap, backend=restore_backend)
    _run_spans(restored.network, _TRAFFIC_CYCLES - split)
    resumed = _traffic_fingerprint(
        restored.network,
        restored.extras["telemetry"],
        restored.extras["injector"],
    )
    _compare((reference, resumed), mismatches, prefix="resumed:")
    return mismatches


def _start_scenario(scenario, backend):
    from repro.endpoint.messages import Message
    from repro.verify.oracle import attach_oracle

    network = scenario.build(backend=backend, verify_stage_checksums=True)
    oracle = attach_oracle(network)
    sent = [
        network.send(
            m["src"], Message(dest=m["dest"], payload=list(m["payload"]))
        )
        for m in scenario.messages
    ]
    return network, oracle, sent


def _finish_scenario(network, oracle, sent, max_cycles=50000):
    quiet = network.run_until_quiet(max_cycles=max_cycles)
    if quiet:
        oracle.check_quiescent(network.engine.cycle)
    # No final-cycle field: an uninterrupted run stops at the first
    # quiet cycle, while a resume whose split lands after quiescence
    # legitimately ends later.  Everything below is settled by
    # quiescence and cycle-stamped at the event, so it still pins exact
    # trajectories.
    return {
        "quiet": quiet,
        "outcomes": [m.outcome for m in sent],
        "attempts": [m.attempts for m in sent],
        "start_cycles": [m.start_cycle for m in sent],
        "done_cycles": [m.done_cycle for m in sent],
        "arrivals": [entry[0] for entry in network.log.receiver_arrivals],
        "checksum_failures": network.log.receiver_checksum_failures,
        "violations": [
            (v.cycle, v.router, v.port, v.rule, v.detail)
            for v in oracle.violations
        ],
    }


def _resume_scenario(seed, backend, restore_backend):
    from repro.verify.scenario import random_scenario

    rng = random.Random(derive_seed(seed, "resume-diff", "scenario"))
    scenario = random_scenario(
        seed=rng.getrandbits(24), n_messages=rng.randrange(2, 5)
    )
    # A small random split lands mid-flight: words in channel pipelines,
    # circuits locked, retries pending.
    split = rng.randrange(3, 25)
    mismatches = []

    reference = _finish_scenario(*_start_scenario(scenario, backend))

    network, oracle, sent = _start_scenario(scenario, backend)
    network.run(split)
    snap = _roundtrip(
        snapshot_network(network, extras={"oracle": oracle, "sent": sent})
    )
    original = _finish_scenario(network, oracle, sent)
    _compare((reference, original), mismatches, prefix="original:")

    restored = restore_network(snap, backend=restore_backend)
    resumed = _finish_scenario(
        restored.network,
        restored.extras["oracle"],
        restored.extras["sent"],
    )
    _compare((reference, resumed), mismatches, prefix="resumed:")
    return mismatches


def _chaos_fingerprint(result):
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


def _resume_chaos(seed, backend, restore_backend):
    from repro.harness import chaos

    kwargs = dict(
        seed=derive_seed(seed, "resume-diff", "chaos"),
        n_windows=10,
        window_cycles=300,
        warmup_windows=3,
    )
    mismatches = []
    reference = _chaos_fingerprint(
        chaos.run_chaos_point(backend=backend, **kwargs)
    )
    with tempfile.TemporaryDirectory() as ring:
        kwargs.update(snapshot_every=3, snapshot_dir=ring)
        # The ring-writing soak must score identically to the plain one
        # (writing a checkpoint is observation, not perturbation) ...
        ringed = _chaos_fingerprint(
            chaos.run_chaos_point(backend=backend, **kwargs)
        )
        _compare((reference, ringed), mismatches, prefix="ringed:")
        # ... and running it again (a simulated host restart) must
        # continue from its newest on-disk snapshot and land on the
        # same verdicts.  A ring warning means it started over instead,
        # which would make the comparison vacuous.
        warnings = logging.Handler(level=logging.WARNING)
        warnings.emit = lambda record: mismatches.append(
            "resumed: " + record.getMessage()
        )
        chaos.logger.addHandler(warnings)
        try:
            resumed = _chaos_fingerprint(
                chaos.run_chaos_point(backend=restore_backend, **kwargs)
            )
        finally:
            chaos.logger.removeHandler(warnings)
        _compare((reference, resumed), mismatches, prefix="resumed:")
    return mismatches


_KIND_RUNNERS = {
    "scenario": _resume_scenario,
    "traffic": lambda seed, b, rb: _resume_traffic(seed, b, rb, False),
    "faults": lambda seed, b, rb: _resume_traffic(seed, b, rb, True),
    "chaos": _resume_chaos,
}


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def resume_point(kind, seed, backend="reference", restore_backend=None):
    """Run one resume trial; returns a :class:`ResumeReport`.

    ``restore_backend`` None restores under the capture backend.
    """
    try:
        runner = _KIND_RUNNERS[kind]
    except KeyError:
        raise ValueError(
            "unknown resume kind {!r} (choices: {})".format(
                kind, ", ".join(sorted(_KIND_RUNNERS))
            )
        )
    if restore_backend is None:
        restore_backend = backend
    mismatches = runner(seed, backend, restore_backend)
    return ResumeReport(
        kind=kind,
        seed=seed,
        backend=backend,
        restore_backend=restore_backend,
        ok=not mismatches,
        mismatches=mismatches,
    )


def run_resume_trial(seed=0, kind="scenario", backend="reference", restore_backend=None):
    """:class:`TrialSpec` runner wrapper around :func:`resume_point`."""
    return resume_point(
        kind, seed, backend=backend, restore_backend=restore_backend
    )


def resume_diff_specs(
    n_trials=16, seed=0, kinds=DEFAULT_KINDS, pairs=DEFAULT_PAIRS
):
    """``n_trials`` resume trials crossing workload kinds with backend
    pairs.

    Kinds cycle with the trial index and pairs cycle once per full pass
    over the kinds, so 16 trials cover the full 4x4 (kind, capture
    backend, restore backend) matrix.  Each trial's seed derives from
    the root seed and its index, making the set a pure function of its
    arguments.
    """
    specs = []
    for index in range(n_trials):
        kind = kinds[index % len(kinds)]
        backend, restore_backend = pairs[(index // len(kinds)) % len(pairs)]
        trial_seed = derive_seed(seed, "resume-diff", index)
        specs.append(
            TrialSpec(
                runner="repro.verify.resume_diff:run_resume_trial",
                params=dict(
                    kind=kind,
                    backend=backend,
                    restore_backend=restore_backend,
                ),
                seed=trial_seed,
                label="{}[{}] {}->{}".format(
                    kind, index, backend, restore_backend
                ),
            )
        )
    return specs


def resume_sweep(
    n_trials=16,
    seed=0,
    kinds=DEFAULT_KINDS,
    pairs=DEFAULT_PAIRS,
    workers=1,
    cache_dir=None,
    progress=None,
    runner=None,
):
    """Run ``n_trials`` resume trials; returns the reports.

    Each trial is self-contained, so ``workers`` > 1 fans them out
    across a process pool without changing any report.
    """
    specs = resume_diff_specs(
        n_trials=n_trials, seed=seed, kinds=kinds, pairs=pairs
    )
    return run_trials(
        specs, workers=workers, cache_dir=cache_dir, progress=progress, runner=runner
    )


def resume_failures(reports):
    """The subset of reports where resume was not transparent."""
    return [report for report in reports if not report.ok]
