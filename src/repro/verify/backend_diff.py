"""Differential equivalence proof between engine backends.

The event-driven backend (:mod:`repro.sim.backends`) claims to be a
drop-in replacement for the reference engine: not statistically
similar — *byte-identical*.  This module is the proof harness.  Each
diff point runs the same seeded workload once per backend and compares
everything observable:

* the full message log, message by message — source, destination,
  payload words, queue/start/completion cycles, attempt counts,
  outcomes, per-attempt failure causes, blocked stages and reply
  payloads;
* receiver-side arrivals, delivery counts and checksum failures;
* aggregate attempt-failure tallies;
* telemetry metrics snapshots (where the workload binds a hub);
* applied-fault transition histories (where faults are injected);
* oracle violations and quiescence (scenario workloads);
* the final engine cycle.

Four workload families cover the backend's behaviour space:

``scenario``
    A :func:`~repro.verify.scenario.random_scenario` (random topology,
    radix, dilation, datapath, link delay and message set) run under
    the conformance oracle until quiescent.
``traffic``
    A Figure 1 network under seeded open-ended traffic (uniform,
    hotspot or permutation — chosen by the seed) with a metrics-only
    telemetry hub bound.
``faults``
    The traffic workload plus static dead links/routers, scheduled
    mid-run faults with reverts, and transient (duty-cycled) faults.
``chaos``
    A full :func:`~repro.harness.chaos.run_chaos_point` soak with
    self-healing enabled, compared window by window.

Every diff is a pure function of ``(kind, seed)``, so sweeps are
reproducible and can fan out across a
:class:`~repro.harness.parallel.TrialRunner` worker pool (the report
is picklable).
"""

import difflib
import pprint
import random
from collections import namedtuple

from repro.core.random_source import derive_seed
from repro.endpoint.traffic import (
    HotspotTraffic,
    PermutationTraffic,
    UniformRandomTraffic,
)
from repro.harness.parallel import TrialSpec, run_trials

#: Workload families diffed by default, in sweep order.
DEFAULT_KINDS = ("scenario", "traffic", "faults", "chaos")

#: Outcome of one differential run.  ``mismatches`` is a list of
#: human-readable field descriptions (empty when the backends agree).
DiffReport = namedtuple("DiffReport", ["kind", "seed", "ok", "mismatches"])


def message_fingerprint(log):
    """Every observable fact about a message log, as plain tuples."""
    return {
        "messages": [
            (
                m.source,
                m.dest,
                tuple(m.payload),
                m.queued_cycle,
                m.start_cycle,
                m.done_cycle,
                m.attempts,
                m.outcome,
                tuple(m.failure_causes),
                tuple(m.blocked_stages),
                None if m.reply_payload is None else tuple(m.reply_payload),
            )
            for m in log.messages
        ],
        "receiver_deliveries": log.receiver_deliveries,
        "receiver_checksum_failures": log.receiver_checksum_failures,
        "receiver_arrivals": [tuple(entry) for entry in log.receiver_arrivals],
        "attempt_failures": dict(log.attempt_failures),
    }


#: Positions of the simulation cycle and the component id inside the
#: known sequence-valued fingerprint records (see
#: :func:`message_fingerprint` and the per-family fingerprints below).
_RECORD_FIELDS = {
    "messages": {"cycle": 3, "component": 0},  # queued_cycle, source
    "receiver_arrivals": {"cycle": 0},
    "applied": {"cycle": 0},
}


def _unified_diff(ref_value, other_value):
    """A unified diff of the two records' pretty-printed forms."""
    diff = difflib.unified_diff(
        pprint.pformat(ref_value, width=68).splitlines(),
        pprint.pformat(other_value, width=68).splitlines(),
        fromfile="reference",
        tofile="candidate",
        lineterm="",
    )
    return "\n".join(diff)


def _describe_key_divergence(prefix, key, ref_value, other_value):
    """One actionable description of how a fingerprint key diverged.

    For sequence-valued keys the description pinpoints the *first*
    divergent record — its index, the simulation cycle and the
    component id where the record carries them — followed by a unified
    diff of just that record pair.  Scalar and mapping keys get the
    unified diff of their whole values.
    """
    if isinstance(ref_value, list) and isinstance(other_value, list):
        limit = min(len(ref_value), len(other_value))
        index = limit
        for i in range(limit):
            if ref_value[i] != other_value[i]:
                index = i
                break
        ref_rec = ref_value[index] if index < len(ref_value) else "<absent>"
        other_rec = (
            other_value[index] if index < len(other_value) else "<absent>"
        )
        header = "{}{}: first divergence at record {} of {}/{}".format(
            prefix, key, index, len(ref_value), len(other_value)
        )
        fields = _RECORD_FIELDS.get(key, {})
        probe = ref_rec if ref_rec != "<absent>" else other_rec
        if isinstance(probe, tuple):
            position = fields.get("cycle")
            if position is not None and position < len(probe):
                header += ", cycle {}".format(probe[position])
            position = fields.get("component")
            if position is not None and position < len(probe):
                header += ", component {}".format(probe[position])
        return header + "\n" + _unified_diff(ref_rec, other_rec)
    return "{}{}:\n{}".format(
        prefix, key, _unified_diff(ref_value, other_value)
    )


def _compare(fingerprints, mismatches, prefix=""):
    """Append a description per differing key of two fingerprint dicts.

    Each description localizes the first divergence (record index,
    cycle and component id where available) and shows a unified diff
    of the divergent records, so an equivalence failure is actionable
    without re-running the trial under a debugger.
    """
    ref, other = fingerprints
    for key in ref:
        if ref[key] != other[key]:
            mismatches.append(
                _describe_key_divergence(prefix, key, ref[key], other[key])
            )


# ---------------------------------------------------------------------------
# Workload families
# ---------------------------------------------------------------------------


def _diff_scenario(seed, backend):
    from repro.verify.scenario import random_scenario

    rng = random.Random(derive_seed(seed, "backend-diff", "scenario"))
    scenario = random_scenario(
        seed=rng.getrandbits(24), n_messages=rng.randrange(1, 5)
    )
    mismatches = []
    results = [scenario.run(backend=be) for be in ("reference", backend)]
    fingerprints = [
        {
            "quiet": r.quiet,
            "outcomes": list(r.outcomes),
            "attempts": list(r.attempts),
            "start_cycles": list(r.start_cycles),
            "arrivals": list(r.arrivals),
            "checksum_failures": r.checksum_failures,
            "violations": list(r.violations),
        }
        for r in results
    ]
    _compare(fingerprints, mismatches)
    return mismatches


def _traffic_for(rng, network, seed):
    """A seeded traffic source: uniform, hotspot or permutation."""
    n = network.plan.n_endpoints
    w = network.codec.w
    words = rng.choice((4, 12, 20))
    rate = rng.choice((0.01, 0.02, 0.05))
    kind = rng.randrange(3)
    if kind == 0:
        return UniformRandomTraffic(n, w, rate=rate, message_words=words, seed=seed)
    if kind == 1:
        return HotspotTraffic(
            n,
            w,
            rate=rate,
            hotspot=rng.randrange(n),
            fraction=rng.choice((0.1, 0.3)),
            message_words=words,
            seed=seed,
        )
    return PermutationTraffic(
        n,
        w,
        rate=rate,
        permutation=rng.choice(("bit-reverse", "shift")),
        message_words=words,
        seed=seed,
    )


def _build_traffic(seed, backend, cycles, with_faults):
    """Build the traffic-family workload: a figure-1 network with a
    metrics hub bound, seeded traffic attached, and (optionally) the
    full static/scheduled/reverted/transient fault mix installed.

    Returns ``(network, telemetry, injector)`` (injector None without
    faults).  Shared by the backend diff and the resume diff
    (:mod:`repro.verify.resume_diff`), which snapshots the same
    workload mid-run.
    """
    from repro.harness.load_sweep import figure1_network
    from repro.telemetry import TelemetryHub

    rng = random.Random(derive_seed(seed, "backend-diff", "traffic"))
    build_seed = rng.getrandbits(24)
    traffic_seed = rng.getrandbits(24)
    telemetry = TelemetryHub(spans=False)
    network = figure1_network(
        seed=build_seed, telemetry=telemetry, backend=backend
    )
    traffic = _traffic_for(rng, network, traffic_seed)
    applied = None
    if with_faults:
        from repro.faults.injector import (
            FaultInjector,
            random_fault_scenario,
            random_transient_scenario,
        )

        injector = FaultInjector(network)
        fault_seed = rng.getrandbits(24)
        static = random_fault_scenario(
            network,
            n_dead_links=rng.randrange(0, 3),
            n_dead_routers=rng.randrange(0, 2),
            seed=fault_seed,
            exclude_final_stage=True,
        )
        # A mix of immediate, scheduled and scheduled-then-reverted
        # faults exercises every injector entry point.
        for index, fault in enumerate(static):
            if index % 2 == 0:
                injector.now(fault)
            else:
                strike = rng.randrange(cycles // 4, cycles // 2)
                injector.at(strike, fault)
                if rng.random() < 0.5:
                    injector.revert_at(
                        strike + rng.randrange(50, cycles // 4), fault
                    )
        for fault in random_transient_scenario(
            network,
            n_flaky_links=rng.randrange(1, 3),
            mtbf=rng.choice((300, 600)),
            mttr=rng.choice((80, 150)),
            seed=fault_seed + 1,
            start=rng.randrange(0, cycles // 4),
        ):
            injector.transient(fault)
        applied = injector
    traffic.attach(network)
    return network, telemetry, applied


def _traffic_fingerprint(network, telemetry, injector):
    """Everything observable about a traffic-family run so far."""
    fingerprint = message_fingerprint(network.log)
    fingerprint["cycle"] = network.engine.cycle
    fingerprint["metrics"] = telemetry.snapshot().as_dict()
    if injector is not None:
        fingerprint["applied"] = [
            (entry.cycle, entry.fault.describe(), entry.scheduled, entry.action)
            for entry in injector.applied
        ]
    return fingerprint


def _run_traffic(seed, backend, cycles, with_faults):
    network, telemetry, injector = _build_traffic(
        seed, backend, cycles, with_faults
    )
    # Several run() calls rather than one: run boundaries are where an
    # event-driven backend re-prepares, so they must also be
    # transparent.
    remaining = cycles
    while remaining > 0:
        span = min(remaining, max(1, cycles // 3))
        network.run(span)
        remaining -= span
    return _traffic_fingerprint(network, telemetry, injector)


def _diff_traffic(seed, backend, with_faults=False):
    mismatches = []
    fingerprints = [
        _run_traffic(seed, be, cycles=2400, with_faults=with_faults)
        for be in ("reference", backend)
    ]
    _compare(fingerprints, mismatches)
    return mismatches


def _diff_chaos(seed, backend):
    from repro.harness.chaos import run_chaos_point

    mismatches = []
    results = [
        run_chaos_point(
            seed=derive_seed(seed, "backend-diff", "chaos"),
            n_windows=10,
            window_cycles=300,
            warmup_windows=3,
            backend=be,
        )
        for be in ("reference", backend)
    ]
    fingerprints = [
        {
            "windows": list(r.windows),
            "availability": r.availability,
            "undeliverable": r.undeliverable,
            "attempt_failures": dict(r.attempt_failures),
            "fault_events": list(r.fault_events),
            "mask_events": list(r.mask_events),
            "repairs": list(r.repairs),
            "evidence_count": r.evidence_count,
            "oracle_violations": r.oracle_violations,
        }
        for r in results
    ]
    _compare(fingerprints, mismatches)
    return mismatches


_KIND_RUNNERS = {
    "scenario": _diff_scenario,
    "traffic": lambda seed, backend: _diff_traffic(seed, backend, False),
    "faults": lambda seed, backend: _diff_traffic(seed, backend, True),
    "chaos": _diff_chaos,
}


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def diff_point(kind, seed, backend="events"):
    """Run one differential trial; returns a :class:`DiffReport`."""
    try:
        runner = _KIND_RUNNERS[kind]
    except KeyError:
        raise ValueError(
            "unknown diff kind {!r} (choices: {})".format(
                kind, ", ".join(sorted(_KIND_RUNNERS))
            )
        )
    mismatches = runner(seed, backend)
    return DiffReport(kind=kind, seed=seed, ok=not mismatches, mismatches=mismatches)


def run_diff_trial(seed=0, kind="scenario", backend="events"):
    """:class:`TrialSpec` runner wrapper around :func:`diff_point`."""
    return diff_point(kind, seed, backend=backend)


def backend_diff_specs(n_trials=50, seed=0, backend="events", kinds=DEFAULT_KINDS):
    """``n_trials`` diff trials cycling through the workload kinds.

    Each trial's seed derives from the root seed and its index, so the
    set is a pure function of its arguments (and each report is
    independently reproducible with ``diff_point``).
    """
    specs = []
    for index in range(n_trials):
        kind = kinds[index % len(kinds)]
        trial_seed = derive_seed(seed, "backend-diff", index)
        specs.append(
            TrialSpec(
                runner="repro.verify.backend_diff:run_diff_trial",
                params=dict(kind=kind, backend=backend),
                seed=trial_seed,
                label="{}[{}]".format(kind, index),
            )
        )
    return specs


def diff_sweep(
    n_trials=50,
    seed=0,
    backend="events",
    kinds=DEFAULT_KINDS,
    workers=1,
    cache_dir=None,
    progress=None,
    runner=None,
):
    """Run ``n_trials`` differential trials; returns the reports.

    With ``workers`` > 1 the trials fan out across a process pool —
    each trial is self-contained, so parallel order cannot change any
    report.
    """
    specs = backend_diff_specs(
        n_trials=n_trials, seed=seed, backend=backend, kinds=kinds
    )
    return run_trials(
        specs, workers=workers, cache_dir=cache_dir, progress=progress, runner=runner
    )


def diff_failures(reports):
    """The subset of reports where the backends disagreed."""
    return [report for report in reports if not report.ok]
