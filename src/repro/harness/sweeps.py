"""The sweep table: one row per workload kind a sweep command runs.

Every sweep — ``repro figure3``, ``faults``, ``chaos``, ``workloads
collective`` / ``service``, ``saturation`` and ``verify``'s
differential, ``--backend-diff`` and ``--resume-diff`` sweeps — is a
list of :class:`~repro.harness.spec.TrialSpec` run on a
:class:`~repro.harness.parallel.TrialRunner`.  What differs between
those kinds is written once, as a :class:`Sweep` row of
:data:`SWEEPS`:

* :func:`sweep_specs` builds any kind's specs from its row;
* the CLI's one sweep handler (``repro.cli._sweep_command``) reads the
  row's flags, its usage checks, its renderer and its gate;
* the equivalence proofs' :class:`~repro.verify.families.PointFamily`
  rows take their runner and its start / finish halves from it.

This module imports no sweep module: a row names its runner by the
``"module:function"`` path its specs carry, and the functions below
import what they read when they are called, so the sweep modules can
build their specs here.  Adding a kind is adding a row (see "Anatomy
of a sweep family" in ``docs/parallel.md``).
"""

import json
import os
import sys

from repro.core.random_source import derive_seed
from repro.harness.breakdown import measure_breakdown
from repro.harness.reporting import (
    ascii_chart,
    format_series,
    format_table,
    results_to_series,
    sparkline,
)
from repro.harness.spec import TrialSpec
from repro.network.topology import figure1_plan, figure3_plan
from repro.telemetry import MetricsSnapshot


class UsageError(Exception):
    """A command line argparse accepts and the command cannot apply:
    ``repro <cmd>: error: <this>`` and exit 2, before any trial runs."""


#: The ``--metrics`` view of a sweep: distributions over the merged
#: trials and the per-stage utilization heatmap.
METRICS = dict(
    names=(
        "message.latency.cycles",
        "message.queueing.cycles",
        "message.attempts",
        "channel.in_flight",
    ),
    title="Metrics: distributions over the merged sweep",
    heatmap=True,
)

#: Fault levels ``(dead links, dead routers)`` a fault sweep and a
#: collective sweep cover by default.
FAULT_LEVELS = ((0, 0), (4, 0), (8, 0), (16, 0), (4, 2), (8, 4))
COLLECTIVE_FAULT_LEVELS = ((0, 0), (4, 0), (8, 0), (4, 2))
#: Per-client arrival rates a service sweep covers by default.
SERVICE_RATES = (0.0005, 0.001, 0.002, 0.004)


class Sweep:
    """One workload kind: what differs between sweep commands.

    ``command``
        The CLI subcommand that runs it.
    ``runner``
        The point runner's ``"module:function"`` path, every spec's
        runner.
    ``tag`` and ``points(**axis)``
        The point axis.  ``points`` yields ``(key, params, label)`` per
        point; the point's seed is ``derive_seed(root, tag, *key)``, or
        the root seed itself when ``key`` is None.  Its parameters are
        the axis keywords :func:`sweep_specs` takes for the kind.
    ``render(args, results)``
        Prints the kind's tables.
    ``flags``
        ``{runner keyword: CLI dest}``: what the command passes as given.
    ``gate_flags`` and ``gate(results, **bounds)``
        ``{gate keyword: CLI dest}``, and the gate those values bound: it
        returns the failure lines (stderr, exit 1).
    ``prepare(args)``
        What runs before any trial: the kind's usage checks
        (:class:`UsageError`), what it prints first, and the keywords
        it derives from its flags, returned as a dict.
    ``halves``
        The ``"module:function"`` paths of the runner's start and
        finish halves, for the proofs.
    ``noun``, ``metrics``, ``artifacts(args, results)``, ``search``
        What every quarantined trial is called, the ``--metrics``
        view, the output files the kind writes after rendering, and
        the ``"module:function"`` path of a ``search(runner, specs)``
        that runs the specs instead of ``runner.run``.
    """

    def __init__(self, command, runner, tag, points, render, flags=None,
                 gate_flags=None, gate=None, prepare=None, halves=None,
                 noun="trial", metrics=METRICS, artifacts=None, search=None):
        self.command, self.runner, self.tag = command, runner, tag
        self.points, self.render = points, render
        self.flags, self.gate_flags = flags or {}, gate_flags or {}
        self.gate = gate or (lambda results: ())
        self.prepare = prepare or (lambda args: {})
        self.halves, self.noun, self.metrics = halves, noun, metrics
        self.artifacts, self.search = artifacts, search


def sweep_specs(kind, seed=0, **kwargs):
    """The specs of a ``kind`` sweep from root ``seed``, in point order.

    The keywords the row's ``points`` names are the sweep's axis;
    every other keyword reaches each point's runner.  A point's seed is
    a pure function of the root seed and its key, so it does not move
    when points are added, dropped or reordered.
    """
    row = SWEEPS[kind]
    code = row.points.__code__
    axis = code.co_varnames[: code.co_argcount]
    points = row.points(
        **{name: kwargs.pop(name) for name in axis if name in kwargs}
    )
    return [
        TrialSpec(
            runner=row.runner,
            params=dict(**params, **kwargs),
            seed=seed if key is None else derive_seed(seed, row.tag, *key),
            label=label,
        )
        for key, params, label in points
    ]


def _rates(rates):
    for rate in rates:
        yield (rate,), dict(rate=rate), "rate={}".format(rate)


def _fault_points(fault_levels=FAULT_LEVELS, rate=0.02, point=None):
    """``point`` is one level seeded by the root seed itself, as ``repro
    faults`` without ``--levels`` has always been."""
    for links, routers in [point] if point else fault_levels:
        yield (
            None if point else (links, routers, rate),
            dict(n_dead_links=links, n_dead_routers=routers, rate=rate),
            "links={} routers={}".format(links, routers),
        )


def _saturation_points():
    from repro.harness.saturation import GROWTH, MAX_STEPS, START_RATE

    for step in range(MAX_STEPS):
        rate = START_RATE * GROWTH ** step
        yield (rate,), dict(rate=rate), "rate={:.4g}".format(rate)


def _chaos_points(seeds=4, self_heal=(True,), snapshot_dir=None,
                  stream_dir=None):
    """One point per (soak index, healing mode); ``self_heal=(True,
    False)`` is the paired ON/OFF experiment.  A checkpointing soak gets
    its own ring subdirectory and a streaming soak its own run log,
    ``soak<i>-heal<on|off>``, so concurrent soaks never share one and
    running the same specs again continues every unfinished soak from
    its own ring.  Run logs and checkpoints are side effects outside the
    trial-cache key's view of a result: a cache-hit trial returns its
    cached :class:`~repro.harness.chaos.ChaosResult` without re-writing
    them."""
    if stream_dir is not None:
        os.makedirs(stream_dir, exist_ok=True)
    for index in range(seeds):
        for heal in self_heal:
            mode = "on" if heal else "off"
            name = "soak{}-heal{}".format(index, mode)
            params = dict(self_heal=heal)
            if snapshot_dir is not None:
                params["snapshot_dir"] = os.path.join(snapshot_dir, name)
            if stream_dir is not None:
                params["stream_path"] = os.path.join(stream_dir, name + ".jsonl")
            yield (index, heal), params, "chaos[{}] heal={}".format(index, mode)


def _collective_points(fault_levels=COLLECTIVE_FAULT_LEVELS, algorithm="ring"):
    for links, routers in fault_levels:
        yield (
            (algorithm, links, routers),
            dict(algorithm=algorithm, n_dead_links=links, n_dead_routers=routers),
            "{} faults={}+{}".format(algorithm, links, routers),
        )


def _service_points(rates=SERVICE_RATES):
    return _rates(rates)


def _differential_points(n_trials):
    for index in range(n_trials):
        yield (index,), {}, "diff[{}]".format(index)


def _backend_diff_points(n_trials=50, backend="events"):
    """The workload families in turn, trial by trial."""
    from repro.verify.backend_diff import DEFAULT_KINDS as kinds

    for index in range(n_trials):
        kind = kinds[index % len(kinds)]
        yield (index,), dict(kind=kind, backend=backend), "{}[{}]".format(
            kind, index)


def _resume_diff_points(n_trials=16):
    """The kinds cycle with the index and the (capture, restore) backend
    pairs once per pass over the kinds, so ``len(kinds) * len(pairs)``
    trials (28) cover the whole matrix."""
    from repro.verify.backend_diff import DEFAULT_KINDS as kinds
    from repro.verify.resume_diff import DEFAULT_PAIRS as pairs

    for index in range(n_trials):
        kind = kinds[index % len(kinds)]
        backend, restore = pairs[(index // len(kinds)) % len(pairs)]
        params = dict(kind=kind, backend=backend, restore_backend=restore)
        yield (index,), params, "{}[{}] {}->{}".format(
            kind, index, backend, restore)


def _render_series(results, y_labels, title):
    print(format_series(results_to_series(results), x_label="label",
                        y_labels=y_labels, title=title))


def _prepare_load(args):
    from repro.harness.load_sweep import figure3_network

    base = measure_breakdown(figure3_network, samples=8, seed=args.seed).total
    print("Unloaded latency: {:.1f} cycles (paper: 28)\n".format(base))
    return {}


def _render_load(args, results):
    _render_series(results, ["delivered_load", "mean_latency", "p95_latency",
                             "mean_attempts"],
                   "Figure 3: latency vs. network loading")
    print()
    print(
        ascii_chart(
            [(r.delivered_load, r.mean_latency) for r in results],
            title="latency vs delivered load",
            x_label="delivered load (words/endpoint-cycle)",
            y_label="mean latency (cycles)",
        )
    )


def _prepare_faults(args):
    bounds = (args.max_degradation, args.max_undeliverable)
    if not args.levels and bounds != (None, None):
        raise UsageError(
            "--max-degradation and --max-undeliverable need --levels")
    options = (dict(fault_levels=args.levels) if args.levels
               else dict(point=(args.links, args.routers)))
    if args.max_attempts is not None:
        options["max_attempts"] = args.max_attempts
    return options


def _render_faults(args, results):
    print(format_table(
        [r.as_dict() for r in results],
        title="Fault degradation {}".format("sweep" if args.levels else "point"),
    ))


def _faults_gate(results, levels, max_degradation, max_undeliverable):
    from repro.harness.fault_sweep import degradation_failures

    failures = []
    if any(r.delivered_count == 0 for r in results):
        failures.append(
            "FAIL: a fault level delivered no messages" if levels
            else "FAIL: faulted network delivered no messages"
        )
    # Without --levels both bounds are None: nothing to check.
    for result, floor in degradation_failures(results, max_degradation,
                                              max_undeliverable):
        if floor is None:
            failures.append(
                "FAIL: {} abandoned {} message(s), over the "
                "--max-undeliverable bound {}".format(
                    result.label, result.undeliverable, max_undeliverable)
            )
        else:
            failures.append(
                "FAIL: {} delivered {:.4f} words/endpoint-cycle, "
                "below the {:.0%}-degradation floor {:.4f}".format(
                    result.label, result.delivered_load, max_degradation, floor)
            )
    return failures


def _prepare_chaos(args):
    if bool(args.snapshot_every) != bool(args.snapshot_dir):
        raise UsageError("--snapshot-every and --snapshot-dir need each other")
    options = dict(
        self_heal=(True, False) if args.compare else (True,),
        metrics=bool(args.metrics or args.metrics_export or args.snapshot
                     or args.stream),
    )
    if args.snapshot_every:
        options.update(snapshot_every=args.snapshot_every,
                       snapshot_dir=args.snapshot_dir)
    if args.stream:
        options["stream_dir"] = args.stream
    if args.stall_cycles is not None:
        options["stall_cycles"] = args.stall_cycles
    return options


def _render_chaos(args, results):
    rows = []
    for result in results:
        row = result.as_dict()
        row["windows"] = sparkline(
            result.windows, lo=0, hi=max(result.baseline_rate, 1)
        )
        del row["fault_events"]
        del row["seed"]
        rows.append(row)
    title = (
        "Chaos soak: {} seed(s), {} windows x {} cycles, "
        "{} flaky link(s) + {} dead router(s)".format(
            args.seeds, args.windows, args.window_cycles, args.flaky_links,
            args.dead_routers,
        )
    )
    print(format_table(rows, title=title, floatfmt="{:.2f}"))


def _write_chaos_snapshot(args, results):
    """``--snapshot FILE``: the soak summaries and their merged metrics."""
    if not args.snapshot:
        return
    merged = MetricsSnapshot.merge_all(r.metrics for r in results)
    document = {
        "soaks": [r.as_dict() for r in results],
        "metrics": merged.as_dict(),
    }
    with open(args.snapshot, "w") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
    print("wrote soak snapshot to {}".format(args.snapshot))


def _chaos_gate(results, **bounds):
    from repro.harness.chaos import chaos_slo_failures

    for result in results:
        for stall in result.stalls:
            print(
                "WARNING: {} stalled at cycle {}: no progress for {} "
                "cycles with {} message(s) pending ({} quiescence "
                "violation(s) diagnosed)".format(
                    result.label, stall["cycle"], stall["stalled_cycles"],
                    stall["pending"], len(stall["violations"]),
                ),
                file=sys.stderr,
            )
    failures = [
        "FAIL: {} saw {} protocol violation(s) under the "
        "oracle".format(result.label, result.oracle_violations)
        for result in results
        if result.oracle_violations
    ]
    failures.extend(
        "FAIL: {} violated SLO: {}".format(result.label, reason)
        for result, reason in chaos_slo_failures(
            [r for r in results if r.self_heal], **bounds
        )
    )
    return failures


def _prepare_service(args):
    plan = {"figure1": figure1_plan, "figure3": figure3_plan}[args.network]()
    for server in args.servers:
        if server >= plan.n_endpoints:
            raise UsageError(
                "argument --servers: {} is not an endpoint of --network "
                "{} (valid: 0..{})".format(
                    server, args.network, plan.n_endpoints - 1)
            )
    return {}


def _workload_rows(results):
    rows = [result.as_dict() for result in results]
    for row in rows:
        row.pop("log_digest", None)
    return rows


def _render_collective(args, results):
    print(format_table(_workload_rows(results),
                       title="Collective completion vs fault level"))
    for result in results:
        print()
        print(format_table(
            result.steps, title="{}: per-step completion".format(result.label)
        ))


def _render_service(args, results):
    print(format_table(_workload_rows(results),
                       title="Service tail latency vs offered load"))


def _workload_gate(results, **slo):
    """Every SLO bound the command line set (docs/workloads.md)."""
    from repro.harness.workload_sweep import workload_slo_failures

    slo = {bound: value for bound, value in slo.items() if value is not None}
    return ["FAIL: SLO violated: {}".format(failure)
            for failure in workload_slo_failures(results, slo)]


def _prepare_saturation(args):
    from repro.harness.load_sweep import figure3_network

    return dict(network_factory=figure3_network)


def _render_saturation(args, results):
    from repro.harness.saturation import saturation_point

    _render_series(results, ["delivered_load", "mean_latency", "mean_attempts"],
                   "Saturation search (Figure 3 network)")
    saturated = saturation_point(results)
    print("\nSaturation: ~{:.2f} words/endpoint-cycle at {}".format(
        saturated.delivered_load, saturated.label))


def _saturation_gate(results):
    from repro.harness.saturation import saturation_point

    if saturation_point(results).delivered_load <= 0:
        return ["FAIL: network carried no traffic at any rate"]
    return []


def _render_differential(args, reports):
    agree = sum(1 for report in reports if report["ok"])
    print("differential sweep: {}/{} configurations agree with the "
          "latency model".format(agree, len(reports)))


def _diff_fail_path(save, index):
    return os.path.join(save, "diff-fail-{}.json".format(index))


def _differential_gate(reports, save):
    """One ``MISMATCH`` line per disagreeing configuration, naming the
    scenario file :func:`_save_differential_failures` wrote."""
    mismatches = [report for report in reports if not report["ok"]]
    return ["MISMATCH {}: {} -> {}".format(
        index, report["detail"], _diff_fail_path(save, index))
        for index, report in enumerate(mismatches)]


def _save_differential_failures(args, reports):
    """Each disagreeing scenario as ``diff-fail-N.json`` under ``--save``;
    ``--shrink`` minimizes the first to ``diff-fail-0.min.json``."""
    from repro.verify.differential import mismatch_aware_run
    from repro.verify.scenario import Scenario
    from repro.verify.shrink import shrink_scenario

    failed = [Scenario.from_dict(report["scenario"])
              for report in reports if not report["ok"]]
    if not failed:
        return
    os.makedirs(args.save, exist_ok=True)
    for index, scenario in enumerate(failed):
        scenario.save(_diff_fail_path(args.save, index))
    if args.shrink:
        shrunk = shrink_scenario(
            failed[0], max_cycles=args.max_cycles,
            run=mismatch_aware_run(max_cycles=args.max_cycles))
        path = os.path.join(args.save, "diff-fail-0.min.json")
        shrunk.minimal.save(path)
        print("shrunk first failure: {} -> {} messages in {} runs, "
              "signature {} -> {}".format(
                  len(shrunk.original.messages), len(shrunk.minimal.messages),
                  shrunk.tests_run, sorted(shrunk.signature), path))


def _diff_report(summary, name):
    """A twin sweep's renderer (``summary`` of the ok count and the
    total) and gate (one ``MISMATCH`` block per report, named by
    ``name``)."""
    def render(args, reports):
        print(summary.format(sum(1 for r in reports if r.ok), len(reports)))

    def gate(reports):
        return [
            "\n".join(
                ["MISMATCH {}:".format(name.format(report))]
                + ["  {}".format(line[:200]) for line in report.mismatches[:5]]
            )
            for report in reports
            if not report.ok
        ]

    return dict(render=render, gate=gate)


def _prepare_backend_diff(args):
    backend = args.backend
    return dict(backend=backend if backend != "reference" else "events")


_LOAD_WINDOW = dict(warmup_cycles="warmup", measure_cycles="measure")

#: The table, one row per workload kind (see :class:`Sweep`).
SWEEPS = {
    "load": Sweep(
        "figure3", "repro.harness.load_sweep:run_load_point", "load", _rates,
        _render_load, flags=dict(rates="rates", **_LOAD_WINDOW),
        prepare=_prepare_load,
        halves=("repro.harness.load_sweep:start_load_point",
                "repro.harness.load_sweep:finish_load_point"),
    ),
    "fault": Sweep(
        "faults", "repro.harness.fault_sweep:run_fault_point", "fault",
        _fault_points, _render_faults, flags=dict(rate="rate", **_LOAD_WINDOW),
        gate_flags=dict(levels="levels", max_degradation="max_degradation",
                        max_undeliverable="max_undeliverable"),
        gate=_faults_gate, prepare=_prepare_faults,
        halves=("repro.harness.fault_sweep:start_fault_point",
                "repro.harness.load_sweep:finish_load_point"),
        noun="fault level",
    ),
    "saturation": Sweep(
        "saturation", "repro.harness.saturation:run_saturation_point",
        "saturation", _saturation_points, _render_saturation,
        flags=dict(measure_cycles="measure"), gate=_saturation_gate,
        prepare=_prepare_saturation,
        search="repro.harness.saturation:saturation_search",
    ),
    "chaos": Sweep(
        "chaos", "repro.harness.chaos:run_chaos_point", "chaos", _chaos_points,
        _render_chaos,
        flags=dict(seeds="seeds", n_windows="windows",
                   window_cycles="window_cycles",
                   warmup_windows="warmup_windows",
                   n_flaky_links="flaky_links", n_dead_routers="dead_routers",
                   mtbf="mtbf", mttr="mttr", rate="rate", oracle="oracle"),
        gate_flags=dict(min_availability="min_availability",
                        max_undeliverable="max_undeliverable",
                        max_mttr_cycles="max_mttr"),
        gate=_chaos_gate, prepare=_prepare_chaos, noun="soak",
        metrics=dict(
            names=("message.latency.cycles", "message.attempts"),
            title="Metrics: distributions over the merged soaks",
            heatmap=False,
        ),
        artifacts=_write_chaos_snapshot,
    ),
    "collective": Sweep(
        "workloads", "repro.harness.workload_sweep:run_collective_point",
        "wl-coll", _collective_points, _render_collective,
        flags=dict(network="network", fault_levels="fault_levels",
                   algorithm="algorithm", words="words", layers="layers",
                   microbatches="microbatches", max_cycles="max_cycles"),
        gate_flags=dict(collective_cycles="slo_cycles"), gate=_workload_gate,
        halves=("repro.harness.workload_sweep:start_collective_point",
                "repro.harness.workload_sweep:finish_collective_point"),
    ),
    "service": Sweep(
        "workloads", "repro.harness.workload_sweep:run_service_point",
        "wl-svc", _service_points, _render_service,
        flags=dict(network="network", rates="rates", servers="servers",
                   clients="clients", burst_prob="burst_prob",
                   burst_size="burst_size", request_words="request_words",
                   reply_words="reply_words", service_time="service_time",
                   **_LOAD_WINDOW),
        gate_flags=dict(p50="slo_p50", p95="slo_p95", p99="slo_p99",
                        p999="slo_p999", abandoned="slo_abandoned"),
        gate=_workload_gate, prepare=_prepare_service,
        halves=("repro.harness.workload_sweep:start_service_point",
                "repro.harness.workload_sweep:finish_service_point"),
    ),
    "differential": Sweep(
        "verify", "repro.verify.differential:run_trial", "verify-differential",
        _differential_points, _render_differential,
        flags=dict(n_trials="trials"), gate_flags=dict(save="save"),
        gate=_differential_gate, artifacts=_save_differential_failures,
    ),
    "backend-diff": Sweep(
        "verify", "repro.verify.backend_diff:run_diff_trial", "backend-diff",
        _backend_diff_points, flags=dict(n_trials="trials"),
        prepare=_prepare_backend_diff,
        **_diff_report(
            "backend diff sweep: {}/{} workloads byte-identical across "
            "backends",
            "{0.kind}[seed={0.seed}]",
        )
    ),
    "resume-diff": Sweep(
        "verify", "repro.verify.resume_diff:run_resume_trial", "resume-diff",
        _resume_diff_points, flags=dict(n_trials="trials"),
        **_diff_report(
            "resume diff sweep: {}/{} workloads resumed byte-identically "
            "from mid-run snapshots (incl. cross-backend)",
            "{0.kind}[seed={0.seed}] {0.backend}->{0.restore_backend}",
        )
    ),
}
