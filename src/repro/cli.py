"""Command-line interface: regenerate paper results from a terminal.

::

    python -m repro table3
    python -m repro table5
    python -m repro figure1
    python -m repro figure3 --measure 2500 --rates 0.002,0.02,0.16
    python -m repro figure3 --workers 4 --cache-dir ~/.cache/repro
    python -m repro figure3 --metrics
    python -m repro send 5 15 --trace-export trace.json
    python -m repro faults --links 8 --routers 4
    python -m repro faults --levels 0:0,8:0,8:4 --workers 4
    python -m repro faults --levels 0:0,8:4 --max-attempts 40 --max-undeliverable 0
    python -m repro chaos --seeds 4 --compare --workers 4
    python -m repro chaos --seeds 2 --min-availability 0.8 --snapshot chaos.json
    python -m repro chaos --seeds 2 --stream chaos-logs --stall-cycles 2000
    python -m repro chaos --seeds 4 --journal run.jsonl --cache-dir .cache
    python -m repro figure3 --retries 3 --quarantine --journal run.jsonl
    python -m repro tail run.jsonl
    python -m repro tail chaos-logs/soak0-healon.jsonl
    python -m repro tail chaos-logs/soak0-healon.jsonl --follow
    python -m repro figure3 --metrics-export metrics.json
    python -m repro saturation --workers 4
    python -m repro send 5 15 --network figure1
    python -m repro figure3 --backend events
    python -m repro verify --trials 100 --workers 4
    python -m repro verify --trials 100 --shrink
    python -m repro verify --replay .verify-artifacts/diff-fail-0.json
    python -m repro verify --backend-diff --trials 54 --workers 4
    python -m repro verify --resume-diff --trials 24 --workers 4

Commands exit nonzero on failure: ``send`` when the message is not
delivered, ``faults`` when the degraded network delivers nothing (or
degrades past ``--max-degradation`` / abandons more than
``--max-undeliverable`` messages), ``chaos`` when a soak misses its
service-level bounds, ``saturation`` when no saturation point is
found, ``verify`` on any simulator-vs-model mismatch or protocol
violation.

``chaos --stream`` writes one JSONL run log per live soak
(``metro-run-log-v1``: periodic metrics deltas, per-window SLO stats,
fault transitions, watchdog stalls); ``tail`` renders a log —
finished or still being written (``--follow``).

``--workers N`` fans a sweep's independent trials across N worker
processes; results are bit-identical to a serial run for the same
``--seed``.  ``--cache-dir DIR`` reuses already-computed trial results
across invocations (see ``docs/parallel.md``).  ``--backend events``
runs a simulation command on the event-driven engine backend — same
results, faster at low load (see ``docs/API.md`` and
``repro.sim.backends``); ``verify --backend-diff`` checks that claim
end to end.

The sweep commands
(``figure3``/``faults``/``chaos``/``workloads``/``saturation``) also
take resilience flags (see ``docs/resilience.md``): ``--journal``
writes a durable run journal, and running the same command again on
that journal finishes a killed sweep byte-identically;
``--retries``/``--quarantine`` retry crashed or hung trials and
quarantine poison ones.  Exit codes are consistent
across commands: 0 success, 1 a result gate failed (SLO, degradation,
verification), 2 usage/input error (including a ``--journal`` that
cannot be read or describes another sweep), 3 the sweep
completed but quarantined trials (structured failure report on
stderr), 130 interrupted by SIGINT/SIGTERM (journal flushed: run the
same command again).  Every sweep command takes that path through
:func:`_sweep_command` (see "Anatomy of a sweep family" in
``docs/parallel.md``).
"""

import argparse
import os
import sys


class _UsageError(Exception):
    """A command line argparse accepts and the command cannot apply:
    :func:`main` prints ``repro <cmd>: error: <this>`` and exits 2."""


def _runner(args):
    """The shared TrialRunner configured by --workers/--cache-dir.

    The resilience flags ride along when the subcommand defines them:
    ``--journal`` (durable run journal; one that already holds this
    sweep's records is continued, so finished trials are served from
    the cache instead of re-running), ``--retries`` (per-trial attempt
    budget with exponential backoff on recycled workers) and
    ``--quarantine`` (poison trials become structured reports instead
    of killing the sweep).
    """
    from repro.harness.parallel import TrialRunner
    from repro.harness.reporting import progress_printer

    return TrialRunner(
        workers=args.workers,
        cache_dir=args.cache_dir,
        progress=progress_printer() if args.progress else None,
        journal=getattr(args, "journal", None),
        retries=getattr(args, "retries", None),
        on_exhausted=(
            "quarantine" if getattr(args, "quarantine", False) else None
        ),
    )


def _point_kwargs(args):
    """Spec-builder kwargs every sweep family takes, only when set."""
    kwargs = {}
    if args.metrics or args.metrics_export:
        kwargs["metrics"] = True
    if args.backend != "reference":
        kwargs["backend"] = args.backend
    return kwargs


_SWEEP_METRICS = dict(
    names=(
        "message.latency.cycles",
        "message.queueing.cycles",
        "message.attempts",
        "channel.in_flight",
    ),
    title="Metrics: distributions over the merged sweep",
    heatmap=True,
)


def _print_metrics(results, names, title, heatmap):
    """Merge per-trial snapshots (spec order) and print the summaries."""
    from repro.harness.reporting import format_percentiles, format_stage_heatmap
    from repro.telemetry import MetricsSnapshot

    merged = MetricsSnapshot.merge_all(r.metrics for r in results)
    if not len(merged):
        return
    print()
    print(format_percentiles(merged, list(names), title=title))
    if heatmap:
        print()
        print(
            format_stage_heatmap(
                merged,
                title="Metrics: mean backward-port utilization by stage",
            )
        )


def _export_metrics(results, path):
    """Dump the merged MetricsSnapshot of a sweep as JSON.

    The document carries the snapshot twice: ``series`` is the
    lossless wire encoding (``repro.telemetry.stream`` round-trips it
    back into a :class:`MetricsSnapshot`), ``rendered`` the
    human-oriented summaries ``as_dict`` produces.
    """
    import json

    from repro.telemetry import MetricsSnapshot
    from repro.telemetry.stream import snapshot_to_jsonable

    merged = MetricsSnapshot.merge_all(r.metrics for r in results)
    document = {
        "format": "metro-metrics-v1",
        "series": snapshot_to_jsonable(merged),
        "rendered": merged.as_dict(),
    }
    with open(path, "w") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print("wrote metrics snapshot to {}".format(path))


def _report_runner_stats(runner):
    if runner.journal is not None:
        runner.journal.close()
    if runner.stats.executed or runner.stats.cached:
        print(
            "trials: {} executed ({:.1f}s), {} from cache".format(
                runner.stats.executed, runner.stats.seconds, runner.stats.cached
            ),
            file=sys.stderr,
        )


def _strip_quarantined(results):
    """Split results, printing the structured failure report.

    Returns ``(ok_results, status)`` where status is 3 (the dedicated
    exit code) when any trial was quarantined, else 0.  Downstream
    tables/metrics render the ok results only — a
    :class:`~repro.harness.parallel.QuarantinedTrial` has no
    latencies to plot, just the report printed here.
    """
    from repro.harness.cache import partition_quarantined
    from repro.harness.reporting import format_quarantine_report

    ok, quarantined = partition_quarantined(results)
    if not quarantined:
        return ok, 0
    print()
    print(format_quarantine_report(quarantined))
    print(
        "FAIL: {} trial(s) quarantined after exhausting their attempt "
        "budget".format(len(quarantined)),
        file=sys.stderr,
    )
    return ok, 3


def _sweep_command(args, run, render, gate=lambda results: (), noun="trial",
                   metrics_view=_SWEEP_METRICS, artifacts=None):
    """The one path every sweep command takes; returns the exit status.

    ``run(runner)`` executes the family's trial specs on the runner
    built from the global and resilience flags and returns the results
    in spec order.  Quarantined trials are reported and dropped (exit
    3; exit 3 with nothing rendered when every ``noun`` was
    quarantined), ``render(results)`` prints the family's tables,
    ``--metrics`` prints the merged distributions (``metrics_view``:
    names, title, heatmap), ``artifacts(results)`` writes the family's
    own output files, ``--metrics-export`` the merged snapshot, and
    every string ``gate(results)`` returns (a ``FAIL: ...`` line, or a
    verify sweep's ``MISMATCH`` block) goes to stderr and makes the
    exit status 1.  Verify sweeps have no metrics flags; their reports
    ride the same path.
    """
    runner = _runner(args)
    results = run(runner)
    _report_runner_stats(runner)
    results, status = _strip_quarantined(results)
    if not results:
        print("FAIL: every {} was quarantined".format(noun), file=sys.stderr)
        return status or 1
    render(results)
    if getattr(args, "metrics", False):
        _print_metrics(results, **metrics_view)
    if artifacts is not None:
        artifacts(results)
    if getattr(args, "metrics_export", None):
        _export_metrics(results, args.metrics_export)
    for failure in gate(results):
        print(failure, file=sys.stderr)
        status = status or 1
    return status


def _cmd_table3(args):
    from repro.harness.reporting import format_table
    from repro.latency_model.implementations import table3_implementations

    rows = [impl.row() for impl in table3_implementations()]
    print(format_table(rows, title="Table 3: METRO implementation examples"))
    return 0


def _cmd_table5(args):
    from repro.harness.reporting import format_table
    from repro.latency_model.contemporaries import table5_contemporaries

    rows = [c.row() for c in table5_contemporaries()]
    print(
        format_table(
            rows,
            columns=[
                "router",
                "latency",
                "t_bit",
                "t_20_32_estimate_ns",
                "t_20_32_paper_ns",
                "reference",
            ],
            title="Table 5: contemporary routing technologies",
            floatfmt="{:.0f}",
        )
    )
    return 0


def _cmd_figure1(args):
    import random

    from repro.network import analysis
    from repro.network.multibutterfly import wire
    from repro.network.topology import figure1_plan

    plan = figure1_plan()
    links = wire(plan, rng=random.Random(args.seed))
    graph = analysis.build_graph(plan, links)
    print("Figure 1: 16x16 multipath network")
    print("  stages: {} | routers/stage: {}".format(
        plan.n_stages, [plan.routers_in_stage(s) for s in range(plan.n_stages)]))
    print("  paths endpoint 6 -> 16: {}".format(
        analysis.count_paths(plan, graph, 5, 15)))
    print("  min route diversity over all pairs: {}".format(
        analysis.min_route_diversity(plan, graph)))
    for stage in range(plan.n_stages):
        ok = analysis.tolerates_any_single_router_loss(plan, graph, stage)
        print("  survives any single stage-{} router loss: {}".format(stage, ok))
    return 0


def _cmd_figure3(args):
    from repro.harness.load_sweep import load_trial_specs, unloaded_latency
    from repro.harness.reporting import ascii_chart, format_series, results_to_series

    base = unloaded_latency(seed=args.seed, samples=8)
    print("Unloaded latency: {:.1f} cycles (paper: 28)\n".format(base))
    specs = load_trial_specs(
        rates=args.rates,
        seed=args.seed,
        warmup_cycles=args.warmup,
        measure_cycles=args.measure,
        **_point_kwargs(args)
    )

    def render(results):
        print(
            format_series(
                results_to_series(results),
                x_label="label",
                y_labels=["delivered_load", "mean_latency", "p95_latency", "mean_attempts"],
                title="Figure 3: latency vs. network loading",
            )
        )
        print()
        print(
            ascii_chart(
                [(r.delivered_load, r.mean_latency) for r in results],
                title="latency vs delivered load",
                x_label="delivered load (words/endpoint-cycle)",
                y_label="mean latency (cycles)",
            )
        )

    return _sweep_command(args, lambda runner: runner.run(specs), render)


def _cmd_faults(args):
    from repro.harness.fault_sweep import degradation_failures, fault_trial_specs
    from repro.harness.reporting import format_table

    common = dict(
        rate=args.rate,
        warmup_cycles=args.warmup,
        measure_cycles=args.measure,
        **_point_kwargs(args)
    )
    if args.max_attempts is not None:
        common["max_attempts"] = args.max_attempts
    bounds = (args.max_degradation, args.max_undeliverable)
    if not args.levels and bounds != (None, None):
        raise _UsageError("--max-degradation and --max-undeliverable need --levels")
    levels = args.levels or ((args.links, args.routers),)
    specs = fault_trial_specs(fault_levels=levels, seed=args.seed, **common)
    if not args.levels:
        # One point is a one-spec sweep, so --journal/--retries/
        # --quarantine/--workers/--cache-dir/--progress apply to it; it
        # has always been seeded by --seed itself, not a per-level seed.
        specs[0].seed = args.seed

    def render(results):
        print(
            format_table(
                [r.as_dict() for r in results],
                title="Fault degradation {}".format(
                    "sweep" if args.levels else "point"
                ),
            )
        )

    def gate(results):
        failures = []
        if any(r.delivered_count == 0 for r in results):
            failures.append(
                "FAIL: a fault level delivered no messages"
                if args.levels
                else "FAIL: faulted network delivered no messages"
            )
        # Without --levels both bounds are None: nothing to check.
        for result, floor in degradation_failures(
            results,
            max_degradation=args.max_degradation,
            max_undeliverable=args.max_undeliverable,
        ):
            if floor is None:
                failures.append(
                    "FAIL: {} abandoned {} message(s), over the "
                    "--max-undeliverable bound {}".format(
                        result.label,
                        result.undeliverable,
                        args.max_undeliverable,
                    )
                )
            else:
                failures.append(
                    "FAIL: {} delivered {:.4f} words/endpoint-cycle, "
                    "below the {:.0%}-degradation floor {:.4f}".format(
                        result.label,
                        result.delivered_load,
                        args.max_degradation,
                        floor,
                    )
                )
        return failures

    return _sweep_command(
        args, lambda runner: runner.run(specs), render, gate,
        noun="fault level",
    )


def _cmd_chaos(args):
    from repro.harness.chaos import chaos_slo_failures, chaos_trial_specs
    from repro.harness.reporting import format_table, sparkline

    sweep_kwargs = _point_kwargs(args)
    if bool(args.snapshot_every) != bool(args.snapshot_dir):
        raise _UsageError("--snapshot-every and --snapshot-dir need each other")
    if args.snapshot_every:
        sweep_kwargs["snapshot_every"] = args.snapshot_every
        sweep_kwargs["snapshot_dir"] = args.snapshot_dir
    if args.stream:
        sweep_kwargs["stream_dir"] = args.stream
    if args.stall_cycles is not None:
        sweep_kwargs["stall_cycles"] = args.stall_cycles
    sweep_kwargs["metrics"] = bool(
        sweep_kwargs.get("metrics") or args.snapshot or args.stream
    )
    specs = chaos_trial_specs(
        seeds=args.seeds,
        seed=args.seed,
        self_heal=(True, False) if args.compare else (True,),
        n_windows=args.windows,
        window_cycles=args.window_cycles,
        warmup_windows=args.warmup_windows,
        n_flaky_links=args.flaky_links,
        n_dead_routers=args.dead_routers,
        mtbf=args.mtbf,
        mttr=args.mttr,
        rate=args.rate,
        oracle=args.oracle,
        **sweep_kwargs
    )

    def render(results):
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
                args.seeds,
                args.windows,
                args.window_cycles,
                args.flaky_links,
                args.dead_routers,
            )
        )
        print(format_table(rows, title=title, floatfmt="{:.2f}"))

    def write_snapshot(results):
        import json

        from repro.telemetry import MetricsSnapshot

        merged = MetricsSnapshot.merge_all(r.metrics for r in results)
        document = {
            "soaks": [r.as_dict() for r in results],
            "metrics": merged.as_dict(),
        }
        with open(args.snapshot, "w") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
        print("wrote soak snapshot to {}".format(args.snapshot))

    def gate(results):
        for result in results:
            for stall in result.stalls:
                print(
                    "WARNING: {} stalled at cycle {}: no progress for {} "
                    "cycles with {} message(s) pending ({} quiescence "
                    "violation(s) diagnosed)".format(
                        result.label,
                        stall["cycle"],
                        stall["stalled_cycles"],
                        stall["pending"],
                        len(stall["violations"]),
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
                [r for r in results if r.self_heal],
                min_availability=args.min_availability,
                max_undeliverable=args.max_undeliverable,
                max_mttr_cycles=args.max_mttr,
            )
        )
        return failures

    return _sweep_command(
        args, lambda runner: runner.run(specs), render, gate,
        noun="soak",
        metrics_view=dict(
            names=("message.latency.cycles", "message.attempts"),
            title="Metrics: distributions over the merged soaks",
            heatmap=False,
        ),
        artifacts=write_snapshot if args.snapshot else None,
    )


#: What only one kind of ``workloads`` run reads, written once: kind ->
#: ({spec-builder keyword: flag}, {SLO bound: flag}).  The kind's specs
#: and SLO gate are built from its own entry; a flag of the other entry
#: moved off its default is a usage error.
_WORKLOAD_FLAGS = {
    "collective": (
        dict(fault_levels="fault_levels", algorithm="algorithm",
             words="words", layers="layers", microbatches="microbatches",
             max_cycles="max_cycles"),
        dict(collective_cycles="slo_cycles"),
    ),
    "service": (
        dict(rates="rates", servers="servers", clients="clients",
             burst_prob="burst_prob", burst_size="burst_size",
             request_words="request_words", reply_words="reply_words",
             service_time="service_time", warmup_cycles="warmup",
             measure_cycles="measure"),
        dict(p50="slo_p50", p95="slo_p95", p99="slo_p99", p999="slo_p999",
             abandoned="slo_abandoned"),
    ),
}


def _cmd_workloads(args):
    """Application workload sweeps with SLO gates (docs/workloads.md).

    Exit codes follow the repo convention: 1 when the SLO gate fails
    (a latency percentile over its bound, abandoned requests over
    their bound, or an incomplete collective), 3 when trials were
    quarantined, 0 otherwise.
    """
    from repro.harness.reporting import format_table
    from repro.harness.workload_sweep import (
        collective_trial_specs,
        service_trial_specs,
        workload_slo_failures,
    )

    other = "service" if args.kind == "collective" else "collective"
    bare = build_parser().parse_args(["workloads", args.kind])
    stray = [
        "--" + flag.replace("_", "-")
        for flags in _WORKLOAD_FLAGS[other] for flag in flags.values()
        if getattr(args, flag) != getattr(bare, flag)
    ]
    if stray:
        raise _UsageError("{} set, which only `workloads {}` reads".format(
            ", ".join(stray), other))
    if args.kind == "service":
        from repro.network.topology import figure1_plan, figure3_plan

        plan = {"figure1": figure1_plan, "figure3": figure3_plan}[args.network]()
        for server in args.servers:
            if server >= plan.n_endpoints:
                raise _UsageError(
                    "argument --servers: {} is not an endpoint of --network "
                    "{} (valid: 0..{})".format(
                        server, args.network, plan.n_endpoints - 1
                    )
                )
    keywords, bounds = _WORKLOAD_FLAGS[args.kind]
    build = collective_trial_specs if args.kind == "collective" else service_trial_specs
    specs = build(
        network=args.network, seed=args.seed, **_point_kwargs(args),
        **{keyword: getattr(args, flag) for keyword, flag in keywords.items()}
    )
    slo = {
        bound: getattr(args, flag) for bound, flag in bounds.items()
        if getattr(args, flag) is not None
    }

    def render(results):
        rows = []
        for result in results:
            row = result.as_dict()
            row.pop("log_digest", None)
            rows.append(row)
        if args.kind == "collective":
            print(format_table(rows, title="Collective completion vs fault level"))
            for result in results:
                print()
                print(
                    format_table(
                        result.steps,
                        title="{}: per-step completion".format(result.label),
                    )
                )
        else:
            print(
                format_table(
                    rows, title="Service tail latency vs offered load"
                )
            )

    def gate(results):
        return [
            "FAIL: SLO violated: {}".format(failure)
            for failure in workload_slo_failures(results, slo)
        ]

    return _sweep_command(args, lambda runner: runner.run(specs), render, gate)


def _cmd_breakdown(args):
    from repro.harness.breakdown import measure_breakdown
    from repro.harness.load_sweep import figure3_network
    from repro.harness.reporting import format_table

    rows = []
    for words in (1, 4, 20, 60):
        breakdown = measure_breakdown(
            figure3_network, message_words=words, samples=6, seed=args.seed
        )
        row = {"message_words": words}
        row.update(breakdown.as_dict())
        row["injection_dominates"] = breakdown.injection_dominates
        rows.append(row)
    print(
        format_table(
            rows,
            title="Latency decomposition (Figure 3 network, unloaded): "
            "the short-haul condition is injection >= transit",
        )
    )
    return 0


def _cmd_saturation(args):
    from repro.harness.reporting import format_series, results_to_series
    from repro.harness.saturation import find_saturation

    saturated = None

    def run(runner):
        nonlocal saturated
        saturated, results = find_saturation(
            seed=args.seed,
            measure_cycles=args.measure,
            runner=runner,
            **_point_kwargs(args)
        )
        return results

    def render(results):
        print(
            format_series(
                results_to_series(results),
                x_label="label",
                y_labels=["delivered_load", "mean_latency", "mean_attempts"],
                title="Saturation search (Figure 3 network)",
            )
        )
        print(
            "\nSaturation: ~{:.2f} words/endpoint-cycle at {}".format(
                saturated.delivered_load, saturated.label
            )
        )

    def gate(_results):
        if saturated.delivered_load <= 0:
            return ["FAIL: network carried no traffic at any rate"]
        return []

    return _sweep_command(args, run, render, gate)


def _cmd_send(args):
    from repro.endpoint.messages import DELIVERED, Message
    from repro.network.builder import build_network
    from repro.network.fattree import fattree_plan
    from repro.network.topology import figure1_plan, figure3_plan

    plans = {
        "figure1": figure1_plan,
        "figure3": figure3_plan,
        "fattree": fattree_plan,
    }
    plan = plans[args.network]()
    for role, index in (("src", args.src), ("dest", args.dest)):
        if not 0 <= index < plan.n_endpoints:
            print(
                "send: {} {} is not an endpoint of --network {} "
                "(valid: 0..{})".format(
                    role, index, args.network, plan.n_endpoints - 1
                ),
                file=sys.stderr,
            )
            return 2
    telemetry = None
    if args.verbose or args.trace_export:
        from repro.telemetry import TelemetryHub

        telemetry = TelemetryHub()
    network = build_network(
        plan, seed=args.seed, telemetry=telemetry, backend=args.backend
    )
    message = network.send(args.src, Message(dest=args.dest, payload=[1, 2, 3, 4]))
    network.run_until_quiet(max_cycles=args.max_cycles)
    if args.trace_export:
        document = telemetry.export_trace(args.trace_export)
        print(
            "wrote {} trace events to {} (open in Perfetto / "
            "chrome://tracing)".format(
                len(document["traceEvents"]), args.trace_export
            )
        )
    print(
        "{} -> {}: {} in {} cycles, {} attempt(s)".format(
            args.src, args.dest, message.outcome, message.latency, message.attempts
        )
    )
    if args.verbose:
        for line in telemetry.spans.timeline():
            print("  " + line)
    if message.outcome != DELIVERED:
        print("FAIL: message was not delivered", file=sys.stderr)
        return 1
    return 0


def _cmd_verify_diff(args):
    """``verify --backend-diff`` / ``--resume-diff``: the twin sweeps."""
    if args.backend_diff:
        from repro.verify.backend_diff import backend_diff_specs

        specs = backend_diff_specs(
            n_trials=args.trials,
            seed=args.seed,
            backend=args.backend if args.backend != "reference" else "events",
        )
        summary = (
            "backend diff sweep: {}/{} workloads byte-identical across "
            "backends"
        )
        name = "{0.kind}[seed={0.seed}]"
    else:
        from repro.verify.resume_diff import resume_diff_specs

        specs = resume_diff_specs(n_trials=args.trials, seed=args.seed)
        summary = (
            "resume diff sweep: {}/{} workloads resumed byte-identically "
            "from mid-run snapshots (incl. cross-backend)"
        )
        name = "{0.kind}[seed={0.seed}] {0.backend}->{0.restore_backend}"

    def render(reports):
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

    return _sweep_command(args, lambda runner: runner.run(specs), render, gate)


def _cmd_verify(args):
    from repro.verify.differential import (
        differential_specs,
        mismatch_aware_run,
    )
    from repro.verify.scenario import Scenario
    from repro.verify.shrink import shrink_scenario

    if args.backend_diff + args.resume_diff + bool(args.replay) > 1:
        raise _UsageError(
            "--backend-diff, --resume-diff and --replay are three runs: give one"
        )
    if args.backend_diff or args.resume_diff:
        return _cmd_verify_diff(args)

    if args.replay:
        scenario = Scenario.load(args.replay)
        result = scenario.run(max_cycles=args.max_cycles, backend=args.backend)
        print("replay {!r}".format(scenario))
        print(
            "  quiet={} outcomes={} violations={}".format(
                result.quiet, result.outcomes, len(result.violations)
            )
        )
        for cycle, router, port, rule, detail in result.violations[:20]:
            print("  @{} {} port={} [{}] {}".format(
                cycle, router, port, rule, detail))
        return 0 if result.clean else 1

    specs = differential_specs(args.trials, args.seed)
    mismatches = []

    def render(reports):
        mismatches.extend(report for report in reports if not report["ok"])
        print(
            "differential sweep: {}/{} configurations agree with the "
            "latency model".format(
                len(reports) - len(mismatches), len(reports)
            )
        )

    status = _sweep_command(args, lambda runner: runner.run(specs), render)
    if not mismatches:
        return status

    os.makedirs(args.save, exist_ok=True)
    for index, report in enumerate(mismatches):
        scenario = Scenario.from_dict(report["scenario"])
        path = os.path.join(args.save, "diff-fail-{}.json".format(index))
        scenario.save(path)
        print("MISMATCH {}: {} -> {}".format(index, report["detail"], path))

    if args.shrink:
        scenario = Scenario.from_dict(mismatches[0]["scenario"])
        shrunk = shrink_scenario(
            scenario,
            max_cycles=args.max_cycles,
            run=mismatch_aware_run(max_cycles=args.max_cycles),
        )
        path = os.path.join(args.save, "diff-fail-0.min.json")
        shrunk.minimal.save(path)
        print(
            "shrunk first failure: {} -> {} messages in {} runs, "
            "signature {} -> {}".format(
                len(shrunk.original.messages),
                len(shrunk.minimal.messages),
                shrunk.tests_run,
                sorted(shrunk.signature),
                path,
            )
        )
    return 1


def _tail_view(events):
    """``(validator, summary renderer, follow-line formatter)`` of the
    format the header record names."""
    if events and events[0].get("event") == "journal.start":
        from repro.harness import journal

        return (journal.validate_journal, journal.render_journal,
                journal.format_journal_event)
    from repro.telemetry import stream

    return (stream.validate_run_log, stream.render_run_log,
            stream.format_run_log_event)


def _cmd_tail(args):
    import time

    from repro.telemetry.stream import read_run_log

    view = None
    printed = 0
    try:
        while True:
            try:
                events = read_run_log(args.run_log)
                view = view or _tail_view(events)
                validate, render, follow_line = view
                validate(events)
            except (OSError, ValueError) as exc:
                print("tail: {}".format(exc), file=sys.stderr)
                return 2
            if not args.follow:
                print("\n".join(render(events, args.last)))
                return 0
            for event in events[printed:]:
                line = follow_line(event)
                if line:
                    print(line, flush=True)
            printed = len(events)
            if events[-1].get("event") in ("run.end", "sweep.end"):
                return 0
            time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0


def _comma_list(item):
    """An argparse ``type=`` for ``A,B,...``: a tuple of ``item(part)``.

    A part ``item`` rejects (``ValueError``) becomes argparse's one-line
    ``error: argument --X: invalid ... value`` and exit 2.
    """
    def parse(text):
        return tuple(item(part) for part in text.split(","))

    parse.__name__ = "{}_list".format(item.__name__.lstrip("_"))
    return parse


def _checked(number, accept, name):
    """An argparse ``type=``: a ``number`` (``int`` / ``float``, or any
    other parser of the text) that ``accept`` passes.

    Anything else (``--measure 0``, ``--warmup -5``, ``--trials x``,
    ``--rate 7``, ``--burst-prob nan``) is argparse's one-line ``error:
    argument --X: invalid <name> value`` and exit 2, before a command
    divides by it, loops over it or simulates a rate that is not one.
    """
    def parse(text):
        value = number(text)
        if not accept(value):
            raise ValueError(text)
        return value

    parse.__name__ = name
    return parse


_positive = _checked(int, lambda n: n >= 1, "positive_int")
_non_negative = _checked(int, lambda n: n >= 0, "non_negative_int")
#: A probability per cycle or a share of something: ``[0, 1]``.
_fraction = _checked(float, lambda x: 0 <= x <= 1, "fraction")
_non_negative_float = _checked(float, lambda x: x >= 0, "non_negative_float")
_positive_float = _checked(float, lambda x: x > 0, "positive_float")
#: ``LO:HI``: a range of cycle counts, ``0 <= LO <= HI``.
_service_time = _checked(
    lambda text: tuple(int(part) for part in text.split(":")),
    lambda pair: len(pair) == 2 and 0 <= pair[0] <= pair[1],
    "service_time",
)


#: A file a command writes: in a directory that exists, and not itself
#: one.  Checked before any trial runs: three of these flags are written
#: only after the sweep has run and printed.
_output_file = _checked(
    str,
    lambda path: os.path.isdir(os.path.dirname(os.path.abspath(path)))
    and not os.path.isdir(path),
    "output_file",
)
#: A directory a command fills: one that exists, or a path still free.
_output_dir = _checked(
    str,
    lambda path: os.path.isdir(path) or not os.path.lexists(path),
    "output_dir",
)


def _fault_level(part):
    """``LINKS[:ROUTERS]`` -> ``(dead links, dead routers)``."""
    links, _, routers = part.partition(":")
    return int(links), int(routers or 0)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro",
        description="METRO (ISCA 1994) reproduction: regenerate paper results.",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--workers",
        type=_positive,
        default=1,
        help="worker processes for sweep trials (1 = serial; results "
        "are identical either way for the same --seed)",
    )
    parser.add_argument(
        "--cache-dir",
        type=_output_dir,
        default=None,
        help="directory for the on-disk trial cache (repeat runs skip "
        "already-computed sweep points)",
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help="print per-trial progress/timing lines to stderr",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("table3", help="Table 3 implementation examples")
    sub.add_parser("table5", help="Table 5 contemporary comparison")
    sub.add_parser("figure1", help="Figure 1 structural statistics")

    def add_backend(command):
        from repro.sim.backends import BACKENDS

        command.add_argument(
            "--backend",
            choices=sorted(BACKENDS),
            default="reference",
            help="engine backend: 'events' activity-gates idle "
            "components for the same results faster at low load "
            "(see docs/API.md)",
        )

    def add_sweep_options(command, quarantine=True):
        """What every sweep command shares: metrics, backend, resilience."""
        command.add_argument(
            "--metrics", action="store_true",
            help="collect per-trial telemetry metrics and print merged "
            "latency/occupancy percentiles plus a per-stage utilization "
            "heatmap (identical for serial and parallel runs)",
        )
        command.add_argument(
            "--metrics-export", type=_output_file, default=None,
            metavar="FILE",
            help="write the sweep's merged metrics snapshot to FILE as JSON "
            "(metro-metrics-v1: a lossless 'series' encoding plus rendered "
            "summaries); implies metrics collection",
        )
        add_backend(command)
        command.add_argument(
            "--journal", type=_output_file, default=None, metavar="FILE",
            help="write a durable run journal (metro-run-journal-v1, "
            "append-only JSONL, fsynced per record) of every trial "
            "state transition.  Run the same command again to finish a "
            "killed sweep: trials FILE shows finished are served from "
            "the --cache-dir trial cache (content-hash verified), only "
            "the rest re-execute, and the new leg appends to FILE — "
            "byte-identical to an uninterrupted run (see "
            "docs/resilience.md; render with 'repro tail')",
        )
        command.add_argument(
            "--retries", type=_positive, default=None, metavar="N",
            help="per-trial attempt budget with exponential backoff: "
            "a trial whose worker crashes (SIGKILL/OOM), times out, or "
            "raises is retried on a recycled worker up to N attempts "
            "(default 1 = fail fast)",
        )
        if quarantine:
            command.add_argument(
                "--quarantine", action="store_true",
                help="after the --retries budget, quarantine a poison "
                "trial (structured failure report, exit code 3) so the "
                "rest of the sweep still completes",
            )

    fig3 = sub.add_parser("figure3", help="Figure 3 latency/load sweep")
    fig3.add_argument(
        "--rates", type=_comma_list(_fraction), default="0.002,0.01,0.04,0.16"
    )
    fig3.add_argument("--warmup", type=_non_negative, default=600)
    fig3.add_argument("--measure", type=_positive, default=2500)
    add_sweep_options(fig3)

    faults = sub.add_parser("faults", help="fault-degradation point")
    faults.add_argument("--links", type=_non_negative, default=8)
    faults.add_argument("--routers", type=_non_negative, default=0)
    faults.add_argument("--rate", type=_fraction, default=0.02)
    faults.add_argument("--warmup", type=_non_negative, default=600)
    faults.add_argument("--measure", type=_positive, default=2500)
    faults.add_argument(
        "--levels",
        type=_comma_list(_fault_level),
        default=None,
        help="run a full degradation sweep over LINKS:ROUTERS levels, "
        "e.g. 0:0,8:0,8:4 (parallelizes with --workers)",
    )
    faults.add_argument(
        "--max-degradation",
        type=_fraction,
        default=None,
        metavar="FRACTION",
        help="with --levels: exit nonzero if any level's delivered load "
        "falls more than FRACTION below the first (baseline) level",
    )
    faults.add_argument(
        "--max-attempts",
        type=_positive,
        default=None,
        help="per-message retry budget; exhausted messages surface as "
        "'undeliverable' in the sweep results",
    )
    faults.add_argument(
        "--max-undeliverable",
        type=_non_negative,
        default=None,
        metavar="N",
        help="with --levels: exit nonzero if any level abandons more "
        "than N messages (retry-budget exhaustion)",
    )
    add_sweep_options(faults)

    chaos = sub.add_parser(
        "chaos",
        help="chaos soak: transient faults with online self-healing",
    )
    chaos.add_argument(
        "--seeds", type=_positive, default=4,
        help="independent soaks (parallelizes with --workers)",
    )
    chaos.add_argument("--windows", type=_positive, default=30)
    chaos.add_argument("--window-cycles", type=_positive, default=400)
    chaos.add_argument("--warmup-windows", type=_non_negative, default=5)
    chaos.add_argument("--flaky-links", type=_non_negative, default=1)
    chaos.add_argument("--dead-routers", type=_non_negative, default=1)
    chaos.add_argument("--mtbf", type=_positive, default=1500,
                       help="mean cycles between transient failures")
    chaos.add_argument("--mttr", type=_positive, default=600,
                       help="mean cycles a transient fault stays down")
    chaos.add_argument("--rate", type=_fraction, default=0.02)
    chaos.add_argument(
        "--compare",
        action="store_true",
        help="run each soak twice, self-healing ON and OFF, for the "
        "paired availability comparison",
    )
    chaos.add_argument(
        "--oracle",
        action="store_true",
        help="attach the protocol conformance oracle for the whole "
        "soak; violations fail the command",
    )
    chaos.add_argument(
        "--min-availability", type=_non_negative_float, default=None,
        metavar="FRACTION",
        help="exit nonzero if a self-healing soak's availability "
        "(fraction of post-fault windows meeting the delivered SLO) "
        "falls below FRACTION",
    )
    chaos.add_argument(
        "--max-undeliverable", type=_non_negative, default=None, metavar="N",
        help="exit nonzero if a self-healing soak abandons more than "
        "N messages",
    )
    chaos.add_argument(
        "--max-mttr", type=_non_negative_float, default=None, metavar="CYCLES",
        help="exit nonzero if a self-healing soak's mean degraded "
        "episode exceeds CYCLES",
    )
    chaos.add_argument(
        "--snapshot-every", type=_positive, default=None, metavar="K",
        help="checkpoint each live soak every K completed windows into "
        "a ring of engine snapshots under --snapshot-dir (one "
        "subdirectory per soak); running the same command again "
        "continues each unfinished soak from its newest checkpoint",
    )
    chaos.add_argument(
        "--snapshot-dir", type=_output_dir, default=None, metavar="DIR",
        help="directory for the --snapshot-every checkpoint rings",
    )
    chaos.add_argument(
        "--snapshot", type=_output_file, default=None, metavar="FILE",
        help="write soak summaries + merged telemetry metrics as JSON "
        "(the chaos-smoke CI artifact)",
    )
    chaos.add_argument(
        "--stream", type=_output_dir, default=None, metavar="DIR",
        help="stream live JSONL run logs (metro-run-log-v1: metrics "
        "deltas, window stats, fault transitions, watchdog stalls) "
        "into DIR, one log per soak; a resumed soak appends its leg to "
        "the same log; implies --metrics and attaches a run-health "
        "watchdog (render with 'repro tail')",
    )
    chaos.add_argument(
        "--stall-cycles", type=_positive, default=None, metavar="N",
        help="watchdog threshold: flag a soak making no delivery "
        "progress for N cycles while messages are pending (defaults "
        "to 5 windows when --stream or a heartbeat file is active)",
    )
    add_sweep_options(chaos)

    workloads = sub.add_parser(
        "workloads",
        help="application workloads: ML collectives and request/response "
        "services (docs/workloads.md)",
    )
    workloads.add_argument(
        "kind", choices=("collective", "service"),
        help="'collective': dependency-DAG ML collectives swept over "
        "fault levels; 'service': open-loop request/response soaks "
        "swept over offered load",
    )
    workloads.add_argument(
        "--network", choices=("figure1", "figure3"), default="figure1",
        help="fabric: the 16-endpoint Figure 1 network (quick) or the "
        "64-endpoint Figure 3 network",
    )
    workloads.add_argument(
        "--algorithm",
        choices=("ring", "recursive-doubling", "all-to-all", "pipeline"),
        default="ring",
        help="collective schedule generator",
    )
    workloads.add_argument(
        "--words", type=_positive, default=20,
        help="per-rank vector words (chunked by the algorithm)",
    )
    workloads.add_argument(
        "--layers", type=_comma_list(_positive), default=None,
        metavar="W1,W2,...",
        help="model-shaped mode: per-layer gradient sizes in words; "
        "one serialized all-reduce per layer in backprop order",
    )
    workloads.add_argument(
        "--microbatches", type=_positive, default=4,
        help="microbatches for the pipeline-parallel schedule",
    )
    workloads.add_argument(
        "--fault-levels", type=_comma_list(_fault_level),
        default="0:0,4:0,8:0", metavar="L:R,...",
        help="dead-links:dead-routers levels for the collective sweep",
    )
    workloads.add_argument(
        "--max-cycles", type=_positive, default=400000,
        help="cycle budget per collective execution",
    )
    workloads.add_argument(
        "--slo-cycles", type=_non_negative_float, default=None, metavar="CYCLES",
        help="exit 1 if a collective's completion time exceeds CYCLES "
        "(incomplete collectives always fail)",
    )
    workloads.add_argument(
        "--rates", type=_comma_list(_non_negative_float),
        default="0.0005,0.001,0.002,0.004",
        help="per-client mean arrivals/cycle for the service sweep",
    )
    workloads.add_argument(
        "--servers", type=_comma_list(_non_negative), default="0",
        metavar="E1,E2,...",
        help="server endpoint indices; every other endpoint hosts "
        "clients",
    )
    workloads.add_argument(
        "--clients", type=_positive, default=4,
        help="simulated clients multiplexed per client endpoint",
    )
    workloads.add_argument(
        "--burst-prob", type=_fraction, default=0.0,
        help="probability an arrival triggers a burst",
    )
    workloads.add_argument(
        "--burst-size", type=_positive, default=1,
        help="requests per burst (1 = pure Poisson arrivals)",
    )
    workloads.add_argument("--request-words", type=_positive, default=8)
    workloads.add_argument("--reply-words", type=_non_negative, default=4)
    workloads.add_argument(
        "--service-time", type=_service_time, default="0:16", metavar="LO:HI",
        help="uniform simulated server processing cycles per request",
    )
    workloads.add_argument("--warmup", type=_non_negative, default=1000)
    workloads.add_argument("--measure", type=_positive, default=6000)
    for quantile in ("p50", "p95", "p99", "p999"):
        workloads.add_argument(
            "--slo-{}".format(quantile), type=_non_negative_float, default=None,
            metavar="CYCLES",
            help="exit 1 if the {} request latency exceeds "
            "CYCLES".format(quantile),
        )
    workloads.add_argument(
        "--slo-abandoned", type=_non_negative, default=None, metavar="N",
        help="exit 1 if more than N requests were abandoned",
    )
    add_sweep_options(workloads)

    saturation = sub.add_parser("saturation", help="find saturation throughput")
    saturation.add_argument("--measure", type=_positive, default=2000)
    # No --quarantine: the saturation search reads delivered_load off
    # every probed point, which a quarantine report cannot provide.
    add_sweep_options(saturation, quarantine=False)

    tail = sub.add_parser(
        "tail",
        help="render a streamed JSONL run log (finished or live)",
    )
    tail.add_argument("run_log", metavar="RUNLOG")
    tail.add_argument(
        "--follow", "-f", action="store_true",
        help="poll the log and print new windows/faults/stalls as "
        "they are appended, until run.end (Ctrl-C to stop)",
    )
    tail.add_argument(
        "--interval", type=_positive_float, default=1.0, metavar="SECONDS",
        help="--follow poll interval",
    )
    tail.add_argument(
        "--last", type=_positive, default=12, metavar="N",
        help="window/fault rows shown in the summary tables",
    )

    sub.add_parser("breakdown", help="latency decomposition by message size")

    send = sub.add_parser("send", help="trace one message end to end")
    send.add_argument("src", type=int)
    send.add_argument("dest", type=int)
    send.add_argument("--network", choices=("figure1", "figure3", "fattree"),
                      default="figure1")
    send.add_argument("--verbose", "-v", action="store_true")
    send.add_argument("--max-cycles", type=_positive, default=50000)
    send.add_argument(
        "--trace-export",
        type=_output_file,
        default=None,
        metavar="FILE",
        help="record the message's span timeline and write it as "
        "Chrome trace-event JSON (load in Perfetto or chrome://tracing)",
    )
    add_backend(send)

    verify = sub.add_parser(
        "verify",
        help="differential-test the simulator against the latency model",
    )
    verify.add_argument(
        "--trials",
        type=_positive,
        default=50,
        help="number of random configurations (parallelizes with --workers)",
    )
    verify.add_argument(
        "--shrink",
        action="store_true",
        help="delta-debug the first failing scenario to a minimal "
        "reproduction before exiting",
    )
    verify.add_argument(
        "--save",
        default=".verify-artifacts",
        metavar="DIR",
        help="directory for failing-scenario JSON artifacts",
    )
    verify.add_argument(
        "--replay",
        default=None,
        metavar="FILE",
        help="re-run one saved scenario JSON under the conformance "
        "oracle instead of sweeping",
    )
    verify.add_argument("--max-cycles", type=_positive, default=50000)
    verify.add_argument(
        "--backend-diff",
        action="store_true",
        help="instead of the latency-model sweep, differentially test "
        "the --backend engine against the reference engine over "
        "--trials seeded workloads "
        "(scenario/traffic/faults/chaos/collective/service); "
        "any observable difference fails the command",
    )
    verify.add_argument(
        "--resume-diff",
        action="store_true",
        help="prove snapshot/restore transparency: each of --trials "
        "seeded workloads "
        "(scenario/traffic/faults/chaos/collective/service) is run "
        "straight through and as run-half/snapshot/restore/run-half "
        "across every (capture, restore) backend pair; any observable "
        "difference fails the command",
    )
    add_backend(verify)

    return parser


_COMMANDS = {
    "table3": _cmd_table3,
    "table5": _cmd_table5,
    "figure1": _cmd_figure1,
    "figure3": _cmd_figure3,
    "faults": _cmd_faults,
    "chaos": _cmd_chaos,
    "workloads": _cmd_workloads,
    "breakdown": _cmd_breakdown,
    "saturation": _cmd_saturation,
    "send": _cmd_send,
    "verify": _cmd_verify,
    "tail": _cmd_tail,
}


def main(argv=None):
    args = build_parser().parse_args(argv)
    from repro.harness.parallel import JournalMismatchError, SweepInterrupted

    try:
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print("repro {}: error: {}".format(args.command, exc), file=sys.stderr)
        return 2
    except JournalMismatchError as exc:
        print("error: {}".format(exc), file=sys.stderr)
        return 2
    except SweepInterrupted as exc:
        print(
            "interrupted: {} — the journal is flushed; run the same "
            "command again to finish the sweep".format(exc),
            file=sys.stderr,
        )
        return 130


if __name__ == "__main__":
    sys.exit(main())
