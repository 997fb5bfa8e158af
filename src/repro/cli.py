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
    python -m repro verify --resume-diff --trials 28 --workers 4

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
runs a simulation command on the events engine backend (silent wires
skipped) — same results (see ``docs/API.md`` and
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


def _stray_flags(args, kind, sweeps):
    """``(row, dest)`` of every flag only another row of this command
    reads that is set off its default."""
    row = sweeps[kind]
    mine = {*row.flags.values(), *row.gate_flags.values()}
    others = [
        (name, dest) for name, other in sweeps.items()
        if other.command == row.command
        for dest in (*other.flags.values(), *other.gate_flags.values())
        if dest not in mine
    ]
    if not others:
        return []
    argv = [args.command] + ([kind] if "kind" in args else [])
    bare = build_parser().parse_args(argv)
    return [(name, dest) for name, dest in others
            if getattr(args, dest) != getattr(bare, dest)]


def _sweep_command(args, kind):
    """The one path every sweep command takes: the ``kind`` row of
    :data:`repro.harness.sweeps.SWEEPS`.  Returns ``(exit status,
    results)``.

    A flag only another row of the command reads, set, and the row's
    own usage checks (``prepare``) are usage errors before any trial
    runs.  The row's specs are built from its ``flags``, what
    ``prepare`` derives and, for the commands that take them,
    ``--metrics`` and ``--backend``, and run on the runner the global
    and resilience flags configure.  Quarantined trials are reported
    and dropped (exit 3; exit 3 with nothing rendered when every one
    was), the row renders the rest, ``--metrics`` prints the merged
    distributions (the row's ``metrics`` view), the row writes its own
    output files, ``--metrics-export`` the merged snapshot, and every
    string the row's gate returns (a ``FAIL: ...`` line, or a verify
    sweep's ``MISMATCH`` block) goes to stderr and makes the exit
    status 1.
    """
    from repro.harness.spec import resolve
    from repro.harness.sweeps import SWEEPS, UsageError, sweep_specs

    row = SWEEPS[kind]
    stray = _stray_flags(args, kind, SWEEPS)
    if stray:
        raise UsageError("{} set, which only `{} {}` reads".format(
            ", ".join("--" + dest.replace("_", "-") for _, dest in stray),
            row.command, stray[0][0]))
    kwargs = _point_kwargs(args) if "metrics" in args else {}
    kwargs.update({key: getattr(args, dest) for key, dest in row.flags.items()})
    kwargs.update(row.prepare(args))
    specs = sweep_specs(kind, seed=args.seed, **kwargs)
    runner = _runner(args)
    if row.search:
        results = resolve(row.search)(runner, specs)
    else:
        results = runner.run(specs)
    _report_runner_stats(runner)
    results, status = _strip_quarantined(results)
    if not results:
        print("FAIL: every {} was quarantined".format(row.noun), file=sys.stderr)
        return status or 1, results
    row.render(args, results)
    if getattr(args, "metrics", False):
        _print_metrics(results, **row.metrics)
    if row.artifacts is not None:
        row.artifacts(args, results)
    if getattr(args, "metrics_export", None):
        _export_metrics(results, args.metrics_export)
    bounds = {key: getattr(args, dest) for key, dest in row.gate_flags.items()}
    for failure in row.gate(results, **bounds):
        print(failure, file=sys.stderr)
        status = status or 1
    return status, results


def _cmd_sweep(args):
    """``figure3``, ``faults``, ``chaos``, ``workloads`` and
    ``saturation``: the sweep row the command (and the workloads kind)
    names."""
    from repro.harness.sweeps import SWEEPS

    kind = getattr(args, "kind", None) or next(
        name for name, row in SWEEPS.items() if row.command == args.command)
    return _sweep_command(args, kind)[0]


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


def _plan(network):
    """The plan of the network a ``--network`` flag names."""
    from repro.network.fattree import fattree_plan
    from repro.network.topology import figure1_plan, figure3_plan

    plans = {"figure1": figure1_plan, "figure3": figure3_plan, "fattree": fattree_plan}
    return plans[network]()


def _cmd_send(args):
    from repro.endpoint.messages import DELIVERED, Message
    from repro.network.builder import build_network

    plan = _plan(args.network)
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


def _cmd_verify(args):
    from repro.harness.sweeps import UsageError
    from repro.verify.scenario import Scenario

    if args.backend_diff + args.resume_diff + bool(args.replay) > 1:
        raise UsageError(
            "--backend-diff, --resume-diff and --replay are three runs: give one"
        )
    if args.replay:
        try:
            scenario = Scenario.load(args.replay)
        except (OSError, ValueError, TypeError) as exc:
            raise UsageError("argument --replay: cannot load {}: {}".format(
                args.replay, exc))
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
    kind = "differential"
    if args.backend_diff or args.resume_diff:
        kind = "backend-diff" if args.backend_diff else "resume-diff"
    return _sweep_command(args, kind)[0]


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
            help="engine backend: 'events' skips silent wires "
            "for the same results (see docs/API.md)",
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
            "append-only JSONL, each record flushed as written and "
            "fsynced before the runner waits, runs a serial trial or "
            "returns) of every trial state transition.  Run the same "
            "command again to finish a killed sweep: trials FILE shows "
            "finished are served from the --cache-dir trial cache "
            "(content-hash verified), only the rest re-execute, and the "
            "new leg appends to FILE — byte-identical to an "
            "uninterrupted run (see docs/resilience.md; render with "
            "'repro tail')",
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
        "(scenario/traffic/faults/chaos/collective/service/figure3); "
        "any observable difference fails the command",
    )
    verify.add_argument(
        "--resume-diff",
        action="store_true",
        help="prove snapshot/restore transparency: each of --trials "
        "seeded workloads "
        "(scenario/traffic/faults/chaos/collective/service/figure3) is run "
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
    "figure3": _cmd_sweep,
    "faults": _cmd_sweep,
    "chaos": _cmd_sweep,
    "workloads": _cmd_sweep,
    "breakdown": _cmd_breakdown,
    "saturation": _cmd_sweep,
    "send": _cmd_send,
    "verify": _cmd_verify,
    "tail": _cmd_tail,
}


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except Exception as exc:
        # Imported only once a command has raised, so a send never loads
        # the harness; a sweep or verify, the only things that raise
        # these, has.
        from repro.harness.parallel import JournalMismatchError, SweepInterrupted
        from repro.harness.sweeps import UsageError

        if isinstance(exc, UsageError):
            print("repro {}: error: {}".format(args.command, exc), file=sys.stderr)
            return 2
        if isinstance(exc, JournalMismatchError):
            print("error: {}".format(exc), file=sys.stderr)
            return 2
        if not isinstance(exc, SweepInterrupted):
            raise
        print(
            "interrupted: {} — the journal is flushed; run the same "
            "command again to finish the sweep".format(exc),
            file=sys.stderr,
        )
        return 130


if __name__ == "__main__":
    sys.exit(main())
