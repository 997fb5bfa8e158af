"""CLI smoke tests: every subcommand runs and prints sane output."""

import json
import os
import re
import shutil

import pytest

from repro.cli import build_parser, main


def _run(capsys, argv):
    code = main(argv)
    assert code == 0
    return capsys.readouterr().out


def test_table3(capsys):
    out = _run(capsys, ["table3"])
    assert "METROJR-ORBIT" in out
    assert "1250" in out


def test_table5(capsys):
    out = _run(capsys, ["table5"])
    assert "GIGAswitch" in out
    assert "Mercury/Race" in out


def test_figure1(capsys):
    out = _run(capsys, ["figure1"])
    assert "paths endpoint 6 -> 16: 8" in out
    assert "survives any single stage-2 router loss: True" in out


def test_figure3_small(capsys):
    out = _run(
        capsys,
        ["figure3", "--rates", "0.005,0.08", "--warmup", "200", "--measure", "600"],
    )
    assert "Unloaded latency" in out
    assert "mean_latency" in out
    assert "latency vs delivered load" in out  # the ascii chart rendered


def test_faults_small(capsys):
    out = _run(
        capsys,
        ["faults", "--links", "2", "--warmup", "200", "--measure", "600"],
    )
    assert "Fault degradation point" in out


def test_send(capsys):
    out = _run(capsys, ["send", "5", "15"])
    assert "5 -> 15: delivered" in out


@pytest.mark.parametrize(
    "argv, named",
    [
        (["send", "99", "1"], "src 99"),
        (["send", "1", "99"], "dest 99"),
        (["send", "--", "-1", "3"], "src -1"),
        (["send", "20", "1", "--network", "fattree"], "src 20"),
    ],
)
def test_send_rejects_an_endpoint_outside_the_network(capsys, argv, named):
    """One ``send:`` line naming the valid range, exit 2, nothing run."""
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("send: " + named)
    assert "(valid: 0..15)" in line


def test_send_verbose_traces_protocol(capsys):
    """Every protocol event of the send, one line each, in cycle order."""
    out = _run(capsys, ["send", "2", "9", "--verbose"])
    lines = out.splitlines()[1:]
    fields = [
        re.match(r"  @ *(\d+)(?:\.\.\d*)? +(\S+) +(\S+)", line).groups()
        for line in lines
    ]
    names = [name for _cycle, _track, name in fields]
    for name, count in (
        ("attempt", 1), ("setup", 1), ("stream", 1), ("reply", 1),
        ("conn-open", 3), ("conn-turn", 6), ("deliver", 1),
        ("conn-close-accepted", 3), ("conn-drop", 3),
    ):
        assert names.count(name) == count, name
    assert "outcome=delivered" in lines[names.index("attempt")]
    cycles = [int(cycle) for cycle, _track, _name in fields]
    assert cycles == sorted(cycles)


def test_send_fattree(capsys):
    out = _run(capsys, ["send", "1", "14", "--network", "fattree"])
    assert "delivered" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["figure3", "--rates", "abc"],
        ["figure3", "--rates", ""],
        ["faults", "--levels", "2:x"],
        ["workloads", "collective", "--layers", "8,,4"],
        ["workloads", "collective", "--fault-levels", "a:0"],
        ["workloads", "service", "--servers", "0;1"],
        ["workloads", "service", "--rates", "fast"],
    ],
)
def test_malformed_comma_list_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    error = capsys.readouterr().err.splitlines()[-1]
    assert "error: argument {}: invalid".format(argv[-2]) in error


@pytest.mark.parametrize(
    "argv",
    [
        # ROADMAP item 4(iii): the first was a ZeroDivisionError
        # traceback, the second ran and printed a curve.
        ["figure3", "--rates", "0.01", "--warmup", "10", "--measure", "0"],
        ["figure3", "--rates", "0.01", "--measure", "50", "--warmup", "-5"],
        ["--workers", "0"],
        ["figure3", "--retries", "0"],
        ["faults", "--links", "-1"],
        ["faults", "--max-attempts", "0"],
        ["chaos", "--seeds", "0"],
        ["chaos", "--windows", "0"],
        ["chaos", "--window-cycles", "-200"],
        ["chaos", "--warmup-windows", "-1"],
        ["chaos", "--snapshot-every", "0"],
        ["workloads", "collective", "--words", "0"],
        ["workloads", "service", "--clients", "0"],
        ["workloads", "service", "--measure", "0"],
        ["saturation", "--measure", "0"],
        ["tail", "run.jsonl", "--last", "0"],
        ["send", "1", "2", "--max-cycles", "0"],
        ["verify", "--trials", "0"],
        ["verify", "--trials", "many"],
        # ROADMAP item 6(iii), floats: the first three ran (a row of nan
        # and exit 1; a curve; a table).  --min-availability stays open
        # above 1: a bound no soak can meet is how the gate is shown to
        # fire (test_chaos_slo_violation_exits_nonzero, the
        # chaos_compare_min_availability fixture).
        ["faults", "--rate", "-1"],
        ["figure3", "--rates", "0.01,7"],
        ["workloads", "service", "--burst-prob", "-3"],
        ["chaos", "--min-availability", "-1"],
        ["chaos", "--rate", "nan"],
        ["faults", "--max-degradation", "1.5"],
        ["chaos", "--max-mttr", "-1"],
        ["workloads", "service", "--rates", "0.001,-0.5"],
        ["workloads", "service", "--slo-p99", "-50"],
        ["workloads", "collective", "--slo-cycles", "-1"],
        ["tail", "run.jsonl", "--interval", "0"],
        # PR 22: the first two were ValueError tracebacks (the second
        # from inside run_service), the last two ran and printed a table.
        ["workloads", "service", "--service-time", "abc"],
        ["workloads", "service", "--service-time", "5"],
        ["workloads", "service", "--service-time", "9:3"],
        ["workloads", "collective", "--layers", "0,-3"],
        ["workloads", "service", "--servers", "-1"],
    ],
)
def test_out_of_range_number_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    error = capsys.readouterr().err.splitlines()[-1]
    assert "error: argument {}: invalid".format(argv[-2]) in error


@pytest.mark.parametrize(
    "argv, valid",
    [
        (["workloads", "service", "--servers", "99"], "0..15"),
        (["workloads", "service", "--network", "figure3", "--servers", "3,64"],
         "0..63"),
    ],
)
def test_workloads_rejects_a_server_outside_the_network(capsys, argv, valid):
    """As ``send`` does for its endpoints: one ``error:`` line naming the
    valid range, exit 2, nothing run (it was a ``ValueError`` traceback
    from ``network/headers.py``)."""
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert "error: argument --servers: " in line
    assert "(valid: {})".format(valid) in line


@pytest.mark.parametrize(
    "argv, named",
    [
        # Each ran and exited 0 with the flag dropped (the last wrote no
        # ring; the --backend-diff pair ran only the first).
        (["faults", "--links", "8", "--max-degradation", "0.0",
          "--max-undeliverable", "0"], ["--max-degradation", "--levels"]),
        (["workloads", "collective", "--slo-p99", "1", "--slo-abandoned", "0",
          "--rates", "0.5"], ["--rates, --slo-p99, --slo-abandoned", "service"]),
        (["workloads", "service", "--words", "8", "--slo-cycles", "900"],
         ["--words, --slo-cycles", "collective"]),
        (["verify", "--backend-diff", "--resume-diff"], ["--resume-diff"]),
        (["verify", "--resume-diff", "--replay", "scenario.json"], ["--replay"]),
        (["chaos", "--snapshot-dir", "ring"], ["--snapshot-every"]),
        (["chaos", "--snapshot-every", "2"], ["--snapshot-dir"]),
    ],
)
def test_a_flag_that_cannot_apply_is_a_usage_error(
        capsys, tmp_path, monkeypatch, argv, named):
    """One ``repro <cmd>: error:`` line, exit 2, before any trial runs."""
    monkeypatch.chdir(tmp_path)
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("repro {}: error: ".format(argv[0]))
    assert all(name in line for name in named)
    assert os.listdir(str(tmp_path)) == []


def test_zero_is_a_count_where_none_is_meant(capsys):
    args = build_parser().parse_args(
        ["chaos", "--warmup-windows", "0", "--flaky-links", "0",
         "--dead-routers", "0", "--max-undeliverable", "0"]
    )
    assert (args.warmup_windows, args.flaky_links, args.dead_routers,
            args.max_undeliverable) == (0, 0, 0, 0)
    assert build_parser().parse_args(["figure3", "--warmup", "0"]).warmup == 0


def test_parser_rejects_unknown_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["bogus"])


def test_parser_accepts_parallel_flags():
    args = build_parser().parse_args(
        ["--workers", "4", "--cache-dir", "/tmp/x", "--progress", "figure3"]
    )
    assert args.workers == 4
    assert args.cache_dir == "/tmp/x"
    assert args.progress


def test_figure3_workers_and_cache(tmp_path, capsys):
    argv = [
        "--workers", "2", "--cache-dir", str(tmp_path),
        "figure3", "--rates", "0.005,0.08", "--warmup", "150", "--measure", "400",
    ]
    first = _run(capsys, argv)
    assert "Unloaded latency" in first
    assert "latency vs delivered load" in first
    # Second invocation answers from the trial cache with identical output.
    second = _run(capsys, argv)
    assert "mean_latency" in second
    assert first == second
    cached = list(tmp_path.rglob("*.pkl"))
    assert len(cached) == 2  # one entry per swept rate


def test_faults_levels_sweep(capsys):
    out = _run(
        capsys,
        ["faults", "--levels", "0:0,2:0", "--warmup", "150", "--measure", "400"],
    )
    assert "Fault degradation sweep" in out
    assert "links=2 routers=0" in out


def test_progress_lines_go_to_stderr(tmp_path, capsys):
    code = main(
        ["--progress", "--cache-dir", str(tmp_path),
         "faults", "--levels", "0:0", "--warmup", "150", "--measure", "400"]
    )
    assert code == 0
    captured = capsys.readouterr()
    assert "links=0 routers=0" in captured.err  # progress line
    assert "trials: 1 executed" in captured.err  # stats line
    assert "Fault degradation sweep" in captured.out


def test_breakdown(capsys):
    out = _run(capsys, ["breakdown"])
    assert "Latency decomposition" in out
    assert "injection_dominates" in out


def test_send_trace_export_writes_valid_chrome_trace(tmp_path, capsys):
    import json

    from repro.telemetry import validate_trace_events

    path = tmp_path / "trace.json"
    out = _run(capsys, ["send", "5", "15", "--trace-export", str(path)])
    assert "wrote" in out and "trace events" in out
    document = json.loads(path.read_text())
    n_events = validate_trace_events(document)
    assert n_events > 0
    names = {event["name"] for event in document["traceEvents"]}
    # The full send lifecycle is on the timeline.
    assert {"attempt", "setup", "stream", "reply", "deliver"} <= names


def test_figure3_metrics_prints_percentiles_and_heatmap(capsys):
    out = _run(
        capsys,
        ["figure3", "--rates", "0.01,0.05", "--warmup", "150",
         "--measure", "400", "--metrics"],
    )
    assert "message.latency.cycles" in out
    assert "utilization by stage" in out
    assert "stage 0" in out


def test_figure3_metrics_serial_equals_parallel(capsys):
    argv = ["figure3", "--rates", "0.01,0.05", "--warmup", "150",
            "--measure", "400", "--metrics"]
    serial = _run(capsys, argv)
    parallel = _run(capsys, ["--workers", "2"] + argv)
    assert serial == parallel


def test_faults_metrics_point(capsys):
    out = _run(
        capsys,
        ["faults", "--links", "2", "--warmup", "150", "--measure", "400",
         "--metrics"],
    )
    assert "Fault degradation point" in out
    assert "message.latency.cycles" in out


# ---------------------------------------------------------------------------
# Exit codes: failures must be visible to shells and CI, not printed-and-0
# ---------------------------------------------------------------------------


def test_send_exits_nonzero_when_undelivered(capsys):
    """A cycle budget too small for delivery is a failed send."""
    code = main(["send", "5", "15", "--max-cycles", "10"])
    captured = capsys.readouterr()
    assert code == 1
    assert "not delivered" in captured.err


def test_send_exit_zero_on_delivery():
    assert main(["send", "5", "15"]) == 0


def test_faults_levels_within_degradation_bound(capsys):
    code = main(
        ["faults", "--levels", "0:0,2:0", "--warmup", "150",
         "--measure", "400", "--max-degradation", "0.9"]
    )
    assert code == 0
    assert "Fault degradation sweep" in capsys.readouterr().out


def test_faults_levels_beyond_degradation_bound(capsys):
    """An impossible bound (no degradation allowed, down to the last
    delivered word) must flip the exit code on a heavily faulted run."""
    code = main(
        ["faults", "--levels", "0:0,16:6", "--warmup", "150",
         "--measure", "400", "--max-degradation", "0.0"]
    )
    captured = capsys.readouterr()
    assert code == 1
    assert "FAIL" in captured.err


def test_verify_sweep_passes(capsys):
    code = main(["verify", "--trials", "4"])
    captured = capsys.readouterr()
    assert code == 0
    assert "4/4 configurations agree" in captured.out


def test_verify_sweep_parallel_matches_serial(capsys):
    serial = _run(capsys, ["verify", "--trials", "6"])
    parallel = _run(capsys, ["--workers", "2", "verify", "--trials", "6"])
    assert serial == parallel


def test_verify_replay_round_trip(tmp_path, capsys):
    from repro.verify.scenario import random_scenario

    path = tmp_path / "scenario.json"
    random_scenario(7, n_messages=1).save(str(path))
    code = main(["verify", "--replay", str(path)])
    captured = capsys.readouterr()
    assert code == 0
    assert "violations=0" in captured.out


def test_verify_replay_failing_scenario_exits_nonzero(tmp_path, capsys):
    """A scenario whose message cannot finish inside the cycle budget
    replays as a failure."""
    from repro.verify.scenario import random_scenario

    path = tmp_path / "scenario.json"
    random_scenario(7, n_messages=1).save(str(path))
    code = main(["verify", "--replay", str(path), "--max-cycles", "5"])
    assert code == 1
    assert "quiet=False" in capsys.readouterr().out


_CHAOS_SMALL = [
    "chaos", "--seeds", "1", "--windows", "6", "--window-cycles", "200",
    "--warmup-windows", "2", "--mtbf", "400", "--mttr", "200",
]


def test_chaos_small_soak(capsys):
    out = _run(capsys, _CHAOS_SMALL)
    assert "Chaos soak" in out
    assert "availability" in out
    assert "masked_wires" in out


def test_chaos_compare_runs_both_heal_modes(capsys):
    out = _run(capsys, _CHAOS_SMALL + ["--compare"])
    assert "heal=on" in out
    assert "heal=off" in out


def test_chaos_snapshot_writes_json(tmp_path, capsys):
    path = tmp_path / "chaos.json"
    out = _run(capsys, _CHAOS_SMALL + ["--snapshot", str(path)])
    assert "wrote soak snapshot" in out
    import json

    with open(path) as handle:
        document = json.load(handle)
    assert "soaks" in document and "metrics" in document
    assert document["soaks"][0]["availability"] is not None


def test_chaos_slo_violation_exits_nonzero(capsys):
    # An impossible availability bound must flip the exit code.
    code = main(_CHAOS_SMALL + ["--min-availability", "1.1"])
    captured = capsys.readouterr()
    assert code == 1
    assert "violated SLO" in captured.err


def test_verify_resume_diff_sweep(capsys):
    out = _run(capsys, ["verify", "--resume-diff", "--trials", "2"])
    assert "resumed byte-identically" in out
    assert "2/2" in out


def test_chaos_snapshot_every_requires_dir(capsys):
    code = main(_CHAOS_SMALL + ["--snapshot-every", "2"])
    assert code == 2
    assert "--snapshot-dir" in capsys.readouterr().err


def _ring_cycles(ring):
    return sorted(
        int(name[len("chaos-"):-len(".snap")])
        for name in os.listdir(str(ring))
        if name.startswith("chaos-") and name.endswith(".snap")
    )


def test_chaos_ring_then_resume(tmp_path, capsys):
    ring_root = tmp_path / "rings"
    argv = _CHAOS_SMALL + [
        "--snapshot-every", "2", "--snapshot-dir", str(ring_root)
    ]
    out = _run(capsys, argv)
    assert "Chaos soak" in out
    assert _ring_cycles(ring_root / "soak0-healon")
    # Running the same command again continues from the ring and scores
    # exactly like the uninterrupted soak: the result row (label,
    # windows, availability, ...) is identical.
    assert main(argv) == 0
    again = capsys.readouterr()
    assert "chaos ring" not in again.err  # no warned fresh start
    assert out.splitlines()[-1] == again.out.splitlines()[-1]


def test_chaos_resume_never_serves_another_soaks_ring(tmp_path, capsys):
    ring_root = tmp_path / "rings"
    journal = tmp_path / "j.jsonl"
    argv = _CHAOS_SMALL + [
        "--snapshot-every", "2", "--snapshot-dir", str(ring_root)
    ]
    first = _run(
        capsys, argv + ["--rate", "0.01", "--journal", str(journal)]
    )
    # A soak killed before its first checkpoint: the journal ends at
    # its trial.start and the ring is empty ...
    lines = journal.read_text().splitlines(True)
    cut = next(
        i for i, line in enumerate(lines)
        if json.loads(line)["event"] == "trial.start"
    )
    journal.write_text("".join(lines[:cut + 1]))
    shutil.rmtree(str(ring_root))
    # ... and then the same ring subdirectory (same --snapshot-dir, same
    # derived seed) is filled by a soak at another rate.
    other = _run(capsys, argv + ["--rate", "0.02"])
    assert other.splitlines()[-1] != first.splitlines()[-1]
    resumed = _run(
        capsys, argv + ["--rate", "0.01", "--journal", str(journal)]
    )
    assert resumed.splitlines()[-1] == first.splitlines()[-1]


def test_chaos_ring_keeps_the_running_soaks_own_checkpoints(tmp_path, capsys):
    ring_root = tmp_path / "rings"

    def argv(windows):
        return [
            "chaos", "--seeds", "1", "--windows", str(windows),
            "--window-cycles", "200", "--warmup-windows", "2", "--mtbf",
            "400", "--mttr", "200", "--snapshot-every", "2",
            "--snapshot-dir", str(ring_root),
        ]

    _run(capsys, argv(20))
    long_soak = _ring_cycles(ring_root / "soak0-healon")
    assert long_soak and min(long_soak) > 6 * 200
    # A shorter soak pointed at the same directory must end with its
    # own checkpoints in the ring, not the stale higher-numbered ones.
    _run(capsys, argv(6))
    short_soak = _ring_cycles(ring_root / "soak0-healon")
    assert short_soak and max(short_soak) < 6 * 200


def test_faults_max_attempts_flag_parses():
    args = build_parser().parse_args(
        ["faults", "--max-attempts", "40", "--max-undeliverable", "0"]
    )
    assert args.max_attempts == 40
    assert args.max_undeliverable == 0


def test_faults_undeliverable_bound(capsys):
    """With generous bounds the faulted sweep still passes; the flag is
    exercised end-to-end (finite attempts surface abandoned sends)."""
    code = main(
        ["faults", "--levels", "0:0,2:0", "--warmup", "150",
         "--measure", "400", "--max-attempts", "40",
         "--max-undeliverable", "1000"]
    )
    assert code == 0
    assert "Fault degradation sweep" in capsys.readouterr().out


def test_verify_saves_artifacts_on_mismatch(tmp_path, capsys, monkeypatch):
    """A model/simulator disagreement exits 1 and leaves committed,
    shrunk scenario JSON behind for CI to upload."""
    from repro.verify import differential

    monkeypatch.setattr(differential, "model_slack", lambda scenario: -999)
    code = main(
        ["verify", "--trials", "2", "--shrink", "--save", str(tmp_path)]
    )
    captured = capsys.readouterr()
    assert code == 1
    assert "MISMATCH" in captured.out
    assert (tmp_path / "diff-fail-0.json").exists()
    assert (tmp_path / "diff-fail-0.min.json").exists()


CHAOS_SMALL = [
    "chaos", "--seeds", "1", "--windows", "4", "--window-cycles", "150",
    "--warmup-windows", "1", "--mtbf", "300", "--mttr", "150",
]


def test_chaos_stream_writes_log_and_tail_renders_it(tmp_path, capsys):
    logs = tmp_path / "logs"
    out = _run(capsys, CHAOS_SMALL + ["--stream", str(logs)])
    assert "Chaos soak" in out
    log_path = logs / "soak0-healon.jsonl"
    assert log_path.exists()

    from repro.telemetry import (
        merge_stream_metrics, read_run_log, validate_run_log,
    )

    events = read_run_log(str(log_path))
    assert validate_run_log(events) == len(events)
    # --stream implies metrics, so the log carries deltas.
    assert len(merge_stream_metrics(events))

    rendered = _run(capsys, ["tail", str(log_path)])
    assert "delivered/window:" in rendered
    assert "run ended at cycle" in rendered


def test_tail_follow_replays_a_finished_log(tmp_path, capsys):
    logs = tmp_path / "logs"
    _run(capsys, CHAOS_SMALL + ["--stream", str(logs)])
    out = _run(
        capsys,
        ["tail", str(logs / "soak0-healon.jsonl"), "--follow",
         "--interval", "0.01"],
    )
    assert "run.start" in out
    assert "window" in out
    assert "run.end" in out


def test_tail_rejects_missing_and_invalid_logs(tmp_path, capsys):
    assert main(["tail", str(tmp_path / "nope.jsonl")]) == 2
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"event": "not-a-run-start"}\n')
    assert main(["tail", str(bad)]) == 2
    assert "tail:" in capsys.readouterr().err


def test_figure3_metrics_export_round_trips(tmp_path, capsys):
    path = tmp_path / "metrics.json"
    out = _run(
        capsys,
        ["figure3", "--rates", "0.01", "--warmup", "100", "--measure",
         "300", "--metrics-export", str(path)],
    )
    assert "wrote metrics snapshot" in out

    import json

    from repro.telemetry import snapshot_from_jsonable

    document = json.loads(path.read_text())
    assert document["format"] == "metro-metrics-v1"
    snapshot = snapshot_from_jsonable(document["series"])
    assert snapshot.histogram("message.latency.cycles").count > 0
    assert document["rendered"]


_FIG3_SMALL = ["figure3", "--rates", "0.005,0.01", "--warmup", "200",
               "--measure", "600"]


def test_figure3_journal_then_resume(tmp_path, capsys):
    journal = str(tmp_path / "run.jsonl")
    argv = ["--cache-dir", str(tmp_path / "cache")] + _FIG3_SMALL
    argv = ["--progress"] + argv + ["--journal", journal]
    out = _run(capsys, argv)
    # The same command again, and again: each leg serves everything by
    # replay and appends one sweep to the same history.
    for leg in (2, 3):
        assert main(argv) == 0
        resumed = capsys.readouterr()
        assert resumed.out == out
        progress = resumed.err.splitlines()
        assert progress[-1].startswith("trials: 0 executed")
        assert len(progress) == 3
        assert all(line.endswith("resumed") for line in progress[:-1])
        kinds = [
            json.loads(line)["event"]
            for line in open(journal).read().splitlines()
        ]
        assert kinds.count("sweep.start") == kinds.count("sweep.end") == leg
        assert kinds[-1] == "sweep.end"
    from repro.harness.journal import load_journal_state

    state = load_journal_state(journal)
    assert state.completed and len(state.done) == 2


def test_tail_renders_a_run_journal(tmp_path, capsys):
    journal = str(tmp_path / "run.jsonl")
    _run(
        capsys,
        ["--cache-dir", str(tmp_path / "cache")] + _FIG3_SMALL
        + ["--journal", journal],
    )
    out = _run(capsys, ["tail", journal])
    assert "run journal" in out
    assert "sweep completed" in out
    assert "rate=0.005" in out


def test_quarantined_sweep_exits_3_with_report(tmp_path, capsys, monkeypatch):
    from repro.harness.chaosmonkey import arm

    for key, value in arm(str(tmp_path / "ledger"), target="rate=0.01",
                          strikes=3).items():
        monkeypatch.setenv(key, value)
    code = main(
        ["--workers", "2"] + _FIG3_SMALL + ["--retries", "3", "--quarantine"]
    )
    assert code == 3
    captured = capsys.readouterr()
    assert "Quarantined trials" in captured.out
    assert "crash x3" in captured.out
    assert "quarantined" in captured.err
    # The healthy trial still rendered.
    assert "rate=0.005" in captured.out


def test_parser_accepts_resilience_flags():
    parser = build_parser()
    args = parser.parse_args(
        _FIG3_SMALL + ["--journal", "j.jsonl", "--retries", "3",
                       "--quarantine"]
    )
    assert args.journal == "j.jsonl"
    assert args.retries == 3
    assert args.quarantine is True
    args = parser.parse_args(["saturation", "--journal", "j.jsonl"])
    assert args.journal == "j.jsonl"
    # Saturation has no --quarantine (its search needs real results).
    with pytest.raises(SystemExit):
        parser.parse_args(["saturation", "--quarantine"])


def test_faults_point_honours_journal_and_cache(tmp_path, capsys):
    # The single-point form used to call run_fault_point directly and
    # silently ignore --journal/--cache-dir (and the other sweep flags).
    from repro.harness.journal import validate_journal
    from repro.telemetry.stream import read_run_log

    journal = tmp_path / "f.jsonl"
    argv = ["--cache-dir", str(tmp_path / "cache"), "faults", "--links", "2",
            "--warmup", "150", "--measure", "400"]
    first = _run(capsys, argv + ["--journal", str(journal)])
    events = read_run_log(str(journal))
    assert validate_journal(events) == len(events)
    assert [e["label"] for e in events if e["event"] == "trial.done"] == [
        "links=2 routers=0"
    ]
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert "0 executed" in captured.err and "1 from cache" in captured.err
    assert captured.out == first


def test_resume_with_a_foreign_journal_is_a_usage_error(tmp_path, capsys):
    # An unrelated sweep pointed at another run's journal used to
    # re-execute everything and be appended to that run's history.
    journal = tmp_path / "j.jsonl"
    base = ["--cache-dir", str(tmp_path / "cache"), "figure3", "--warmup",
            "100", "--measure", "200"]
    _run(capsys, base + ["--rates", "0.01,0.02", "--journal", str(journal)])
    before = journal.read_bytes()
    foreign = (
        base + ["--rates", "0.03,0.05"],
        # Another command's journal is as foreign as another sweep's.
        ["--cache-dir", str(tmp_path / "cache"), "faults", "--warmup",
         "100", "--measure", "200"],
    )
    for argv in foreign:
        code = main(argv + ["--journal", str(journal)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: ")
        assert len(captured.err.splitlines()) == 1
        assert "does not describe this sweep" in captured.err
        assert journal.read_bytes() == before
    # The sweep the journal does describe still resumes.
    assert main(base + ["--rates", "0.01,0.02", "--journal", str(journal)]) == 0
    assert "2 from cache" in capsys.readouterr().err


_A_DIRECTORY = object()


@pytest.mark.parametrize(
    "content, reason",
    [
        (b"not json\nnor this\n", "malformed run-log record on line 1"),
        (bytes(range(128, 256)) * 3, "codec can't decode"),
        (b'{"event":"journal.start"}', "unknown journal format"),
        (b"[1,2,3]\n42\n", "line 1 is not a JSON object"),
        (_A_DIRECTORY, "Is a directory"),
    ],
    ids=["malformed", "undecodable", "headless", "non-object", "directory"],
)
def test_resume_with_an_unreadable_journal_is_a_usage_error(
    tmp_path, capsys, content, reason
):
    journal = tmp_path / "j.jsonl"
    if content is _A_DIRECTORY:
        # The parser stops this one (the output-path test below); the
        # library says the same thing in its own words.
        from repro.harness.parallel import JournalMismatchError, TrialRunner

        journal.mkdir()
        with pytest.raises(JournalMismatchError, match=reason):
            TrialRunner(journal=str(journal))
        with pytest.raises(SystemExit) as excinfo:
            main(_FIG3_SMALL + ["--journal", str(journal)])
        assert excinfo.value.code == 2 and journal.is_dir()
        return
    journal.write_bytes(content)
    # chaos takes the same --journal as every other sweep.
    for command in (["figure3", "--rates", "0.01,0.02"], _CHAOS_SMALL):
        code = main(["--cache-dir", str(tmp_path / "cache")] + command
                    + ["--journal", str(journal)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert reason in err
        assert journal.read_bytes() == content


@pytest.mark.parametrize("found", ["missing", "empty", "header-only"])
def test_a_journal_that_records_no_trial_is_a_fresh_journal(
    tmp_path, capsys, found
):
    """``--resume`` refused the first two; with one flag there is no
    other file they could have been meant to be."""
    from repro.harness.journal import RunJournal, load_journal_state

    journal = tmp_path / "j.jsonl"
    if found == "empty":
        journal.write_bytes(b"")
    elif found == "header-only":
        RunJournal(journal).close()
    _run(capsys, _FIG3_SMALL + ["--journal", str(journal)])
    state = load_journal_state(str(journal))
    assert state.completed and len(state.done) == 2


@pytest.mark.parametrize(
    "flag, argv",
    [
        # Each was a traceback; the last three after the sweep had run
        # and printed, losing its result.
        ("--journal", _FIG3_SMALL + ["--journal", "{a_directory}"]),
        ("--cache-dir", ["--cache-dir", "{a_file}"] + _FIG3_SMALL),
        ("--stream", _CHAOS_SMALL + ["--stream", "{a_file}"]),
        ("--snapshot-dir", _CHAOS_SMALL + ["--snapshot-every", "1",
                                           "--snapshot-dir", "{a_file}"]),
        ("--metrics-export",
         _FIG3_SMALL + ["--metrics-export", "{no_directory}/m.json"]),
        ("--snapshot", _CHAOS_SMALL + ["--snapshot", "{no_directory}/x.json"]),
        ("--trace-export",
         ["send", "5", "15", "--trace-export", "{no_directory}/t.json"]),
    ],
)
def test_unwritable_output_path_is_a_usage_error(
    tmp_path, capsys, monkeypatch, flag, argv
):
    from repro.harness import parallel

    def no_trial_may_run(*_args, **_kwargs):
        raise AssertionError("a trial ran before the path was checked")

    monkeypatch.setattr(parallel, "execute_trial", no_trial_may_run)
    (tmp_path / "file").write_text("")
    places = dict(
        a_directory=str(tmp_path), a_file=str(tmp_path / "file"),
        no_directory=str(tmp_path / "nodir"),
    )
    with pytest.raises(SystemExit) as excinfo:
        main([part.format(**places) for part in argv])
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    error = captured.err.splitlines()[-1]
    assert "error: argument {}: invalid output_".format(flag) in error


def test_tail_rejects_a_log_of_non_objects(tmp_path, capsys):
    log = tmp_path / "x"
    log.write_text("[1,2,3]\n42\n")
    assert main(["tail", str(log)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("tail: ") and len(err.splitlines()) == 1
    assert "line 1 is not a JSON object" in err
