"""TelemetryStream run logs: schema, lossless deltas, engine hints."""

import io
import json

import pytest

from repro.endpoint.traffic import UniformRandomTraffic
from repro.harness.chaos import chaos_trial_specs, run_chaos_point
from repro.harness.load_sweep import figure1_network
from repro.harness.parallel import run_trials
from repro.sim.backends import BACKENDS
from repro.telemetry import (
    STREAM_FORMAT,
    TelemetryHub,
    TelemetryStream,
    merge_stream_metrics,
    read_run_log,
    snapshot_from_jsonable,
    snapshot_to_jsonable,
    validate_run_log,
)

# Small, fast soak shared by the streaming tests.
SOAK_KW = dict(
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


def _loaded_network(**kwargs):
    network = figure1_network(seed=5, **kwargs)
    UniformRandomTraffic(
        n_endpoints=network.plan.n_endpoints,
        w=network.codec.w,
        rate=0.05,
        message_words=8,
        seed=6,
    ).attach(network)
    return network


class TestSnapshotCodec:
    def test_round_trip_is_exact_through_json(self):
        network = _loaded_network(telemetry=TelemetryHub(spans=False))
        network.run(600)
        snapshot = network.telemetry.snapshot()
        assert len(snapshot)
        encoded = json.loads(json.dumps(snapshot_to_jsonable(snapshot)))
        decoded = snapshot_from_jsonable(encoded)
        assert decoded == snapshot

    def test_empty_snapshot_round_trips(self):
        from repro.telemetry import MetricsSnapshot

        empty = MetricsSnapshot()
        assert snapshot_from_jsonable(snapshot_to_jsonable(empty)) == empty


class TestRunLogSchema:
    def test_soak_log_is_valid_and_complete(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        result = run_chaos_point(
            seed=1, stream_path=path, metrics=True, **SOAK_KW
        )
        events = read_run_log(path)
        assert validate_run_log(events) == len(events)
        kinds = {event["event"] for event in events}
        assert {
            "run.start", "metrics.delta", "window.stats", "run.end"
        } <= kinds
        assert events[0]["format"] == STREAM_FORMAT
        # The soak injects faults, so transitions must be streamed.
        assert "fault.transition" in kinds
        assert events[-1]["event"] == "run.end"
        deltas = [e for e in events if e["event"] == "metrics.delta"]
        assert events[-1]["deltas"] == len(deltas) > 0
        assert result.windows  # the run itself finished normally

    def test_torn_final_line_is_tolerated(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        run_chaos_point(seed=1, stream_path=path, metrics=True, **SOAK_KW)
        whole = read_run_log(path)
        with open(path, "a") as handle:
            handle.write('{"event": "metrics.del')  # crash mid-write
        torn = read_run_log(path)
        assert torn == whole

    def test_appending_after_a_torn_tail_keeps_the_log_readable(self, tmp_path):
        """A resumed leg binds a new stream to the log a SIGKILLed leg
        left torn: the fragment is trimmed, not glued onto ``run.start``."""
        path = str(tmp_path / "run.jsonl")
        first = TelemetryStream(path, window_cycles=100).bind(_loaded_network())
        first.network.run(250)
        first.close()
        whole = read_run_log(path)
        with open(path, "a") as handle:
            handle.write('{"event": "window.stats", "cyc')  # SIGKILL mid-write
        second = TelemetryStream(path, window_cycles=100).bind(_loaded_network())
        second.network.run(250)
        second.close()
        events = read_run_log(path)
        assert events[:len(whole)] == whole
        assert events[len(whole)]["event"] == "run.start"
        assert [e["event"] for e in events].count("run.end") == 2

    def test_malformed_interior_line_raises_with_line_number(self):
        lines = ['{"event": "run.start"}', "not json", '{"event": "x"}']
        with pytest.raises(ValueError, match="line 2"):
            read_run_log(lines)
        lines[1] = "[1, 2, 3]"
        with pytest.raises(ValueError, match="line 2 is not a JSON object"):
            read_run_log(lines)

    def test_validate_rejects_missing_start_and_bad_format(self):
        with pytest.raises(ValueError, match="run.start"):
            validate_run_log([{"event": "metrics.delta"}])
        with pytest.raises(ValueError, match="format"):
            validate_run_log([{"event": "run.start", "format": "bogus"}])
        with pytest.raises(ValueError, match="cycle"):
            validate_run_log(
                [
                    {"event": "run.start", "format": STREAM_FORMAT},
                    {"event": "window.stats", "window": 0,
                     "delivered": 1, "cycle": "soon"},
                ]
            )

    def test_truncated_mid_record_parses_as_a_prefix(self, tmp_path):
        """A crash can cut the file at any byte, not just mid-append.

        Whatever the truncation point, the reader must return a clean
        prefix of the original events — the torn final record (and
        only it) vanishes.
        """
        from repro.harness.chaosmonkey import truncate_tail

        path = str(tmp_path / "run.jsonl")
        run_chaos_point(seed=1, stream_path=path, metrics=True, **SOAK_KW)
        whole = read_run_log(path)
        for nbytes in (1, 7, 40):
            torn_path = str(tmp_path / "torn-{}.jsonl".format(nbytes))
            with open(path, "rb") as src, open(torn_path, "wb") as dst:
                dst.write(src.read())
            truncate_tail(torn_path, nbytes)
            torn = read_run_log(torn_path)
            assert torn == whole[: len(torn)]
            assert len(torn) >= len(whole) - 2


class TestLosslessDeltas:
    def test_merged_deltas_equal_final_snapshot_serial(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        result = run_chaos_point(
            seed=2, stream_path=path, metrics=True, **SOAK_KW
        )
        merged = merge_stream_metrics(read_run_log(path))
        assert merged == result.metrics

    @pytest.mark.parametrize(
        "backend", sorted(set(BACKENDS) - {"reference"})
    )
    def test_merged_deltas_equal_final_snapshot_fast_backends(
        self, tmp_path, backend
    ):
        path = str(tmp_path / "run.jsonl")
        result = run_chaos_point(
            seed=2, stream_path=path, metrics=True, backend=backend,
            **SOAK_KW
        )
        merged = merge_stream_metrics(read_run_log(path))
        assert merged == result.metrics

    def test_merged_deltas_equal_final_snapshot_parallel(self, tmp_path):
        results = run_trials(
            chaos_trial_specs(
                seeds=2,
                seed=7,
                stream_dir=str(tmp_path),
                metrics=True,
                **SOAK_KW
            ),
            workers=2,
        )
        for index, result in enumerate(results):
            path = str(tmp_path / "soak{}-healon.jsonl".format(index))
            events = read_run_log(path)
            assert validate_run_log(events) == len(events)
            assert merge_stream_metrics(events) == result.metrics

    def test_streaming_does_not_perturb_the_run(self, tmp_path):
        plain = run_chaos_point(seed=3, metrics=True, **SOAK_KW)
        streamed = run_chaos_point(
            seed=3,
            metrics=True,
            stream_path=str(tmp_path / "run.jsonl"),
            **SOAK_KW
        )
        assert streamed.windows == plain.windows
        assert streamed.metrics == plain.metrics
        assert streamed.undeliverable == plain.undeliverable


class TestWindowStats:
    def test_windows_carry_slo_percentiles(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        run_chaos_point(seed=1, stream_path=path, metrics=True, **SOAK_KW)
        windows = [
            event for event in read_run_log(path)
            if event["event"] == "window.stats"
        ]
        assert len(windows) >= SOAK_KW["n_windows"]
        busy = [w for w in windows if w["delivered"]]
        assert busy
        for window in busy:
            assert window["p50_latency"] <= window["p95_latency"]
            assert window["p95_latency"] <= window["p99_latency"]
        # Windows tile the run: starts are strictly increasing.
        starts = [w["start_cycle"] for w in windows]
        assert starts == sorted(starts)
        assert len(set(starts)) == len(starts)


class TestEngineHints:
    def test_stream_preserves_idle_compression(self):
        network = figure1_network(seed=5, backend="events")
        stream = TelemetryStream(
            io.StringIO(), flush_every=500, window_cycles=1000
        )
        stream.bind(network)
        network.run(5000)
        stream.close()
        # The stream's next_event_cycle hint lets the events backend
        # keep jumping between flush boundaries on an idle network.
        assert network.engine.compressed_cycles > 0.9 * 5000

    def test_hintless_observer_still_disables_compression(self):
        network = figure1_network(seed=5, backend="events")

        class Opaque:
            enabled = True
            name = "opaque"

            def tick(self, cycle):
                pass

        network.engine.add_observer(Opaque())
        network.run(2000)
        assert network.engine.compressed_cycles == 0

    def test_closed_stream_never_wakes_the_engine(self):
        stream = TelemetryStream(io.StringIO(), flush_every=10)
        stream.closed = True
        assert stream.next_event_cycle() == float("inf")
