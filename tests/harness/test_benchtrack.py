"""Benchmark history tracking: records, baselines, regression gates."""

import json

import pytest

from repro.harness.benchtrack import (
    RECORD_FORMAT,
    append_record,
    check_history_dir,
    compare_latest,
    history_path,
    load_history,
    make_record,
    metric,
)


def _record(bench="demo", quick=True, **metrics):
    """A history record with higher-is-better portable metrics."""
    return make_record(
        bench,
        {name: metric(value, portable=True) for name, value in metrics.items()},
        quick=quick,
    )


class TestRecords:
    def test_make_record_carries_provenance(self):
        record = _record(speed=100.0)
        assert record["format"] == RECORD_FORMAT
        assert record["bench"] == "demo"
        assert record["quick"] is True
        assert record["timestamp"].endswith("Z")
        assert record["metrics"]["speed"]["value"] == 100.0
        # Run from the repo checkout, so provenance includes the SHA.
        assert make_record("demo", {}, cwd=".")["git"]

    def test_append_and_load_round_trip(self, tmp_path):
        history = str(tmp_path)
        for value in (100.0, 101.0):
            append_record(history, _record(speed=value))
        records = load_history(history_path(history, "demo"))
        assert [r["metrics"]["speed"]["value"] for r in records] == [
            100.0, 101.0,
        ]

    def test_load_tolerates_torn_final_line(self, tmp_path):
        history = str(tmp_path)
        append_record(history, _record(speed=100.0))
        path = history_path(history, "demo")
        with open(path, "a") as handle:
            handle.write('{"format": 1, "bench"')
        assert len(load_history(path)) == 1

    def test_load_raises_on_malformed_interior_line(self, tmp_path):
        path = str(tmp_path / "demo.jsonl")
        with open(path, "w") as handle:
            handle.write("garbage\n")
            handle.write(json.dumps(_record(speed=1.0)) + "\n")
        with pytest.raises(ValueError, match="line 1"):
            load_history(path)


class TestCompareLatest:
    def test_2x_slowdown_is_flagged(self):
        records = [_record(speed=v) for v in (100.0, 102.0, 98.0, 50.0)]
        regressions, compared = compare_latest(records)
        assert compared == 1
        assert len(regressions) == 1
        found = regressions[0]
        assert found.bench == "demo"
        assert found.metric == "speed"
        assert found.change == pytest.approx(1.0, abs=0.1)
        assert "worse" in found.describe()

    def test_noise_within_threshold_is_tolerated(self):
        records = [_record(speed=v) for v in (100.0, 102.0, 98.0, 91.0)]
        regressions, compared = compare_latest(records)
        assert compared == 1
        assert regressions == []

    def test_lower_is_better_direction(self):
        records = []
        for value in (10.0, 10.2, 9.9, 25.0):
            records.append(
                make_record(
                    "demo", {"latency": metric(value, higher_is_better=False)}
                )
            )
        regressions, _ = compare_latest(records)
        assert len(regressions) == 1
        # ...and an improvement (drop) never fires.
        records[-1]["metrics"]["latency"]["value"] = 2.0
        assert compare_latest(records)[0] == []

    def test_median_baseline_shrugs_off_one_outlier(self):
        # One historically-broken run (speed=1) must not poison the
        # baseline: the median of (100, 1, 102) is still ~100.
        records = [_record(speed=v) for v in (100.0, 1.0, 102.0, 95.0)]
        regressions, compared = compare_latest(records)
        assert compared == 1
        assert regressions == []

    def test_insufficient_history_is_never_a_failure(self):
        records = [_record(speed=100.0), _record(speed=1.0)]
        regressions, compared = compare_latest(records)
        assert compared == 0
        assert regressions == []

    def test_quick_and_full_records_never_mix(self):
        records = [_record(speed=v, quick=False) for v in (100.0, 101.0)]
        # The newest run is quick; its only same-flag history is empty.
        records.append(_record(speed=1.0, quick=True))
        regressions, compared = compare_latest(records)
        assert compared == 0
        assert regressions == []

    def test_portable_only_skips_machine_local_metrics(self):
        records = []
        for value in (100.0, 101.0, 99.0, 50.0):
            records.append(
                make_record(
                    "demo",
                    {
                        "wall_rate": metric(value, portable=False),
                        "ratio": metric(2.0, portable=True),
                    },
                )
            )
        regressions, compared = compare_latest(records, portable_only=True)
        assert compared == 1  # only the ratio was baselined
        assert regressions == []
        regressions, compared = compare_latest(records, portable_only=False)
        assert compared == 2
        assert [r.metric for r in regressions] == ["wall_rate"]

    def test_window_limits_the_baseline(self):
        # Ancient fast records beyond the window must not count.
        records = [_record(speed=1000.0) for _ in range(5)]
        records += [_record(speed=v) for v in (100.0, 101.0, 99.0)]
        records.append(_record(speed=95.0))
        regressions, compared = compare_latest(records, window=3)
        assert compared == 1
        assert regressions == []

    def test_metric_absent_from_the_newest_record_is_not_a_regression(self):
        # A benchmark that stops reporting a metric (its subject was
        # removed) leaves old records carrying it; history stays
        # append-only and the comparator follows the newest record.
        records = [_record(speed=100.0, retired=5.0) for _ in range(3)]
        records.append(_record(speed=99.0))
        regressions, compared = compare_latest(records)
        assert compared == 1
        assert regressions == []

    def test_nonpositive_values_are_skipped(self):
        records = [_record(speed=v) for v in (0.0, 0.0, 0.0)]
        regressions, compared = compare_latest(records)
        assert regressions == []


class TestCheckHistoryDir:
    def test_reports_per_bench_and_collects_regressions(self, tmp_path):
        history = str(tmp_path)
        for value in (100.0, 101.0, 50.0):
            append_record(history, _record("slowbench", speed=value))
        for value in (10.0, 10.0, 10.1):
            append_record(history, _record("okbench", speed=value))
        append_record(history, _record("newbench", speed=5.0))
        regressions, lines = check_history_dir(history)
        assert [r.bench for r in regressions] == ["slowbench"]
        assert any(line.startswith("REGRESSION slowbench") for line in lines)
        assert any(line.startswith("okbench: ok") for line in lines)
        assert any("newbench: insufficient history" in line for line in lines)

    def test_bench_filter_and_missing_bench(self, tmp_path):
        history = str(tmp_path)
        for value in (100.0, 101.0, 50.0):
            append_record(history, _record("slowbench", speed=value))
        regressions, lines = check_history_dir(
            history, benches=["slowbench"]
        )
        assert len(regressions) == 1
        with pytest.raises(FileNotFoundError, match="nosuchbench"):
            check_history_dir(history, benches=["nosuchbench"])

    def test_missing_directory_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="history directory"):
            check_history_dir(str(tmp_path / "nope"))
