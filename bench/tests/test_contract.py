"""BENCHMARK.json against the contract, and against the code."""

import json
import os
import re
import subprocess
import sys
import time

import pytest

from bench import ROOT
from bench.workloads import WORKLOADS

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def test_schema(contract):
    assert set(contract) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert contract["paths"] == ["bench"]
    assert 1 <= contract["run_seconds"] <= 60
    assert 2 <= len(contract["workloads"]) <= 8
    assert 1 <= len(contract["end_to_end"]) <= 16
    assert 1 <= len(contract["per_layer"]) <= 128
    names = (
        [w["name"] for w in contract["workloads"]]
        + [m["name"] for m in contract["end_to_end"]]
        + [m["name"] for m in contract["per_layer"]]
    )
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for workload in contract["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in contract["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in contract["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in contract["end_to_end"] + contract["per_layer"]:
        assert UNIT.match(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    setup = [m for m in contract["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in contract["end_to_end"])


def test_workloads_are_the_ones_the_code_runs(contract):
    assert [w["name"] for w in contract["workloads"]] == list(WORKLOADS)


def _run(*arguments):
    started = time.perf_counter()
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "bench", "run.py")]
        + list(arguments),
        cwd=ROOT, stdout=subprocess.PIPE, text=True,
    )
    elapsed = time.perf_counter() - started
    assert done.returncode == 0
    return json.loads(done.stdout.strip().splitlines()[-1]), elapsed


@pytest.mark.parametrize("workload", ["fig3_saturated", "sweep_small"])
def test_short_run_prints_every_end_to_end_metric(contract, workload, tmp_path):
    result, elapsed = _run(
        "--workload", workload, "--seed", "7", "--seconds", "1",
        "--trace", "0", "--out", str(tmp_path),
    )
    assert elapsed < 30
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in contract["end_to_end"]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == declared
    assert all(m["value"] > 0 for m in result["metrics"].values())
    with open(tmp_path / "result.json") as handle:
        saved = json.load(handle)
    assert saved["seed"] == 7 and workload in saved["workloads"]
    assert {"commit", "nproc", "cpu", "python", "numpy", "loadavg"} <= set(
        saved["machine"]
    )


@pytest.mark.parametrize("workload", ["fig3_checked", "sweep_small"])
def test_traced_run_prints_every_per_layer_metric(contract, workload, tmp_path):
    result, elapsed = _run(
        "--workload", workload, "--seed", "7", "--seconds", "1",
        "--trace", "1", "--out", str(tmp_path),
    )
    assert elapsed < 60
    assert result["correct"]
    declared = {m["name"]: m["unit"] for m in contract["per_layer"]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == declared
    with open(tmp_path / "trace-{}.json".format(workload)) as handle:
        spans = json.load(handle)
    assert spans and set(spans[0]) == {
        "name", "start", "end", "parent", "workload", "calls", "busy",
        "folded",
    }
    assert {span["workload"] for span in spans} == {workload}
