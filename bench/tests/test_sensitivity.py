"""The benchmark shown to fail: a slowed layer moves the workload that
leans on it past the bound, and leaves the others within it.

Each case wraps one layer's entry point in a busy-wait and compares
``round_s`` floors with and without it.  Plain and slowed rounds
alternate, so drift of the host during the test hits both alike.
"""

import contextlib
import json
import os
import time

import pytest

from repro.core.router import MetroRouter
from repro.harness import RunJournal
from repro.verify.oracle import Oracle

from bench import ROOT
from bench.estimator import sigma_min
from bench.worker import run_once
from bench.workloads import DEFAULT_BACKEND, WORKLOADS

ROUNDS = 5
FIG3 = ("fig3_light", "fig3_saturated", "fig3_checked")


@pytest.fixture(scope="module")
def bound():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        contract = json.load(handle)
    return {m["name"]: m["bound"] for m in contract["end_to_end"]}["round_s"]


def _slowed(owner, name, seconds):
    """Context manager: ``owner.name`` busy-waits ``seconds`` per call."""
    original = getattr(owner, name)

    def slow(*args, **kwargs):
        until = time.perf_counter() + seconds
        while time.perf_counter() < until:
            pass
        return original(*args, **kwargs)

    @contextlib.contextmanager
    def patch():
        setattr(owner, name, slow)
        try:
            yield
        finally:
            setattr(owner, name, original)

    return patch


def _worsening(workload_name, patch):
    """Relative change of the ``round_s`` floor under ``patch``."""
    workload = WORKLOADS[workload_name]
    plain, slowed = [], []
    for _ in range(ROUNDS):
        plain.append(run_once(workload, 19, DEFAULT_BACKEND)[0])
        with patch():
            slowed.append(run_once(workload, 19, DEFAULT_BACKEND)[0])
    return sigma_min(slowed) / sigma_min(plain) - 1.0


def test_slow_router_tick_shows_on_fig3_saturated(bound):
    patch = _slowed(MetroRouter, "tick", 5e-6)
    assert _worsening("fig3_saturated", patch) > bound


def test_slow_oracle_shows_on_fig3_checked_only(bound):
    patch = _slowed(Oracle, "tick", 1e-3)
    assert _worsening("fig3_checked", patch) > bound
    assert abs(_worsening("fig3_saturated", patch)) < bound


def test_slow_journal_write_shows_on_sweep_small_only(bound):
    patch = _slowed(RunJournal, "record", 2e-3)
    assert _worsening("sweep_small", patch) > bound
    for name in FIG3:
        assert abs(_worsening(name, patch)) < bound
