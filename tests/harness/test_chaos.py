"""Chaos soak harness: determinism, parallel equivalence, SLO gates."""

import pickle

import pytest

from repro.harness.chaos import (
    ChaosResult,
    chaos_slo_failures,
    run_chaos_point,
)
from repro.harness.sweeps import sweep_specs
from repro.harness.parallel import run_trials

# Small, fast soak used throughout this module.
SOAK_KW = dict(
    n_windows=8,
    window_cycles=200,
    warmup_windows=2,
    rate=0.02,
    n_flaky_links=1,
    n_dead_routers=1,
    mtbf=400,
    mttr=200,
    max_attempts=30,
)


def _mini_result(windows, **overrides):
    kwargs = dict(
        label="t",
        seed=0,
        self_heal=True,
        window_cycles=100,
        warmup_windows=2,
        fault_start=200,
        slo_fraction=0.75,
        windows=windows,
        undeliverable=0,
        attempt_failures={},
        fault_events=[],
        mask_events=[],
        repairs=[],
        evidence_count=0,
        oracle_violations=0,
    )
    kwargs.update(overrides)
    return ChaosResult(**kwargs)


class TestChaosResult:
    def test_availability_counts_post_fault_slo_windows(self):
        # baseline = mean(40, 40) = 40; SLO floor = 30.
        result = _mini_result([40, 40, 10, 20, 35, 40])
        assert result.baseline_rate == 40.0
        assert result.availability == pytest.approx(2 / 4)
        assert result.degraded_windows == 2

    def test_mttr_is_mean_degraded_episode_length(self):
        # Post-fault: [10, 10, 40, 10, 40] -> episodes of 2 and 1
        # windows; mean 1.5 episodes * 100 cycles.
        result = _mini_result([40, 40, 10, 10, 40, 10, 40])
        assert result.mttr_cycles == pytest.approx(150.0)

    def test_mttr_zero_when_never_degraded(self):
        result = _mini_result([40, 40, 40, 40])
        assert result.mttr_cycles == 0.0
        assert result.availability == 1.0

    def test_recovered_rate_is_last_three_windows(self):
        result = _mini_result([40, 40, 10, 20, 30, 40])
        assert result.recovered_rate == pytest.approx(30.0)

    def test_as_dict_round_trips_core_numbers(self):
        result = _mini_result([40, 40, 20, 40])
        data = result.as_dict()
        assert data["availability"] == result.availability
        assert data["mttr_cycles"] == result.mttr_cycles
        assert data["masked_wires"] == 0


class TestSLOGate:
    def test_bounds_flag_only_violators(self):
        good = _mini_result([40, 40, 40, 40])
        bad = _mini_result([40, 40, 5, 5], undeliverable=9, label="bad")
        failures = chaos_slo_failures(
            [good, bad],
            min_availability=0.5,
            max_undeliverable=3,
            max_mttr_cycles=100,
        )
        assert {r.label for r, _reason in failures} == {"bad"}
        reasons = sorted(reason for _r, reason in failures)
        assert any("availability" in r for r in reasons)
        assert any("undeliverable" in r for r in reasons)
        assert any("MTTR" in r for r in reasons)

    def test_no_bounds_no_failures(self):
        bad = _mini_result([40, 40, 5, 5])
        assert chaos_slo_failures([bad]) == []


class TestDeterminism:
    def test_same_seed_same_soak(self):
        first = run_chaos_point(seed=3, **SOAK_KW)
        second = run_chaos_point(seed=3, **SOAK_KW)
        assert first.windows == second.windows
        assert first.fault_events == second.fault_events
        assert first.mask_events == second.mask_events
        assert pickle.dumps(first) == pickle.dumps(second)

    def test_trial_specs_seeds_are_stable(self):
        specs = sweep_specs("chaos", seeds=2, seed=9, self_heal=(True, False))
        again = sweep_specs("chaos", seeds=2, seed=9, self_heal=(True, False))
        assert [s.seed for s in specs] == [s.seed for s in again]
        assert len({s.seed for s in specs}) == 4
        assert [s.label for s in specs] == [
            "chaos[0] heal=on",
            "chaos[0] heal=off",
            "chaos[1] heal=on",
            "chaos[1] heal=off",
        ]


class TestParallelEquivalence:
    def test_serial_matches_parallel_byte_identically(self):
        kw = dict(seeds=2, seed=4, self_heal=(True,), metrics=True, **SOAK_KW)
        serial = run_trials(sweep_specs("chaos", **kw), workers=1)
        parallel = run_trials(sweep_specs("chaos", **kw), workers=2)
        assert len(serial) == len(parallel) == 2
        for a, b in zip(serial, parallel):
            # Per-result pickles match byte-for-byte (list-level pickle
            # differs only via memoized object identity; see
            # tests/harness/test_parallel.py).
            assert pickle.dumps(a) == pickle.dumps(b)
            assert a.metrics is not None
            assert a.metrics.as_dict() == b.metrics.as_dict()
