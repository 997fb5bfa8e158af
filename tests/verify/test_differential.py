"""Differential testing: simulator vs. the Table 4 latency equations."""

import pytest

from repro.harness.parallel import run_trials
from repro.verify.differential import (
    compare,
    differential_specs,
    model_one_way,
    model_slack,
    run_trial,
)
from repro.verify.scenario import Scenario, random_scenario

pytestmark = pytest.mark.stress


def test_fifty_random_configs_agree_with_model():
    """The acceptance bar: >= 50 random (r, d, vtd, dp, hw) draws, the
    simulator and the closed-form model agree at the stated slack."""
    reports = run_trials(differential_specs(50, root_seed=0))
    mismatches = [report for report in reports if not report["ok"]]
    assert len(reports) == 50
    assert mismatches == [], mismatches[0]["detail"] if mismatches else ""


def test_serial_and_parallel_sweeps_are_identical():
    specs = differential_specs(10, root_seed=7)
    assert run_trials(specs) == run_trials(specs, workers=2)


def test_specs_are_deterministic_in_root_seed():
    first = differential_specs(5, root_seed=3)
    second = differential_specs(5, root_seed=3)
    assert [s.seed for s in first] == [s.seed for s in second]
    different = differential_specs(5, root_seed=4)
    assert [s.seed for s in first] != [s.seed for s in different]


def test_slack_is_exact_not_a_bound():
    """The fixed slack (final hop + TURN slot) is the whole story: the
    measured delta equals it exactly on a known configuration."""
    scenario = Scenario(
        radix=4, dilation=1, n_stages=2, w=4, hw=1, dp=2, link_delay=3,
        seed=42, messages=[{"src": 1, "dest": 14, "payload": [5] * 8}],
    )
    report = compare(scenario)
    assert report["ok"], report["detail"]
    assert report["delta"] == report["slack"] == scenario.link_delay + 1
    assert report["sim"] == model_one_way(scenario) + model_slack(scenario)


def test_run_trial_matches_compare():
    report = run_trial(123)
    assert report == compare(random_scenario(123, n_messages=1))
    assert report["ok"], report["detail"]


def test_compare_rejects_multi_message_scenarios():
    scenario = random_scenario(5, n_messages=2)
    with pytest.raises(ValueError):
        compare(scenario)
