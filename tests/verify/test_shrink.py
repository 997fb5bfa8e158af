"""The shrinker reduces failing scenarios to minimal reproductions."""

import pytest

from repro.verify.differential import mismatch_aware_run
from repro.verify.scenario import Scenario, random_scenario
from repro.verify.shrink import (
    Shrinker,
    _ddmin,
    failure_signature,
    shrink_scenario,
)

from tests.mutants import seeded


def test_passing_scenario_refuses_to_shrink():
    scenario = random_scenario(11, n_messages=1)
    with pytest.raises(ValueError):
        shrink_scenario(scenario)


def test_failure_signature_of_clean_run_is_empty():
    result = random_scenario(11, n_messages=1).run()
    assert failure_signature(result) == frozenset()


def test_shrinks_mutation_failure_to_one_small_message():
    """Under a seeded checksum bug every delivery fails the oracle, so
    the shrinker should reach the floor: one message, one payload word,
    a one-stage network — while preserving the failure signature."""
    scenario = random_scenario(21, n_messages=4)
    with seeded("corrupt-status-checksum"):
        original = failure_signature(scenario.run(max_cycles=2000))
        assert "rule:status-checksum-mismatch" in original
        # A tight cycle budget keeps the dozens of candidate runs fast;
        # the checksum violations appear within the first delivery.
        shrunk = shrink_scenario(scenario, max_cycles=2000)
    assert shrunk.signature & original
    minimal = shrunk.minimal
    assert len(minimal.messages) == 1
    assert len(minimal.messages[0]["payload"]) == 1
    assert minimal.n_stages == 1
    assert minimal.radix == 2
    assert minimal.dilation == 1
    # The reduction is committed-reproduction quality: it round-trips
    # through JSON and still fails identically.
    replayed = Scenario.from_json(minimal.to_json())
    with seeded("corrupt-status-checksum"):
        assert failure_signature(replayed.run(max_cycles=2000)) & original


def test_shrinker_counts_its_test_runs():
    scenario = random_scenario(21, n_messages=3)
    with seeded("corrupt-status-checksum"):
        shrinker = Shrinker(max_cycles=2000)
        shrinker.shrink(scenario)
    assert shrinker.tests_run > 3


def test_mismatch_aware_run_tags_model_disagreement(monkeypatch):
    """When the latency model and simulator disagree, the differential
    run override turns that into a shrinkable failure tag."""
    from repro.verify import differential

    monkeypatch.setattr(differential, "model_slack", lambda scenario: -999)
    run = mismatch_aware_run()
    result = run(random_scenario(11, n_messages=1))
    assert "rule:differential-mismatch" in failure_signature(result)


def test_ddmin_finds_single_culprit():
    items = list(range(16))

    def test(subset):
        return 13 in subset

    assert _ddmin(items, test) == [13]


def test_ddmin_keeps_interacting_pair():
    items = list(range(12))

    def test(subset):
        return 3 in subset and 9 in subset

    assert sorted(_ddmin(items, test)) == [3, 9]
