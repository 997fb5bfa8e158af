"""Experiment runner and the Figure 3 load sweep machinery."""

import math

import pytest

from repro.endpoint.traffic import UniformRandomTraffic
from repro.harness.breakdown import measure_breakdown
from repro.harness.experiment import ConservationError, run_experiment
from repro.harness.fault_sweep import run_fault_point
from repro.harness.load_sweep import (
    figure1_network,
    figure3_network,
    run_load_point,
)
from repro.harness.reporting import format_series, format_table, results_to_series
from repro.network.builder import build_network
from repro.network.topology import figure1_plan

from tests.mutants import seeded


@pytest.fixture(scope="module")
def small_result():
    network = build_network(figure1_plan(), seed=33, fast_reclaim=True)
    traffic = UniformRandomTraffic(16, 4, rate=0.02, message_words=5, seed=3)
    return run_experiment(
        network, traffic, warmup_cycles=300, measure_cycles=1500, label="small"
    )


def _abandoning_point():
    """A fault-level point whose one-attempt retry budget turns every
    blocked attempt into an abandoned message."""
    return run_fault_point(
        2, 0, rate=0.05, seed=3, warmup_cycles=100, measure_cycles=400,
        network_factory=figure1_network, max_attempts=1,
    )


def test_a_point_that_abandons_messages_conserves_them():
    assert _abandoning_point().abandoned_count > 0


def test_the_conservation_gate_catches_an_endpoint_that_forgets_an_abandoned_message():
    """Seeded endpoint bug (``docs/testing.md``, the mutation table)."""
    with seeded("endpoint-forgets-abandoned"):
        with pytest.raises(ConservationError, match=r"submitted != \d+ delivered"):
            _abandoning_point()


class TestRunExperiment:
    def test_delivers_messages(self, small_result):
        assert small_result.delivered_count > 10
        assert small_result.abandoned_count == 0

    def test_latency_statistics_consistent(self, small_result):
        result = small_result
        assert result.median_latency <= result.mean_latency * 1.5
        assert result.latency_percentile(95) >= result.median_latency
        assert result.mean_attempts >= 1.0
        assert not math.isnan(result.mean_latency)

    def test_delivered_load_in_unit_range(self, small_result):
        assert 0 < small_result.delivered_load < 1

    def test_as_dict_complete(self, small_result):
        data = small_result.as_dict()
        for key in (
            "label",
            "delivered",
            "mean_latency",
            "p95_latency",
            "delivered_load",
            "mean_attempts",
        ):
            assert key in data


class TestUnloadedLatency:
    def test_unloaded_latency_in_paper_regime(self):
        """Paper: 28 cycles.  Ours: the same pipeline structure plus an
        explicit per-hop wire register each way, a checksum word and a
        close handshake — expect the same few-tens-of-cycles regime."""
        latency = measure_breakdown(figure3_network, samples=8, seed=1).total
        assert 28 <= latency <= 55

    def test_unloaded_latency_deterministic_per_seed(self):
        a = measure_breakdown(figure3_network, samples=4, seed=2).total
        b = measure_breakdown(figure3_network, samples=4, seed=2).total
        assert a == b


class TestLoadPoints:
    def test_latency_rises_with_load(self):
        light = run_load_point(0.002, seed=4, warmup_cycles=400, measure_cycles=2500)
        heavy = run_load_point(0.30, seed=4, warmup_cycles=400, measure_cycles=2500)
        assert heavy.mean_latency > light.mean_latency
        assert heavy.delivered_load > light.delivered_load

    def test_light_load_near_unloaded_latency(self):
        light = run_load_point(0.002, seed=5, warmup_cycles=400, measure_cycles=2500)
        base = measure_breakdown(figure3_network, samples=6, seed=5).total
        assert light.mean_latency < base * 1.5


class TestReporting:
    def test_format_table_alignment(self):
        rows = [
            {"name": "a", "value": 1.5},
            {"name": "bb", "value": 20.25},
        ]
        text = format_table(rows, title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1] and "value" in lines[1]
        assert len(lines) == 5

    def test_format_table_empty(self):
        assert format_table([]) == "(no rows)"

    def test_format_series_roundtrip(self, small_result):
        points = results_to_series([small_result])
        text = format_series(
            points, x_label="label", y_labels=["mean_latency", "delivered"]
        )
        assert "small" in text
        assert "mean_latency" in text

    def test_tuple_cells(self):
        rows = [{"range": (1, 2)}]
        assert "1-2" in format_table(rows)
