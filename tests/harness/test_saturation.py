"""Saturation search."""

from repro.harness.parallel import TrialRunner
from repro.harness.saturation import saturation_point, saturation_search
from repro.harness.sweeps import sweep_specs
from repro.network.builder import build_network
from repro.network.topology import figure1_plan


def _small_factory(seed=0):
    return build_network(figure1_plan(), seed=seed, fast_reclaim=True)


def _search(**kwargs):
    specs = sweep_specs(
        "saturation", network_factory=_small_factory, message_words=8, **kwargs
    )
    return saturation_search(TrialRunner(), specs)


def test_finds_a_flattening_point():
    results = _search(seed=2, warmup_cycles=300, measure_cycles=1200)
    saturated = saturation_point(results)
    assert saturated in results
    assert len(results) >= 2
    assert saturated.delivered_load > 0
    # The search stopped because gains flattened (or budget ran out
    # while still growing) — either way loads are non-trivial.
    assert results[-1].delivered_load >= results[0].delivered_load * 0.8


def test_results_are_ordered_by_rate():
    results = _search(seed=3, warmup_cycles=200, measure_cycles=800)
    labels = [r.label for r in results]
    assert labels == sorted(labels, key=lambda s: float(s.split("=")[1]))
