"""The noise-floor estimator on synthetic chunk times."""

import random
import statistics

import pytest

from bench.estimator import percentile, quartiles, sigma_min, spread


def _noisy_rounds(rng, base, rounds, hit_share, sleep):
    """``base`` chunk times with a sleep injected into random chunks."""
    return [
        [t + (sleep if rng.random() < hit_share else 0.0) for t in base]
        for _ in range(rounds)
    ]


def test_sigma_min_ignores_injected_sleeps():
    rng = random.Random(5)
    base = [rng.uniform(0.010, 0.030) for _ in range(48)]
    truth = sum(base)
    # A quarter of all chunks stall for 40 ms: whole rounds move by
    # half, the floor must not move by 2%.
    rounds = _noisy_rounds(rng, base, rounds=7, hit_share=0.25, sleep=0.040)
    whole = statistics.median(sum(chunks) for chunks in rounds)
    assert whole > 1.3 * truth
    assert abs(sigma_min(rounds) - truth) / truth < 0.02


def test_sigma_min_repeats_between_sets_where_the_median_does_not():
    rng = random.Random(11)
    base = [rng.uniform(0.010, 0.030) for _ in range(40)]
    quiet = _noisy_rounds(rng, base, rounds=7, hit_share=0.05, sleep=0.030)
    busy = _noisy_rounds(rng, base, rounds=7, hit_share=0.35, sleep=0.030)
    medians = [statistics.median(sum(c) for c in s) for s in (quiet, busy)]
    assert medians[1] > 1.2 * medians[0]
    assert abs(sigma_min(busy) - sigma_min(quiet)) / sigma_min(quiet) < 0.02


def test_sigma_min_refuses_rounds_that_did_different_work():
    with pytest.raises(ValueError):
        sigma_min([[1.0, 2.0], [1.0]])
    with pytest.raises(ValueError):
        sigma_min([])


def test_quartiles_match_the_statistics_module():
    values = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0, 6.0, 5.5, 3.5]
    q1, median, q3 = statistics.quantiles(values, n=4)
    assert quartiles(values) == (q1, median, q3)
    assert spread(values) == (q3 - q1) / median
    assert quartiles([2.5]) == (2.5, 2.5, 2.5)


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 95) == 95
    assert percentile([7], 95) == 7
