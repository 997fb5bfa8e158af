"""The standard-library statistics held to numpy, bit for bit."""

import random
from types import SimpleNamespace

import numpy as np
import pytest

from repro.baseline.harness import WormholeResult
from repro.harness.experiment import ExperimentResult
from repro.stats import percentile

QUANTILES = (0, 1, 5, 10, 25, 33.3, 50, 66.7, 75, 90, 95, 99, 99.9, 100)


def test_percentile_median_and_mean_equal_numpys():
    """Whole-cycle latencies, as the simulator produces them: the
    helper equals ``np.percentile``, and the two measured-window
    results equal ``np.percentile`` / ``np.median`` / ``.mean()``."""
    rng = random.Random(7)
    for case in range(1500):
        n = rng.randint(1, 60)
        high = rng.choice((3, 40, 400, 100000))
        latencies = [rng.randint(0, high) for _ in range(n)]
        attempts = [rng.randint(1, 9) for _ in range(n)]
        ordered = sorted(latencies)
        for q in QUANTILES + (rng.uniform(0, 100),):
            assert percentile(ordered, q) == float(np.percentile(latencies, q)), (
                case, q, latencies,
            )
        messages = [SimpleNamespace(total_latency=t, attempts=a, source=0)
                    for t, a in zip(latencies, attempts)]
        result = ExperimentResult("r", messages, 0, 0, 100, 1, 20, {})
        wormhole = WormholeResult("w", messages, 100, 1, 20)
        array = np.array(latencies, dtype=float)
        for measured in (result, wormhole):
            assert measured.mean_latency == float(array.mean())
            assert measured.median_latency == float(np.median(array))
            assert measured.latency_percentile(95) == float(np.percentile(array, 95))
        assert result.mean_attempts == float(np.array(attempts, dtype=float).mean())


@pytest.mark.parametrize("q", [-1, 100.5, float("nan")])
def test_a_percentile_outside_0_to_100_raises_as_numpys_does(q):
    with pytest.raises(ValueError):
        np.percentile([1, 2, 3], q)
    with pytest.raises(ValueError):
        percentile([1, 2, 3], q)
