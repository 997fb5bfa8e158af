"""Summary statistics over plain lists of numbers, standard library only.

Two percentile conventions are in use, and each lives here once:

* :func:`percentile` interpolates linearly between the two nearest
  ranks, bit for bit as numpy's default (``method="linear"``) does: the
  convention of the measured-window results (``ExperimentResult``,
  ``WormholeResult``) and the paper tables they print;
* :func:`nearest_rank` returns one of the observed values, the
  convention of the service tail-latency results and the run log's
  per-window statistics.
"""

import math


def percentile(sorted_values, q):
    """numpy's default ``q``-th percentile (0..100) of a non-empty sorted list.

    The same floating-point steps as numpy's ``linear`` method: index
    ``(n - 1) * (q / 100)``, and the interpolation taken from whichever
    neighbour is nearer, so the result is bit-equal to
    ``np.percentile``.  A ``q`` outside 0..100 raises ValueError, as
    numpy's does.
    """
    if not 0 <= q <= 100:
        raise ValueError("percentile {!r} is not in 0..100".format(q))
    index = (len(sorted_values) - 1) * (q / 100)
    lo = math.floor(index)
    if lo >= len(sorted_values) - 1:
        return float(sorted_values[-1])
    a, b = sorted_values[lo], sorted_values[lo + 1]
    t = index - lo
    if t < 0.5:
        return float(a + (b - a) * t)
    return float(b - (b - a) * (1 - t))


def nearest_rank(sorted_values, q):
    """The ``q``-th percentile (0..100) of a non-empty sorted list as one
    of its values: the one at rank ``int(n * q / 100)``, clamped."""
    rank = max(0, min(len(sorted_values) - 1, int(len(sorted_values) * q / 100.0)))
    return sorted_values[rank]
