"""The noise-floor timing estimator and the order statistics around it.

Host time on a small shared machine does not repeat: whole-round totals
of identical work drift by tens of percent between sets of runs.  What
does repeat is the work itself — the simulator is deterministic, so
chunk *k* of a round (a fixed slice of simulated cycles, or one sweep
batch) does byte-identical work in every round.  Timing each chunk
separately, taking the minimum over rounds per chunk and summing over
chunks gives the time the round would take with no interference on any
chunk::

    sigma_min(t) = sum_k min_r t[r][k]

A burst of contention only has to miss each chunk once in R rounds,
instead of missing a whole round.  The estimate is biased low by
construction (it is a floor, not a mean), equally on both sides of any
comparison made with the same round count and chunking.
"""

import statistics


def sigma_min(rounds):
    """Sum over chunks of the per-chunk minimum over rounds.

    ``rounds`` is a list of equal-length lists of chunk times.  Rounds
    of different lengths mean the work was not the same every round, so
    the estimate is meaningless; that is an error, not a number.
    """
    if not rounds:
        raise ValueError("sigma_min needs at least one round")
    width = len(rounds[0])
    if any(len(chunks) != width for chunks in rounds):
        raise ValueError(
            "rounds have different chunk counts: {}".format(
                sorted({len(chunks) for chunks in rounds})
            )
        )
    return sum(min(column) for column in zip(*rounds))


def quartiles(values):
    """(q1, median, q3) by ``statistics.quantiles(values, n=4)``.

    Fewer than two values have no spread: all three are the value.
    """
    values = list(values)
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values):
    """Interquartile range as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else 0.0


def percentile(sorted_values, q):
    """Nearest-rank percentile of an already sorted, non-empty list."""
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]
