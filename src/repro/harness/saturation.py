"""Saturation search: where does the network stop giving more?

Figure 3's load axis ends where the latency curve turns vertical.
:func:`find_saturation` locates that point automatically: it sweeps
the injection rate geometrically until delivered throughput stops
improving, then reports the saturation throughput and the rate at
which it was reached — useful for comparing network variants (size,
dilation, reclamation mode) by a single number.

The candidate rates are known up front (:data:`START_RATE` growing by
:data:`GROWTH` for :data:`MAX_STEPS`), so each is an independent
:class:`~repro.harness.parallel.TrialSpec`.  A serial runner evaluates
them lazily with early stopping; a parallel runner measures all
candidates concurrently and then applies the *same* stopping rule to
the full series, so both modes return identical results (the parallel
mode merely spends extra work past the knee in exchange for latency).
"""

from repro.core.random_source import derive_seed
from repro.harness.load_sweep import figure3_network, run_load_point
from repro.harness.parallel import run_trials
from repro.harness.spec import TrialSpec

#: The geometric rate ladder the search climbs.
START_RATE = 0.01
GROWTH = 2.0
MAX_STEPS = 8
#: The curve has flattened when one more rung improves delivered load
#: by less than this fraction.
TOLERANCE = 0.05


def run_saturation_point(rate, seed=0, warmup_cycles=800, measure_cycles=3000,
                         **kwargs):
    """One saturation-search measurement (a relabeled load point).

    The search's own, shorter windows are the defaults; everything
    else (``network_factory``, ``message_words``, ``metrics``,
    ``backend``) is :func:`~repro.harness.load_sweep.run_load_point`'s.
    """
    result = run_load_point(
        rate, seed=seed, warmup_cycles=warmup_cycles,
        measure_cycles=measure_cycles, **kwargs
    )
    result.label = "rate={:.4g}".format(rate)
    return result


def saturation_trial_specs(seed=0, **kwargs):
    """The geometric rate ladder as :class:`TrialSpec` objects.

    ``kwargs`` reach :func:`run_saturation_point` only when given.
    """
    specs = []
    rate = START_RATE
    for _step in range(MAX_STEPS):
        specs.append(
            TrialSpec(
                runner="repro.harness.saturation:run_saturation_point",
                params=dict(rate=rate, **kwargs),
                seed=derive_seed(seed, "saturation", rate),
                label="rate={:.4g}".format(rate),
            )
        )
        rate *= GROWTH
    return specs


def _saturation_index(results):
    """Index of the first flattening point, or None if still growing.

    The rule the serial loop has always used: the curve is saturated at
    point ``k`` when point ``k+1`` improves delivered load by less than
    :data:`TOLERANCE` (points with zero delivered load never saturate —
    the network hasn't started carrying traffic yet).
    """
    for k in range(1, len(results)):
        previous, current = results[k - 1], results[k]
        if previous.delivered_load <= 0:
            continue
        gain = (
            current.delivered_load - previous.delivered_load
        ) / previous.delivered_load
        if gain < TOLERANCE:
            return k - 1
    return None


def find_saturation(
    network_factory=figure3_network,
    seed=0,
    workers=1,
    cache_dir=None,
    progress=None,
    runner=None,
    **kwargs
):
    """Grow the injection rate until throughput gains fall below
    :data:`TOLERANCE`; returns ``(saturation_result, all_results)``.

    The saturation result is the first point whose delivered load is
    within :data:`TOLERANCE` of its successor's (the curve has flattened).
    With ``workers`` > 1 all candidate rates are measured concurrently
    and the result series is truncated at the same stopping point the
    serial search would have reached, so the two modes agree exactly.
    ``kwargs`` (``message_words``, ``warmup_cycles``,
    ``measure_cycles``, ``metrics``, ``backend``) go to
    :func:`saturation_trial_specs`.
    """
    specs = saturation_trial_specs(
        seed=seed, network_factory=network_factory, **kwargs
    )
    # One batch of every candidate on a pool, one candidate per batch
    # serially; a prebuilt runner's pool size wins over ``workers``.
    if getattr(runner, "workers", workers) > 1:
        batches = [specs]
    else:
        batches = [[spec] for spec in specs]
    results = []
    for batch in batches:
        results.extend(
            run_trials(
                batch, workers=workers, cache_dir=cache_dir, progress=progress,
                runner=runner,
            )
        )
        index = _saturation_index(results)
        if index is not None:
            return results[index], results[: index + 2]
    return results[-1], results
