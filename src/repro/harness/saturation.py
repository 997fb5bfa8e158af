"""Saturation search: where does the network stop giving more?

Figure 3's load axis ends where the latency curve turns vertical.
:func:`saturation_search` locates that point automatically: it sweeps the
injection rate geometrically until delivered throughput stops
improving, and :func:`saturation_point` reports the saturation
throughput and the rate at which it was reached — useful for comparing
network variants (size, dilation, reclamation mode) by a single number.

The candidate rates are known up front (:data:`START_RATE` growing by
:data:`GROWTH` for :data:`MAX_STEPS`), so each is an independent
:class:`~repro.harness.parallel.TrialSpec`: the ``saturation`` row of
:data:`repro.harness.sweeps.SWEEPS` builds them, as ``repro
saturation`` does::

    specs = sweep_specs("saturation", seed=0, network_factory=figure3_network)
    results = saturation_search(TrialRunner(workers=4), specs)
    saturated = saturation_point(results)

A serial runner evaluates
them lazily with early stopping; a parallel runner measures all
candidates concurrently and then applies the *same* stopping rule to
the full series, so both modes return identical results (the parallel
mode merely spends extra work past the knee in exchange for latency).
"""

from repro.harness.load_sweep import run_load_point

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


def saturation_search(runner, specs):
    """Run the rate ladder ``specs`` on ``runner`` until throughput gains
    fall below :data:`TOLERANCE`; returns the results up to one rung
    past the saturation point (all of them if the curve never flattens).

    A serial runner measures one rung at a time and stops there; a pool
    measures every rung at once and cuts the series at the same rung,
    so the two return the same results.
    """
    batches = [specs] if runner.workers > 1 else [[spec] for spec in specs]
    results = []
    for batch in batches:
        results.extend(runner.run(batch))
        index = _saturation_index(results)
        if index is not None:
            return results[: index + 2]
    return results


def saturation_point(results):
    """The saturation result of a :func:`saturation_search`: the first
    point whose delivered load is within :data:`TOLERANCE` of its
    successor's (the curve has flattened), or the last point if it
    never did."""
    index = _saturation_index(results)
    return results[-1] if index is None else results[index]
