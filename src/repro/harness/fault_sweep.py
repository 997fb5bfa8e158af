"""Performance under faults (Section 6.2's robustness claim).

"Earlier work based around the routing protocol which evolved to
become the METRO routing protocol shows that performance degrades
robustly in the face of faults [2][3]."  This sweep reproduces that
experiment's shape on our simulator: the same offered load measured
against networks with increasing numbers of dead wires/routers,
reporting delivered throughput, latency and retry inflation.
"""

from repro.core.random_source import derive_seed
from repro.faults.injector import FaultInjector, random_fault_scenario
from repro.harness.experiment import run_experiment
from repro.harness.load_sweep import build_point_network, figure3_network, point_traffic
from repro.harness.parallel import run_trials
from repro.harness.spec import TrialSpec


def _apply_fault_level(network, n_dead_links, n_dead_routers, seed):
    """Inject one sweep level's random static faults, immediately."""
    injector = FaultInjector(network)
    faults = random_fault_scenario(
        network,
        n_dead_links=n_dead_links,
        n_dead_routers=n_dead_routers,
        seed=seed + 17,
        exclude_final_stage=True,
    )
    for fault in faults:
        injector.now(fault)
    return injector


def run_fault_point(
    n_dead_links=0,
    n_dead_routers=0,
    rate=0.02,
    seed=0,
    message_words=20,
    warmup_cycles=1500,
    measure_cycles=6000,
    network_factory=figure3_network,
    metrics=False,
    max_attempts=None,
    backend="reference",
):
    """One (fault level, load) measurement.

    ``metrics=True`` attaches a metrics-only telemetry snapshot to the
    result (see :func:`~repro.harness.load_sweep.run_load_point`).
    ``max_attempts`` is the endpoints' retry budget; when finite,
    messages that exhaust it are counted in ``result.undeliverable``.
    ``backend`` selects the engine backend.
    """
    endpoint_kwargs = {}
    if max_attempts is not None:
        endpoint_kwargs["max_attempts"] = max_attempts
    network, telemetry = build_point_network(
        network_factory, seed, backend=backend, metrics=metrics,
        endpoint_kwargs=endpoint_kwargs,
    )
    _apply_fault_level(network, n_dead_links, n_dead_routers, seed)
    return run_experiment(
        network,
        point_traffic(network, rate, message_words, seed),
        warmup_cycles=warmup_cycles,
        measure_cycles=measure_cycles,
        label="links={} routers={}".format(n_dead_links, n_dead_routers),
        telemetry=telemetry,
    )


def fault_trial_specs(
    fault_levels=((0, 0), (4, 0), (8, 0), (16, 0), (4, 2), (8, 4)),
    rate=0.02,
    seed=0,
    **kwargs
):
    """One :class:`TrialSpec` per fault level, seeded per level.

    The seed path is ``("fault", links, routers, rate)`` so a level's
    randomness is unchanged when levels are added or reordered.
    """
    return [
        TrialSpec(
            runner="repro.harness.fault_sweep:run_fault_point",
            params=dict(
                n_dead_links=links, n_dead_routers=routers, rate=rate, **kwargs
            ),
            seed=derive_seed(seed, "fault", links, routers, rate),
            label="links={} routers={}".format(links, routers),
        )
        for links, routers in fault_levels
    ]


def fault_degradation_sweep(
    fault_levels=((0, 0), (4, 0), (8, 0), (16, 0), (4, 2), (8, 4)),
    rate=0.02,
    seed=0,
    workers=1,
    cache_dir=None,
    progress=None,
    runner=None,
    **kwargs
):
    """Latency/throughput at one load across increasing fault counts.

    Levels are independent trials: ``workers`` parallelizes them and
    ``cache_dir`` reuses already-measured levels across invocations.
    """
    specs = fault_trial_specs(
        fault_levels=fault_levels, rate=rate, seed=seed, **kwargs
    )
    return run_trials(
        specs, workers=workers, cache_dir=cache_dir, progress=progress, runner=runner
    )


def degradation_failures(results, max_degradation=None, max_undeliverable=None):
    """Sweep levels that degraded beyond the bounds.

    With ``max_degradation``, the first result is the baseline
    (normally the fault-free level); every later level must deliver at
    least ``(1 - max_degradation) * baseline`` words per
    endpoint-cycle.  With ``max_undeliverable``, every level
    (baseline included) may abandon at most that many messages —
    retry-budget exhaustion surfaced as a checkable bound instead of
    messages quietly vanishing from the delivered tally.

    Returns the offending ``(result, floor)`` pairs (``floor`` is the
    delivered-load floor for degradation violations, None for
    undeliverable violations), empty when the whole sweep is within
    bounds.  This is the paper's "degrades robustly" claim made
    checkable: the CLI turns a non-empty return into a nonzero exit
    status.
    """
    failures = []
    if max_degradation is not None:
        if not 0.0 <= max_degradation <= 1.0:
            raise ValueError(
                "max_degradation must be in [0, 1], got {}".format(max_degradation)
            )
        if len(results) >= 2:
            baseline = results[0].delivered_load
            floor = baseline * (1.0 - max_degradation)
            failures.extend(
                (r, floor) for r in results[1:] if r.delivered_load < floor
            )
    if max_undeliverable is not None:
        failures.extend(
            (r, None) for r in results if r.undeliverable > max_undeliverable
        )
    return failures
