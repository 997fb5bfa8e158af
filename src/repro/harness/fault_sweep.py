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
from repro.harness.experiment import measure_experiment
from repro.harness.load_sweep import build_point_network, figure3_network, point_traffic
from repro.harness.parallel import TrialSpec, run_trials


def _build_warm_workload(
    rate, seed, message_words, metrics, max_attempts, retry_policy, backend,
    network_factory,
):
    """The fault-free network + traffic every fault point starts from."""
    endpoint_kwargs = {}
    if max_attempts is not None:
        endpoint_kwargs["max_attempts"] = max_attempts
    if retry_policy is not None:
        endpoint_kwargs["retry_policy"] = retry_policy
    network, telemetry = build_point_network(
        network_factory, seed, backend=backend, metrics=metrics,
        endpoint_kwargs=endpoint_kwargs,
    )
    return network, point_traffic(network, rate, message_words, seed), telemetry


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


def _factory_name(network_factory):
    return "{}:{}".format(
        getattr(network_factory, "__module__", "?"),
        getattr(network_factory, "__qualname__", repr(network_factory)),
    )


def make_warm_snapshot(
    rate=0.02,
    seed=0,
    message_words=20,
    warmup_cycles=1500,
    network_factory=figure3_network,
    metrics=False,
    max_attempts=None,
    retry_policy=None,
    backend="reference",
):
    """Warm up the fault-free workload once and capture it.

    Every level of a fault sweep shares the same warmup when faults
    strike at the measured window (``inject_after_warmup``), so the
    warmup can be paid once: the returned
    :class:`~repro.sim.snapshot.Snapshot` feeds
    ``run_fault_point(warm_snapshot=...)`` /
    ``fault_degradation_sweep(warm_snapshot=...)``, which restore it
    and jump straight to fault injection + measurement.  The workload
    parameters are stamped into ``snap.meta`` and re-validated at
    restore time, so a snapshot can never silently warm-start a
    mismatched sweep.
    """
    network, traffic, telemetry = _build_warm_workload(
        rate, seed, message_words, metrics, max_attempts, retry_policy,
        backend, network_factory,
    )
    traffic.attach(network)
    network.run(warmup_cycles)
    return network.engine.snapshot(
        extras={
            "network": network,
            "traffic": traffic,
            "telemetry": telemetry,
        },
        meta={
            "kind": "fault-warmup",
            "rate": rate,
            "seed": seed,
            "message_words": message_words,
            "warmup_cycles": warmup_cycles,
            "metrics": bool(metrics),
            "max_attempts": max_attempts,
            "network_factory": _factory_name(network_factory),
        },
    )


def _restore_warm(warm_snapshot, expected, backend):
    """Restore a warm snapshot, refusing parameter mismatches."""
    from repro.sim.snapshot import restore

    meta = warm_snapshot.meta
    if meta.get("kind") != "fault-warmup":
        raise ValueError(
            "snapshot is not a fault-sweep warm start (meta kind {!r})".format(
                meta.get("kind")
            )
        )
    mismatched = [
        "{}: snapshot={!r} != requested {!r}".format(key, meta.get(key), value)
        for key, value in expected.items()
        if meta.get(key) != value
    ]
    if mismatched:
        raise ValueError(
            "warm snapshot does not match the requested sweep "
            "parameters:\n  " + "\n  ".join(mismatched)
        )
    extras = restore(warm_snapshot, backend=backend).extras
    return extras["network"], extras["traffic"], extras["telemetry"]


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
    retry_policy=None,
    backend="reference",
    inject_after_warmup=False,
    warm_snapshot=None,
    fault_seed=None,
):
    """One (fault level, load) measurement.

    ``metrics=True`` attaches a metrics-only telemetry snapshot to the
    result (see :func:`~repro.harness.load_sweep.run_load_point`).
    ``max_attempts``/``retry_policy`` configure the endpoints' retry
    discipline; with a finite budget, messages that exhaust it are
    counted in ``result.undeliverable`` (note: a ``retry_policy``
    object in the params makes the trial spec uncacheable — prefer
    plain ``max_attempts`` for swept trials).  ``backend`` selects the
    engine backend.

    ``inject_after_warmup=True`` moves the fault strike from before
    warmup (the default, modelling a network that was *built* broken)
    to the start of the measured window (modelling faults striking a
    running network).  In that mode the warmup is fault-level
    independent, which is what makes warm starts sound:

    ``warm_snapshot`` (a :func:`make_warm_snapshot` capture) skips the
    build and warmup entirely — the snapshot is restored (onto
    ``backend``, which may differ from the capture backend), this
    level's faults strike, and only the measured window simulates.
    Results are byte-identical to a cold ``inject_after_warmup`` run
    of the same parameters; the snapshot's recorded parameters are
    validated against the requested ones and any mismatch raises.

    ``fault_seed`` decouples the fault draw from the workload seed
    (default: same seed, the historical behaviour).  Warm sweeps need
    the split: every level shares one workload seed (one warmup, one
    snapshot) while the faults stay per-level.
    """
    label = "links={} routers={}".format(n_dead_links, n_dead_routers)
    if fault_seed is None:
        fault_seed = seed
    if warm_snapshot is not None:
        network, traffic, telemetry = _restore_warm(
            warm_snapshot,
            expected={
                "rate": rate,
                "seed": seed,
                "message_words": message_words,
                "warmup_cycles": warmup_cycles,
                "metrics": bool(metrics),
                "max_attempts": max_attempts,
                "network_factory": _factory_name(network_factory),
            },
            backend=backend,
        )
    else:
        network, traffic, telemetry = _build_warm_workload(
            rate, seed, message_words, metrics, max_attempts, retry_policy,
            backend, network_factory,
        )
        if not inject_after_warmup:
            _apply_fault_level(
                network, n_dead_links, n_dead_routers, fault_seed
            )
        traffic.attach(network)
        network.run(warmup_cycles)
    if warm_snapshot is not None or inject_after_warmup:
        _apply_fault_level(network, n_dead_links, n_dead_routers, fault_seed)
    return measure_experiment(
        network,
        traffic,
        measure_cycles,
        label=label,
        telemetry=telemetry,
        warmup_cycles=warmup_cycles,
    )


def fault_trial_specs(
    fault_levels=((0, 0), (4, 0), (8, 0), (16, 0), (4, 2), (8, 4)),
    rate=0.02,
    seed=0,
    warm_snapshot=None,
    inject_after_warmup=False,
    **kwargs
):
    """One :class:`TrialSpec` per fault level, seeded per level.

    The seed path is ``("fault", links, routers, rate)`` so a level's
    randomness is unchanged when levels are added or reordered.

    In the historical (inject-before-warmup) mode the derived seed is
    the trial's whole seed: every level builds its own network.  With
    ``inject_after_warmup`` (and therefore with ``warm_snapshot``) all
    levels share the root workload seed — one network, one warmup,
    identical across levels — and the derived seed becomes the level's
    ``fault_seed`` only.  That split is what lets a single
    :func:`make_warm_snapshot` capture warm-start the entire sweep, and
    makes the warm sweep's results comparable level-for-level with a
    cold ``inject_after_warmup`` sweep.

    A ``warm_snapshot`` keeps specs cacheable: the snapshot enters the
    cache key as its content hash (``Snapshot.cache_token``), so
    re-sweeping from the same capture reuses cached levels while a
    different warmup invalidates them.
    """
    shared_warmup = warm_snapshot is not None or inject_after_warmup
    specs = []
    for links, routers in fault_levels:
        level_seed = derive_seed(seed, "fault", links, routers, rate)
        params = dict(
            n_dead_links=links, n_dead_routers=routers, rate=rate, **kwargs
        )
        if shared_warmup:
            params["inject_after_warmup"] = True
            params["fault_seed"] = level_seed
            if warm_snapshot is not None:
                params["warm_snapshot"] = warm_snapshot
            spec_seed = seed
        else:
            spec_seed = level_seed
        specs.append(
            TrialSpec(
                runner="repro.harness.fault_sweep:run_fault_point",
                params=params,
                seed=spec_seed,
                label="links={} routers={}".format(links, routers),
            )
        )
    return specs


def fault_degradation_sweep(
    fault_levels=((0, 0), (4, 0), (8, 0), (16, 0), (4, 2), (8, 4)),
    rate=0.02,
    seed=0,
    warm_snapshot=None,
    inject_after_warmup=False,
    workers=1,
    cache_dir=None,
    progress=None,
    runner=None,
    **kwargs
):
    """Latency/throughput at one load across increasing fault counts.

    Levels are independent trials: ``workers`` parallelizes them and
    ``cache_dir`` reuses already-measured levels across invocations.

    ``warm_snapshot`` (from :func:`make_warm_snapshot`, built with the
    same ``rate``/``seed``/workload parameters) warm-starts every
    level from one shared post-warmup capture: the levels skip their
    warmup cycles entirely and reproduce a cold
    ``inject_after_warmup=True`` sweep byte-for-byte.
    """
    specs = fault_trial_specs(
        fault_levels=fault_levels,
        rate=rate,
        seed=seed,
        warm_snapshot=warm_snapshot,
        inject_after_warmup=inject_after_warmup,
        **kwargs
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
