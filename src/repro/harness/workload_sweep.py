"""Sweeps over application workloads (collectives and services).

Two axes the tentpole figures need:

* **collective step time vs fault level** — how much does a degraded
  multibutterfly stretch a ring all-reduce's critical path? — and
* **service tail latency vs offered load** — where does the
  request/response p99/p999 knee sit?

Every point is an independent :class:`~repro.harness.parallel.TrialSpec`
(seeded via :func:`~repro.core.random_source.derive_seed`) executed by
a shared :class:`~repro.harness.parallel.TrialRunner`, so workload
sweeps inherit the whole resilience stack — process pools, on-disk
cache, crash journal, retries, quarantine — and stay byte-identical
serial vs parallel.  The CLI front end is ``repro workloads`` (see
``docs/workloads.md``).
"""

from repro.core.random_source import derive_seed
from repro.harness.fault_sweep import _apply_fault_level
from repro.harness.load_sweep import (
    build_point_network,
    figure1_network,
    figure3_network,
)
from repro.harness.spec import TrialSpec
from repro.workloads.collective import (
    CollectiveSchedule,
    CollectiveWorkload,
    ModelShape,
    run_collective,
)
from repro.workloads.service import (
    RequestResponseWorkload,
    run_service,
    service_slo_failures,
)

#: Fault levels (dead links, dead routers) swept by default.
DEFAULT_FAULT_LEVELS = ((0, 0), (4, 0), (8, 0), (4, 2))

#: Per-client arrival rates swept by default.
DEFAULT_SERVICE_RATES = (0.0005, 0.001, 0.002, 0.004)

_NETWORKS = {
    "figure1": figure1_network,
    "figure3": figure3_network,
}

#: Collective schedule generators :func:`build_schedule` knows by name.
ALGORITHMS = (
    "ring",
    "recursive-doubling",
    "all-to-all",
    "pipeline",
)


def build_schedule(algorithm, n_endpoints, words=20, layers=None,
                   microbatches=4):
    """One collective schedule by name.

    ``layers`` (a list of per-layer gradient sizes in words) switches
    the ring/recursive-doubling algorithms into model-shaped mode: one
    serialized all-reduce per layer, message sizes from the layer
    sizes (:class:`~repro.workloads.collective.ModelShape`).
    """
    if layers:
        if algorithm not in ("ring", "recursive-doubling"):
            raise ValueError(
                "model-shaped schedules support ring/recursive-doubling only"
            )
        return ModelShape(layers, algorithm=algorithm).schedule(n_endpoints)
    if algorithm == "ring":
        return CollectiveSchedule.ring_all_reduce(
            n_endpoints, words_per_rank=words
        )
    if algorithm == "recursive-doubling":
        return CollectiveSchedule.recursive_doubling_all_reduce(
            n_endpoints, words_per_rank=words
        )
    if algorithm == "all-to-all":
        return CollectiveSchedule.all_to_all(n_endpoints, words_per_pair=words)
    if algorithm == "pipeline":
        return CollectiveSchedule.pipeline_parallel(
            n_endpoints, n_microbatches=microbatches, activation_words=words
        )
    raise ValueError(
        "unknown algorithm {!r} (expected one of {})".format(
            algorithm, ", ".join(ALGORITHMS)
        )
    )


def run_collective_point(
    seed=0,
    algorithm="ring",
    words=20,
    layers=None,
    microbatches=4,
    network="figure1",
    n_dead_links=0,
    n_dead_routers=0,
    backend="reference",
    metrics=False,
    max_cycles=400000,
):
    """One collective execution, optionally on a degraded network.

    Faults are injected *before* the workload starts (static
    degradation, the Figure-6 discipline): the collective then runs on
    whatever paths survive, and the per-step report shows where the
    critical path stretched.  Importable by name
    (``repro.harness.workload_sweep:run_collective_point``) so trial
    specs stay picklable.
    """
    network_factory = _NETWORKS[network] if isinstance(network, str) else network
    net, telemetry = build_point_network(
        network_factory, seed, backend=backend, metrics=metrics
    )
    if n_dead_links or n_dead_routers:
        _apply_fault_level(net, n_dead_links, n_dead_routers, seed)
    schedule = build_schedule(
        algorithm,
        net.plan.n_endpoints,
        words=words,
        layers=layers,
        microbatches=microbatches,
    )
    workload = CollectiveWorkload(schedule, w=net.codec.w, seed=seed + 1)
    label = "{} faults={}+{}".format(algorithm, n_dead_links, n_dead_routers)
    result = run_collective(net, workload, max_cycles=max_cycles, label=label)
    if telemetry is not None:
        result.metrics = telemetry.snapshot()
    return result


def run_service_point(
    rate,
    seed=0,
    network="figure1",
    servers=(0,),
    clients=4,
    burst_prob=0.0,
    burst_size=1,
    request_words=8,
    reply_words=4,
    service_time=(0, 16),
    warmup_cycles=1000,
    measure_cycles=6000,
    max_outstanding=2,
    backend="reference",
    metrics=False,
):
    """One request/response soak at one offered load."""
    network_factory = _NETWORKS[network] if isinstance(network, str) else network
    net, telemetry = build_point_network(
        network_factory, seed, backend=backend, metrics=metrics,
        endpoint_kwargs={"max_outstanding": max_outstanding},
    )
    workload = RequestResponseWorkload(
        n_endpoints=net.plan.n_endpoints,
        w=net.codec.w,
        servers=servers,
        clients=clients,
        rate=rate,
        burst_prob=burst_prob,
        burst_size=burst_size,
        request_words=request_words,
        reply_words=reply_words,
        service_time=service_time,
        seed=seed + 1,
    )
    result = run_service(
        net,
        workload,
        warmup_cycles=warmup_cycles,
        measure_cycles=measure_cycles,
        label="rate={}".format(rate),
    )
    if telemetry is not None:
        result.metrics = telemetry.snapshot()
    return result


def collective_trial_specs(fault_levels=DEFAULT_FAULT_LEVELS, seed=0,
                           algorithm="ring", **kwargs):
    """One spec per fault level; seed path ``("wl-coll", algo, l, r)``."""
    return [
        TrialSpec(
            runner="repro.harness.workload_sweep:run_collective_point",
            params=dict(
                algorithm=algorithm,
                n_dead_links=links,
                n_dead_routers=routers,
                **kwargs
            ),
            seed=derive_seed(seed, "wl-coll", algorithm, links, routers),
            label="{} faults={}+{}".format(algorithm, links, routers),
        )
        for links, routers in fault_levels
    ]


def service_trial_specs(rates=DEFAULT_SERVICE_RATES, seed=0, **kwargs):
    """One spec per offered load; seed path ``("wl-svc", rate)``."""
    return [
        TrialSpec(
            runner="repro.harness.workload_sweep:run_service_point",
            params=dict(rate=rate, **kwargs),
            seed=derive_seed(seed, "wl-svc", rate),
            label="rate={}".format(rate),
        )
        for rate in rates
    ]


def workload_slo_failures(results, slo):
    """Every SLO violation across a service sweep's results.

    Collective results gate too: an ``incomplete`` collective (a
    deadlocked DAG or exhausted cycle budget) always fails, and
    ``slo["collective_cycles"]`` bounds total completion time.
    """
    failures = []
    for result in results:
        if hasattr(result, "latency_percentile"):
            failures.extend(service_slo_failures(result, slo))
        else:
            if result.incomplete:
                failures.append(
                    "{}: collective incomplete ({}/{} ops)".format(
                        result.label, result.completed_ops, result.n_ops
                    )
                )
            bound = slo.get("collective_cycles")
            if (
                bound is not None
                and result.total_cycles is not None
                and result.total_cycles > bound
            ):
                failures.append(
                    "{}: collective took {} cycles, bound {}".format(
                        result.label, result.total_cycles, bound
                    )
                )
    return failures
