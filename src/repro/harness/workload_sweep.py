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

from repro.harness.fault_sweep import _apply_fault_level
from repro.harness.load_sweep import (
    build_point_network,
    figure1_network,
    figure3_network,
)
from repro.workloads.collective import (
    CollectiveSchedule,
    CollectiveWorkload,
    ModelShape,
    finish_collective,
)
from repro.workloads.service import (
    RequestResponseWorkload,
    finish_service,
    service_slo_failures,
)

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
    """One collective execution, optionally on a degraded network:
    :func:`finish_collective_point` of :func:`start_collective_point`.

    Faults are injected *before* the workload starts (static
    degradation, the Figure-6 discipline): the collective then runs on
    whatever paths survive, and the per-step report shows where the
    critical path stretched.  Importable by name
    (``repro.harness.workload_sweep:run_collective_point``) so trial
    specs stay picklable.
    """
    return finish_collective_point(start_collective_point(**locals()))


def start_collective_point(seed, algorithm, words, layers, microbatches,
                           network, n_dead_links, n_dead_routers, backend,
                           metrics, max_cycles):
    """The start half of :func:`run_collective_point` (same parameters,
    no defaults): ``(network, riders)`` with the fault level applied and
    the workload attached.  Riders: the ``workload`` (its live DAG
    state is shared with the sources and the observer inside the
    network), the hub or None, the label and the cycle budget."""
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
    return net, dict(
        workload=workload.attach(net), telemetry=telemetry,
        label="{} faults={}+{}".format(algorithm, n_dead_links, n_dead_routers),
        max_cycles=max_cycles,
    )


def finish_collective_point(state):
    """The finish half of :func:`run_collective_point`: the DAG driven
    to completion (:func:`~repro.workloads.collective.finish_collective`)
    from wherever the network is."""
    net, riders = state
    result = finish_collective(
        net, riders["workload"], max_cycles=riders["max_cycles"],
        label=riders["label"],
    )
    if riders["telemetry"] is not None:
        result.metrics = riders["telemetry"].snapshot()
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
    """One request/response soak at one offered load:
    :func:`finish_service_point` of :func:`start_service_point`."""
    return finish_service_point(start_service_point(**locals()))


def start_service_point(rate, seed, network, servers, clients, burst_prob,
                        burst_size, request_words, reply_words, service_time,
                        warmup_cycles, measure_cycles, max_outstanding,
                        backend, metrics):
    """The start half of :func:`run_service_point` (same parameters, no
    defaults): ``(network, riders)`` with the service attached.  Riders:
    the ``workload``, the hub or None, the window and the label."""
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
    return net, dict(
        workload=workload.attach(net), telemetry=telemetry,
        warmup_cycles=warmup_cycles, measure_cycles=measure_cycles,
        label="rate={}".format(rate),
    )


def finish_service_point(state):
    """The finish half of :func:`run_service_point`: the window driven
    and scored (:func:`~repro.workloads.service.finish_service`) from
    wherever the network is."""
    net, riders = state
    result = finish_service(
        net, riders["workload"], riders["warmup_cycles"],
        riders["measure_cycles"], riders["label"],
    )
    if riders["telemetry"] is not None:
        result.metrics = riders["telemetry"].snapshot()
    return result


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
