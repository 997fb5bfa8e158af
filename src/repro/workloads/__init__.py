"""Application workloads over the METRO fabric.

Everything the simulator routed before this package was synthetic —
Bernoulli coin flips, permutations, traces.  Real systems put two very
different kinds of traffic on a multipath network, and both live here:

:mod:`repro.workloads.collective`
    ML collectives as dependency DAGs: ring / recursive-doubling
    all-reduce, all-to-all and pipeline-parallel schedules where each
    operation waits on the *delivery* of its predecessors' messages
    (not on wall-clock cycles), driven by a model-shaped step schedule
    (layer sizes -> message sizes -> per-step traffic).

:mod:`repro.workloads.service`
    Closed-loop datacenter services: open-loop Poisson or bursty
    request arrivals multiplexed over many simulated clients per
    endpoint, request/response service times at the servers, and
    p50/p95/p99/p999 SLO accounting over per-request latencies.

Both plug into the existing machinery unchanged: workloads are
:class:`~repro.endpoint.traffic.TrafficSource`-compatible drivers plus
(for collectives) a lightweight engine observer that watches
message-log deliveries to release DAG successors.  They run on both
engine backends, pickle for the parallel
:class:`~repro.harness.parallel.TrialRunner` and for engine
snapshot/restore, and sweep through
:mod:`repro.harness.workload_sweep`.  See ``docs/workloads.md``.
"""

from repro.workloads.collective import (
    CollectiveOp,
    CollectiveResult,
    CollectiveSchedule,
    CollectiveWorkload,
    ModelShape,
    finish_collective,
    run_collective,
)
from repro.workloads.service import (
    RequestResponseWorkload,
    ServiceResult,
    run_service,
    service_slo_failures,
)

__all__ = [
    "CollectiveOp",
    "CollectiveResult",
    "CollectiveSchedule",
    "CollectiveWorkload",
    "ModelShape",
    "RequestResponseWorkload",
    "ServiceResult",
    "finish_collective",
    "run_collective",
    "run_service",
    "service_slo_failures",
]
