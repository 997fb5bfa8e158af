"""The workload families both equivalence proofs run: one table.

:mod:`repro.verify.backend_diff` (backend A == backend B) and
:mod:`repro.verify.resume_diff` (restored == uninterrupted) are loops
over :data:`FAMILIES`.  A row says four things about one family of
seeded workloads, and nothing about either proof:

``start(seed, backend)``
    The run's *state* with nothing run yet: ``(network, riders)``, the
    network built on ``backend`` with its workload attached, and the
    picklable objects a snapshot must carry beside it (``riders``
    becomes ``snapshot_network(..., extras=riders)`` and comes back as
    ``restored.extras``).
``finish(state)``
    Drive the run from wherever it is to the family's end, in several
    ``run()`` calls where the end is a fixed cycle (run boundaries are
    where the events engine steps instead of jumping, so they are under test
    too), and return the state to fingerprint.
``fingerprint(state)``
    Everything observable about the run *so far*, as plain data:
    always :func:`~repro.endpoint.messages.message_fingerprint` of the
    log (eleven fields per finished message, receiver arrivals,
    delivery and checksum counts, attempt-failure tallies), plus what
    the row's docstring lists.  The engine cycle is held only where an
    interrupted run ends on the same cycle as a straight one.
``split(rng)``
    The cycle at which resume-diff snapshots the run; None for a
    family that does not split through ``snapshot_network``.

====================  ================================================
family                row
====================  ================================================
``scenario``          :class:`ScenarioFamily`
``traffic``           :class:`TrafficFamily`
``faults``            :class:`TrafficFamily` ``(with_faults=True)``
``chaos``             :class:`ChaosFamily`
``collective``        :class:`CollectiveFamily`
``service``           :class:`ServiceFamily`
====================  ================================================

``docs/testing.md`` holds the same table with the seeded bug each
proof is shown to catch on it.
"""

import random

from repro.core.random_source import derive_seed
from repro.endpoint.messages import message_fingerprint
from repro.endpoint.traffic import (
    HotspotTraffic,
    PermutationTraffic,
    UniformRandomTraffic,
)
from repro.faults.injector import (
    FaultInjector,
    random_fault_scenario,
    random_transient_scenario,
)
from repro.harness.chaos import run_chaos_point
from repro.harness.load_sweep import figure1_network
from repro.harness.workload_sweep import ALGORITHMS, build_schedule
from repro.telemetry import TelemetryHub
from repro.verify.scenario import finish_scenario, random_scenario
from repro.workloads.collective import CollectiveWorkload, finish_collective
from repro.workloads.service import RequestResponseWorkload, stop_arrivals


def _rng(seed, kind):
    """The family's own stream.  The ``backend-diff`` label predates
    the table; keeping it keeps every pre-table trial's workload."""
    return random.Random(derive_seed(seed, "backend-diff", kind))


def _run_to(network, end):
    """Run to cycle ``end`` in three ``run()`` calls.  A run resumed
    mid-way gets different boundaries than a straight one, on purpose:
    run boundaries must be transparent."""
    remaining = end - network.engine.cycle
    span = max(1, remaining // 3)
    while remaining > 0:
        network.run(min(span, remaining))
        remaining -= span


class ScenarioFamily:
    """A :func:`~repro.verify.scenario.random_scenario` (random
    topology, radix, dilation, datapath, link delay, 1-4 messages) under
    the conformance oracle, run until quiet; this is
    :meth:`Scenario.run <repro.verify.scenario.Scenario.run>` in two
    halves.  Riders: the oracle and the submitted messages.

    Fingerprint: + ``quiet``, oracle ``violations``, and ``sent``
    (start/done cycle, attempts, outcome of every submitted message in
    plan order, so in-flight progress counts at a capture point).  No
    engine cycle: a straight run stops at the first quiet cycle, a
    resume whose split lands after quiescence legitimately ends later;
    everything held is stamped at the event.

    Split: a small random cycle, which lands mid-flight (words in
    channel pipelines, circuits locked, retries pending)."""

    def start(self, seed, backend):
        rng = _rng(seed, "scenario")
        scenario = random_scenario(
            seed=rng.getrandbits(24), n_messages=rng.randrange(1, 5)
        )
        network, oracle, sent = scenario.start(backend)
        return network, {"oracle": oracle, "sent": sent}

    def finish(self, state):
        finish_scenario(state[0], state[1]["oracle"])
        return state

    def fingerprint(self, state):
        network, riders = state
        fingerprint = message_fingerprint(network.log)
        fingerprint["quiet"] = network.run_until_quiet(max_cycles=0)
        fingerprint["violations"] = [
            (v.cycle, v.router, v.port, v.rule, v.detail)
            for v in riders["oracle"].violations
        ]
        fingerprint["sent"] = [
            (m.start_cycle, m.done_cycle, m.attempts, m.outcome)
            for m in riders["sent"]
        ]
        return fingerprint

    def split(self, rng):
        return rng.randrange(3, 25)


def _traffic_for(rng, network, seed):
    """A seeded traffic source: uniform, hotspot or permutation."""
    n = network.plan.n_endpoints
    w = network.codec.w
    words = rng.choice((4, 12, 20))
    rate = rng.choice((0.01, 0.02, 0.05))
    kind = rng.randrange(3)
    if kind == 0:
        return UniformRandomTraffic(n, w, rate=rate, message_words=words, seed=seed)
    if kind == 1:
        return HotspotTraffic(
            n,
            w,
            rate=rate,
            hotspot=rng.randrange(n),
            fraction=rng.choice((0.1, 0.3)),
            message_words=words,
            seed=seed,
        )
    return PermutationTraffic(
        n,
        w,
        rate=rate,
        permutation=rng.choice(("bit-reverse", "shift")),
        message_words=words,
        seed=seed,
    )


class TrafficFamily:
    """A Figure 1 network under seeded open-ended traffic (uniform,
    hotspot or permutation, chosen by the seed) with a metrics-only
    telemetry hub bound, run for :attr:`CYCLES` cycles.  With
    ``with_faults`` (the ``faults`` family) a fault injector carries
    static dead links/routers, scheduled mid-run faults with reverts,
    and transient (duty-cycled) faults.  Riders: the hub and the
    injector (None without faults).

    Fingerprint: + engine ``cycle``, the hub's ``metrics`` snapshot,
    and the injector's ``applied`` fault transitions.

    Split: the midpoint."""

    CYCLES = 2400

    def __init__(self, with_faults=False):
        self.with_faults = with_faults

    def start(self, seed, backend):
        cycles = self.CYCLES
        rng = _rng(seed, "traffic")
        build_seed = rng.getrandbits(24)
        traffic_seed = rng.getrandbits(24)
        telemetry = TelemetryHub(spans=False)
        network = figure1_network(
            seed=build_seed, telemetry=telemetry, backend=backend
        )
        traffic = _traffic_for(rng, network, traffic_seed)
        injector = None
        if self.with_faults:
            injector = FaultInjector(network)
            fault_seed = rng.getrandbits(24)
            static = random_fault_scenario(
                network,
                n_dead_links=rng.randrange(0, 3),
                n_dead_routers=rng.randrange(0, 2),
                seed=fault_seed,
                exclude_final_stage=True,
            )
            # A mix of immediate, scheduled and scheduled-then-reverted
            # faults exercises every injector entry point.
            for index, fault in enumerate(static):
                if index % 2 == 0:
                    injector.now(fault)
                else:
                    strike = rng.randrange(cycles // 4, cycles // 2)
                    injector.at(strike, fault)
                    if rng.random() < 0.5:
                        injector.revert_at(
                            strike + rng.randrange(50, cycles // 4), fault
                        )
            for fault in random_transient_scenario(
                network,
                n_flaky_links=rng.randrange(1, 3),
                mtbf=rng.choice((300, 600)),
                mttr=rng.choice((80, 150)),
                seed=fault_seed + 1,
                start=rng.randrange(0, cycles // 4),
            ):
                injector.transient(fault)
        traffic.attach(network)
        return network, {"telemetry": telemetry, "injector": injector}

    def finish(self, state):
        _run_to(state[0], self.CYCLES)
        return state

    def fingerprint(self, state):
        network, riders = state
        fingerprint = message_fingerprint(network.log)
        fingerprint["cycle"] = network.engine.cycle
        fingerprint["metrics"] = riders["telemetry"].snapshot().as_dict()
        if riders["injector"] is not None:
            fingerprint["applied"] = [
                (entry.cycle, entry.fault.describe(), entry.scheduled, entry.action)
                for entry in riders["injector"].applied
            ]
        return fingerprint

    def split(self, rng):
        return self.CYCLES // 2


class ChaosFamily:
    """A full :func:`~repro.harness.chaos.run_chaos_point` soak with
    self-healing on.  ``run_chaos_point`` owns its loop, so the state
    is its keyword arguments before ``finish`` and the
    :class:`~repro.harness.chaos.ChaosResult` after.

    Fingerprint: the result's nine verdict fields (per-window rows,
    availability, undeliverable, attempt failures, fault / mask /
    repair events, evidence count, oracle violations).

    Split: None.  Resume-diff keeps a leg of its own for this family:
    a soak resumes by being run again on its snapshot ring, and that
    re-run *is* the claim."""

    split = None

    def start(self, seed, backend):
        return dict(
            seed=derive_seed(seed, "backend-diff", "chaos"),
            n_windows=10,
            window_cycles=300,
            warmup_windows=3,
            backend=backend,
        )

    def finish(self, state):
        return run_chaos_point(**state)

    def fingerprint(self, state):
        return {
            "windows": list(state.windows),
            "availability": state.availability,
            "undeliverable": state.undeliverable,
            "attempt_failures": dict(state.attempt_failures),
            "fault_events": list(state.fault_events),
            "mask_events": list(state.mask_events),
            "repairs": list(state.repairs),
            "evidence_count": state.evidence_count,
            "oracle_violations": state.oracle_violations,
        }


class CollectiveFamily:
    """One of the four collective schedules (ring, recursive-doubling,
    all-to-all, pipeline; chosen by the seed) on a Figure 1 network,
    driven by :func:`~repro.workloads.collective.finish_collective`
    until the DAG completes.  Dependency release submits work from the
    observer tick, outside any component's own.  Rider: the workload
    (its live DAG state is shared with the sources and the observer
    inside the network).

    Fingerprint: + the per-step ``steps`` rows (ops, first release,
    completion, skew).  No engine cycle: the drive loop runs in fixed
    slices from wherever it starts, so the cycle it notices completion
    on depends on the split.

    Split: one of :attr:`SPLITS`, mid-DAG for every algorithm (the
    shortest, recursive doubling, needs about 160 cycles)."""

    SPLITS = range(40, 120)

    def start(self, seed, backend):
        rng = _rng(seed, "collective")
        network = figure1_network(seed=rng.getrandbits(24), backend=backend)
        schedule = build_schedule(
            rng.choice(ALGORITHMS),
            network.plan.n_endpoints,
            words=rng.choice((6, 12)),
        )
        workload = CollectiveWorkload(
            schedule, w=network.codec.w, seed=rng.getrandbits(24)
        )
        return network, {"workload": workload.attach(network)}

    def finish(self, state):
        finish_collective(state[0], state[1]["workload"])
        return state

    def fingerprint(self, state):
        network, riders = state
        fingerprint = message_fingerprint(network.log)
        fingerprint["steps"] = riders["workload"].result(network).steps
        return fingerprint

    def split(self, rng):
        return rng.choice(self.SPLITS)


class ServiceFamily:
    """An open-loop request/response soak on a Figure 1 network: two
    Poisson clients per client endpoint against one server, arrivals
    stopped at cycle :attr:`END`, then drained until quiet.  Arrivals
    are due at cycles the sources name, not at a component's tick.  No
    riders: sources and reply handlers live on the endpoints.

    Fingerprint: + engine ``cycle`` (the drain starts at :attr:`END`
    on every leg, so it ends on the same cycle).

    Split: a cycle inside the arrival window."""

    END = 2400

    def start(self, seed, backend):
        rng = _rng(seed, "service")
        network = figure1_network(
            seed=rng.getrandbits(24),
            backend=backend,
            endpoint_kwargs={"max_outstanding": 2},
        )
        RequestResponseWorkload(
            n_endpoints=network.plan.n_endpoints,
            w=network.codec.w,
            clients=2,
            rate=rng.choice((0.001, 0.002)),
            service_time=(0, 8),
            seed=rng.getrandbits(24),
        ).attach(network)
        return network, {}

    def finish(self, state):
        network = state[0]
        _run_to(network, self.END)
        stop_arrivals(network, self.END)
        network.run_until_quiet(max_cycles=4 * self.END)
        return state

    def fingerprint(self, state):
        fingerprint = message_fingerprint(state[0].log)
        fingerprint["cycle"] = state[0].engine.cycle
        return fingerprint

    def split(self, rng):
        return rng.randrange(self.END // 4, 3 * self.END // 4)


#: The table, in sweep order (trial ``index`` runs kind ``index %
#: len(FAMILIES)``).  New rows go at the end, so the first trials of a
#: sweep keep their kinds: the pinned ``--trials 4`` CLI fixtures run
#: the first four.
FAMILIES = {
    "scenario": ScenarioFamily(),
    "traffic": TrafficFamily(),
    "faults": TrafficFamily(with_faults=True),
    "chaos": ChaosFamily(),
    "collective": CollectiveFamily(),
    "service": ServiceFamily(),
}


def family(kind):
    """The row named ``kind``; ValueError names the choices."""
    try:
        return FAMILIES[kind]
    except KeyError:
        raise ValueError(
            "unknown workload family {!r} (choices: {})".format(
                kind, ", ".join(FAMILIES)
            )
        )


def run_family(kind, seed, backend):
    """The fingerprint of one uninterrupted seeded run on ``backend``."""
    row = family(kind)
    return row.fingerprint(row.finish(row.start(seed, backend)))
