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
    Drive the run from wherever it is to the family's end and return
    the state to fingerprint.  The run takes several ``run()`` calls,
    whose boundaries differ between a straight and a resumed leg (a
    restore marks every wire live until its first advance, so the
    boundaries are under test too).
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

A workload kind a sweep runs is described once, by its row of the
sweep table (:data:`repro.harness.sweeps.SWEEPS`): its family is a
:class:`PointFamily`, a seeded draw of that row's runner's parameters
on the runner's own start and finish halves, which the row names, so
the proofs run what ``repro figure3``, ``faults`` and ``workloads``
run.  Only ``scenario`` and ``chaos`` keep rows of their own (the
chaos row runs the ``chaos`` sweep's runner).

==============  ==============================  ==========================
family          row                             draws
==============  ==============================  ==========================
``scenario``    :class:`ScenarioFamily`         topology, plan, messages
``traffic``     ``run_load_point``, Figure 1,   rate, message words;
                metrics hub                     window 400 + 2000
``faults``      ``run_fault_point``, Figure 1,  ``traffic``'s, plus dead
                metrics hub                     links 0-2, routers 0-1,
                                                retry budget 6 or none
``chaos``       :class:`ChaosFamily`            (fixed soak)
``collective``  ``run_collective_point``,       algorithm, words 6 or 12
                Figure 1
``service``     ``run_service_point``,          per-client rate; 2
                Figure 1                        clients, window 400 + 2000
``figure3``     ``run_load_point``,             rate 0.002 to 0.02 (the
                Figure 3                        knee); window 200 + 600
==============  ==============================  ==========================

Every draw also draws the runner's ``seed``.  ``docs/testing.md``
holds the same table with the seeded bug each proof is shown to catch
on it.
"""

import inspect
import random

from repro.core.random_source import derive_seed
from repro.endpoint.messages import message_fingerprint
from repro.harness.load_sweep import figure1_network
from repro.harness.spec import resolve
from repro.harness.sweeps import SWEEPS
from repro.harness.workload_sweep import ALGORITHMS
from repro.verify.scenario import finish_scenario, random_scenario


def _rng(seed, kind):
    """The family's own stream.  The ``backend-diff`` label predates
    the table; keeping it keeps every pre-table trial's workload."""
    return random.Random(derive_seed(seed, "backend-diff", kind))


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


class PointFamily:
    """The point runner of the sweep table's row ``sweep`` on seeded
    parameters.

    ``draw(rng)`` picks a few of the :attr:`runner`'s parameters (the
    rest keep the runner's defaults); :meth:`params` is that draw for
    one seed and backend, so ``runner(**row.params(seed, backend))`` is
    the trial a sweep would run.  ``start`` is the runner's start half
    on those parameters (the network built, the workload attached,
    nothing run; its riders are what the finish half reads) and
    ``finish`` its finish half, whose result rides along as the state's
    third item; the sweep row names both halves.

    Fingerprint: + whatever ``extras(network, riders)`` adds.  Split: a
    cycle drawn from :attr:`splits`."""

    def __init__(self, kind, sweep, draw, extras, splits):
        row = SWEEPS[sweep]
        self.kind, self.sweep, self.draw = kind, sweep, draw
        self.runner = resolve(row.runner)
        self._start, self._finish = (resolve(half) for half in row.halves)
        self._extras, self.splits = extras, splits

    def params(self, seed, backend):
        return dict(self.draw(_rng(seed, self.kind)), backend=backend)

    def start(self, seed, backend):
        bound = inspect.signature(self.runner).bind(**self.params(seed, backend))
        bound.apply_defaults()
        return self._start(**bound.arguments)

    def finish(self, state):
        return state[0], state[1], self._finish(state[:2])

    def fingerprint(self, state):
        network, riders = state[:2]
        fingerprint = message_fingerprint(network.log)
        fingerprint.update(self._extras(network, riders))
        return fingerprint

    def split(self, rng):
        return rng.choice(self.splits)


def _window(network, riders):
    """A measured window's extras: engine ``cycle`` (the drain starts at
    the window's end on every leg, so it ends on the same cycle), the
    hub's ``metrics`` snapshot when the point binds one, and the fault
    injector's ``applied`` transitions when it has one."""
    extras = {"cycle": network.engine.cycle}
    if riders["telemetry"] is not None:
        extras["metrics"] = riders["telemetry"].snapshot().as_dict()
    if riders.get("injector") is not None:
        extras["applied"] = [
            (entry.cycle, entry.fault.describe(), entry.scheduled, entry.action)
            for entry in riders["injector"].applied
        ]
    return extras


def _steps(network, riders):
    """A collective's per-step rows.  No engine cycle: the drive loop
    runs in fixed slices from wherever it starts, so the cycle it
    notices completion on depends on the split."""
    return {"steps": riders["workload"].result(network).steps}


def _load(rng):
    return dict(
        rate=rng.choice((0.01, 0.02, 0.05)),
        seed=rng.getrandbits(24),
        message_words=rng.choice((4, 12, 20)),
        warmup_cycles=400,
        measure_cycles=2000,
        network_factory=figure1_network,
        metrics=True,
    )


def _faults(rng):
    return dict(
        _load(rng),
        n_dead_links=rng.randrange(0, 3),
        n_dead_routers=rng.randrange(0, 2),
        max_attempts=rng.choice((None, 6)),
    )


def _collective(rng):
    return dict(
        seed=rng.getrandbits(24),
        algorithm=rng.choice(ALGORITHMS),
        words=rng.choice((6, 12)),
    )


def _service(rng):
    return dict(
        rate=rng.choice((0.001, 0.002)),
        seed=rng.getrandbits(24),
        clients=2,
        service_time=(0, 8),
        warmup_cycles=400,
        measure_cycles=2000,
    )


def _figure3(rng):
    return dict(
        rate=rng.choice((0.002, 0.005, 0.02)),
        seed=rng.getrandbits(24),
        warmup_cycles=200,
        measure_cycles=600,
    )


class ChaosFamily:
    """A full soak of the ``chaos`` sweep's runner
    (:func:`~repro.harness.chaos.run_chaos_point`) with self-healing
    on.  ``run_chaos_point`` owns its loop, so the state
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
        return resolve(SWEEPS["chaos"].runner)(**state)

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



#: The table, in sweep order (trial ``index`` runs kind ``index %
#: len(FAMILIES)``).  New rows go at the end, so the first trials of a
#: sweep keep their kinds: the pinned ``--trials 4`` CLI fixtures run
#: the first four.
FAMILIES = {
    "scenario": ScenarioFamily(),
    "traffic": PointFamily(
        "traffic", "load", _load, _window, range(1200, 1201)
    ),
    "faults": PointFamily(
        "faults", "fault", _faults, _window, range(1200, 1201)
    ),
    "chaos": ChaosFamily(),
    "collective": PointFamily(
        "collective", "collective", _collective, _steps, range(40, 120)
    ),
    "service": PointFamily(
        "service", "service", _service, _window, range(600, 1800)
    ),
    "figure3": PointFamily(
        "figure3", "load", _figure3, _window, range(200, 800)
    ),
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
