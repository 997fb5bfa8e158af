"""Scheduled fault injection into a live network simulation."""

import logging
import random
from collections import namedtuple

from repro.faults.model import DeadLink, DeadRouter, FlakyLink, FlakyRouter
from repro.sim.component import BackReference

log = logging.getLogger("repro.faults")

#: One entry of :attr:`FaultInjector.applied`.  Tuple-compatible with
#: the historical ``(cycle, fault)`` pairs — ``entry[0]`` is the cycle
#: the action actually took effect, ``entry[1]`` the fault — plus the
#: originally requested cycle (``scheduled``; equals ``cycle`` unless
#: the fault was registered late) and the ``action`` taken
#: ("apply"/"revert").
AppliedFault = namedtuple("AppliedFault", ["cycle", "fault", "scheduled", "action"])


class FaultInjector:
    """Applies faults to a network at scheduled cycles.

    Attach one injector per :class:`~repro.network.builder.MetroNetwork`;
    it registers a pre-cycle hook with the engine so faults strike
    between clock edges, exactly like hardware dying mid-operation.

    ::

        injector = FaultInjector(network)
        injector.at(100, DeadRouter(1, 0, 2))
        injector.at(500, DeadLink(src_key, dst_key))
        injector.transient(FlakyLink(src_key, dst_key, mtbf=600, mttr=150))
        network.run(...)

    The hook is the engine's, so the injector holds its network weakly
    (:class:`~repro.sim.component.BackReference`): dropping the
    network frees it at once.
    """

    def __init__(self, network):
        self._network = BackReference(network)
        self._scheduled = []  # (cycle, fault, action)
        self._transients = []
        self.applied = []     # AppliedFault history
        network.engine.add_pre_cycle_hook(self._hook)

    @property
    def network(self):
        """The network faults strike, or None once it has been dropped."""
        return self._network()

    def at(self, cycle, fault):
        """Apply ``fault`` just before the given cycle."""
        self._scheduled.append((cycle, fault, "apply"))
        return fault

    def revert_at(self, cycle, fault):
        """Undo ``fault`` just before the given cycle (transients)."""
        self._scheduled.append((cycle, fault, "revert"))
        return fault

    def now(self, fault):
        """Apply ``fault`` immediately (static, pre-run faults)."""
        fault.apply(self.network)
        cycle = self.network.engine.cycle
        self.applied.append(AppliedFault(cycle, fault, cycle, "apply"))
        return fault

    def transient(self, fault):
        """Register a :class:`~repro.faults.model.TransientFault`.

        The fault's duty cycle is polled every engine cycle; each
        apply/revert transition it takes is recorded in
        :attr:`applied`.
        """
        self._transients.append(fault)
        return fault

    def _hook(self, engine):
        network = self._network()
        due = [entry for entry in self._scheduled if entry[0] <= engine.cycle]
        for entry in due:
            self._scheduled.remove(entry)
            scheduled, fault, action = entry
            if scheduled < engine.cycle:
                log.warning(
                    "fault %s scheduled for cycle %d applied late at cycle %d",
                    fault.describe(),
                    scheduled,
                    engine.cycle,
                )
            if action == "apply":
                fault.apply(network)
            else:
                fault.revert(network)
            self.applied.append(
                AppliedFault(engine.cycle, fault, scheduled, action)
            )
        for fault in self._transients:
            for action, cycle in fault.poll(engine.cycle, network):
                self.applied.append(AppliedFault(cycle, fault, cycle, action))

    def pending(self):
        return list(self._scheduled)


def router_to_router_channels(network):
    """Channel keys of every inter-router wire (endpoint wires excluded)."""
    keys = []
    for (src_key, dst_key), _channel in network.channels.items():
        if src_key[0] == "router" and dst_key[0] == "router":
            keys.append((src_key, dst_key))
    return keys


def random_fault_scenario(
    network, n_dead_links=0, n_dead_routers=0, seed=0, exclude_final_stage=False
):
    """A reproducible random set of static faults.

    Dead links are drawn from inter-router wires only (killing an
    endpoint's wire trivially disconnects it, which measures nothing
    about the network).  Dead routers may exclude the final stage —
    losing a dilation-1 final router is survivable for topology but
    removing several can cut every wire into some endpoint.
    """
    rng = random.Random(seed)
    faults = []
    link_pool = router_to_router_channels(network)
    rng.shuffle(link_pool)
    for src_key, dst_key in link_pool[:n_dead_links]:
        faults.append(DeadLink(src_key=src_key, dst_key=dst_key))
    router_pool = []
    last = network.plan.n_stages - 1
    for (stage, block, index) in network.router_grid:
        if exclude_final_stage and stage == last:
            continue
        router_pool.append((stage, block, index))
    rng.shuffle(router_pool)
    for stage, block, index in router_pool[:n_dead_routers]:
        faults.append(DeadRouter(stage, block, index))
    return faults


def random_transient_scenario(
    network,
    n_flaky_links=0,
    n_flaky_routers=0,
    mtbf=600,
    mttr=150,
    seed=0,
    start=0,
):
    """A reproducible random set of transient (duty-cycled) faults.

    Flaky links are drawn from inter-router wires; flaky routers from
    the middle stages (never the final stage, same rationale as
    :func:`random_fault_scenario` — nor stage-0 routers,
    whose source ports endpoints attach to directly, so masking can
    never heal them).  Each fault gets its own RNG stream derived from
    ``seed`` so the set is a pure function of its arguments.  Register
    the returned faults with ``injector.transient(...)``.
    """
    rng = random.Random(seed)
    faults = []
    link_pool = router_to_router_channels(network)
    rng.shuffle(link_pool)
    for src_key, dst_key in link_pool[:n_flaky_links]:
        faults.append(
            FlakyLink(
                src_key=src_key,
                dst_key=dst_key,
                mtbf=mtbf,
                mttr=mttr,
                seed=rng.getrandbits(32),
                start=start,
            )
        )
    router_pool = []
    last = network.plan.n_stages - 1
    for (stage, block, index) in network.router_grid:
        if 0 < stage < last:
            router_pool.append((stage, block, index))
    rng.shuffle(router_pool)
    for stage, block, index in router_pool[:n_flaky_routers]:
        faults.append(
            FlakyRouter(
                stage,
                block,
                index,
                mtbf=mtbf,
                mttr=mttr,
                seed=rng.getrandbits(32),
                start=start,
            )
        )
    return faults
