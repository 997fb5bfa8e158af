"""Fault descriptors.

The METRO fault story (paper, Sections 1, 4, 5.1) distinguishes:

* **static faults** — present before operation; masked by disabling the
  faulty ports under scan control so they can no longer corrupt
  traffic;
* **dynamic faults** — appearing while the network runs; the source
  detects the damaged connection (missing/blocked status, bad
  checksum, silence) and retries, and random output selection steers
  the retry around the fault;
* **transient faults** — dynamic faults that come and go: a marginal
  wire or an overheating part alternates between healthy and failed.
  :class:`TransientFault` models the duty cycle with seeded
  exponential up/down times (MTBF/MTTR) and optional failure bursts.

Each descriptor here knows how to ``apply`` itself to a live
:class:`~repro.network.builder.MetroNetwork` (and, where meaningful,
``revert``).  Scheduling is the injector's job.

Every fault is picklable *by construction*: descriptors store only
plain data (keys, seeds, parameters) and derive any resolved channel
lazily, so fault scenarios can ride a
:class:`~repro.harness.parallel.TrialSpec` into worker processes.
Live RNG and duty-cycle state *does* ride along — a pickled
mid-outage :class:`TransientFault` resumes with exactly the remaining
schedule, which is what engine snapshots (:mod:`repro.sim.snapshot`)
rely on.  A fresh descriptor has no RNG yet, so the worker-process
path is unchanged.
"""

import random

from repro.core import words as W

LINK_DEAD = "link-dead"
LINK_CORRUPT = "link-corrupt"
LINK_FLAKY = "link-flaky"
ROUTER_DEAD = "router-dead"
ROUTER_FLAKY = "router-flaky"
PORT_DISABLED = "port-disabled"


class Fault:
    """Base class; subclasses define apply/revert."""

    kind = "fault"

    def apply(self, network):
        raise NotImplementedError

    def revert(self, network):
        raise NotImplementedError("{} cannot be reverted".format(self.kind))

    def describe(self):
        return self.kind


class _LinkFault(Fault):
    """Shared plumbing for faults that target one wire.

    Stores the wire's ``(src_key, dst_key)`` and resolves the live
    channel lazily against the network it is applied to.  The resolved
    channel is a cache only: pickling drops it (when keys are present)
    so a used fault never drags a live network into worker processes.
    """

    def __init__(self, src_key, dst_key):
        self.src_key = src_key
        self.dst_key = dst_key
        self.channel = None

    def _resolve(self, network):
        if self.channel is None:
            self.channel = network.channels[(self.src_key, self.dst_key)]
        return self.channel

    def _channel_name(self):
        if self.channel is not None:
            return self.channel.name
        name = self.__dict__.get("_name_cache")
        if name is not None:
            return name
        return "{}->{}".format(self.src_key, self.dst_key)

    def __getstate__(self):
        state = dict(self.__dict__)
        # Keep the human-readable wire name: describe() must render
        # identically before and after a snapshot round-trip even
        # while the channel cache is unresolved.
        if state.get("channel") is not None:
            state["_name_cache"] = state["channel"].name
        state["channel"] = None
        return state


class DeadLink(_LinkFault):
    """A wire that stops conducting in both directions.

    :param src_key: producing port key (``NodeRef.key()``).
    :param dst_key: consuming port key.
    """

    kind = LINK_DEAD

    def apply(self, network):
        channel = self._resolve(network)
        channel.dead = True
        network.engine.wake(channel)

    def revert(self, network):
        channel = self._resolve(network)
        channel.dead = False
        network.engine.wake(channel)

    def describe(self):
        return "{}({})".format(self.kind, self._channel_name())


class CorruptLink(_LinkFault):
    """A noisy wire: data words are bit-flipped with some probability.

    Control tokens are carried out-of-band in this simulation, so
    corruption targets data word values — the payload/header bits a
    real line error would hit.  Per-router checksums (STATUS) localize
    the corruption; the destination's end-to-end checksum catches it.
    Words travelling from the wire's ``a`` side to its ``b`` side (the
    forward direction of a connection) are the ones damaged.

    :param probability: chance each traversing data word is damaged.
    :param mask: XOR pattern applied to a damaged word (default flips
        the low bit).
    :param seed: noise randomness; the RNG is derived lazily from the
        stored seed so the descriptor stays picklable.
    """

    kind = LINK_CORRUPT

    def __init__(self, src_key, dst_key, probability=1.0, mask=0x1, seed=0):
        super().__init__(src_key, dst_key)
        self.probability = probability
        self.mask = mask
        self.seed = seed
        self._rng_obj = None

    @property
    def _rng(self):
        if self._rng_obj is None:
            self._rng_obj = random.Random(self.seed)
        return self._rng_obj

    def _corrupt(self, word):
        if word.kind != W.DATA:
            return word
        if self._rng.random() >= self.probability:
            return word
        return W.data(word.value ^ self.mask)

    def apply(self, network):
        channel = self._resolve(network)
        channel.fault_a_to_b = self._corrupt
        network.engine.wake(channel)

    def revert(self, network):
        channel = self._resolve(network)
        channel.fault_a_to_b = None
        network.engine.wake(channel)

    def describe(self):
        return "{}({}, p={})".format(
            self.kind, self._channel_name(), self.probability
        )


class DeadRouter(Fault):
    """A routing component that fails completely (goes silent)."""

    kind = ROUTER_DEAD

    def __init__(self, stage, block, index):
        self.stage = stage
        self.block = block
        self.index = index

    def _router(self, network):
        return network.router_grid[(self.stage, self.block, self.index)]

    def apply(self, network):
        router = self._router(network)
        router.dead = True
        network.engine.wake(router)

    def revert(self, network):
        # Waking is mandatory here: the revived router may hold frozen
        # mid-connection state (watchdogs, drains) that an event-driven
        # backend would otherwise never re-schedule.
        router = self._router(network)
        router.dead = False
        network.engine.wake(router)

    def describe(self):
        return "{}(r{}.{}.{})".format(self.kind, self.stage, self.block, self.index)


class DisabledPort(Fault):
    """A port removed from service (the scan-control masking action).

    Not a fault per se but the *repair* for one: once a faulty region
    is localized, disabling the ports that touch it masks the fault so
    it can no longer corrupt traffic (Section 5.1, Scan Support).
    """

    kind = PORT_DISABLED

    def __init__(self, stage, block, index, port_id):
        self.stage = stage
        self.block = block
        self.index = index
        self.port_id = port_id

    def _router(self, network):
        return network.router_grid[(self.stage, self.block, self.index)]

    def apply(self, network):
        router = self._router(network)
        router.config.port_enabled[self.port_id] = False
        network.engine.wake(router)

    def revert(self, network):
        router = self._router(network)
        router.config.port_enabled[self.port_id] = True
        network.engine.wake(router)

    def describe(self):
        return "{}(r{}.{}.{} port {})".format(
            self.kind, self.stage, self.block, self.index, self.port_id
        )


class TransientFault(Fault):
    """A duty-cycled fault: alternates between healthy and failed.

    Subclasses define what apply/revert do; this base owns *when*: up
    (healthy) periods average ``mtbf`` cycles and down (failed)
    periods average ``mttr`` cycles, both drawn exponentially from the
    stored seed so the whole schedule is a pure function of the seed.

    The schedule is driven by :meth:`poll`, which the
    :class:`~repro.faults.injector.FaultInjector` calls from its
    pre-cycle hook once the fault is registered via
    ``injector.transient(fault)``.  ``start`` delays the first failure
    draw until that cycle (a healthy lead-in).
    """

    kind = "transient"

    def __init__(self, mtbf, mttr, seed=0, start=0):
        if mtbf < 1 or mttr < 1:
            raise ValueError("mtbf and mttr must be >= 1 cycle")
        self.mtbf = mtbf
        self.mttr = mttr
        self.seed = seed
        self.start = start
        self.down = False
        self._rng_obj = None
        self._next_change = None

    @property
    def _rng(self):
        if self._rng_obj is None:
            self._rng_obj = random.Random(self.seed)
        return self._rng_obj

    def _draw(self, mean):
        return max(1, int(round(self._rng.expovariate(1.0 / mean))))

    def poll(self, cycle, network):
        """Advance the duty cycle to ``cycle``; apply/revert as due.

        Returns the transitions taken this call as ``(action, cycle)``
        pairs (``"apply"`` going down, ``"revert"`` coming back up) so
        the injector can record them in its history.
        """
        if cycle < self.start:
            return []
        if self._next_change is None:
            self._next_change = cycle + self._draw(self.mtbf)
        events = []
        while cycle >= self._next_change:
            if self.down:
                self.revert(network)
                self.down = False
                events.append(("revert", cycle))
                self._next_change = cycle + self._draw(self.mtbf)
            else:
                self.apply(network)
                self.down = True
                events.append(("apply", cycle))
                self._next_change = cycle + self._draw(self.mttr)
        return events

    def next_change_cycle(self):
        """The next cycle :meth:`poll` could take a transition.

        Before the first poll that is the healthy lead-in's end
        (``start``) — polling there initializes the schedule with
        exactly the draws the reference engine's every-cycle polling
        would make.  Used by the fault injector's idle-run compression
        hint.
        """
        if self._next_change is None:
            return self.start
        return self._next_change


class FlakyLink(TransientFault):
    """A wire that intermittently goes dead (marginal connector)."""

    kind = LINK_FLAKY

    def __init__(self, src_key, dst_key, mtbf=600, mttr=150, seed=0, start=0):
        super().__init__(mtbf, mttr, seed=seed, start=start)
        self.src_key = src_key
        self.dst_key = dst_key
        self.channel = None

    def _resolve(self, network):
        if self.channel is None:
            self.channel = network.channels[(self.src_key, self.dst_key)]
        return self.channel

    def apply(self, network):
        channel = self._resolve(network)
        channel.dead = True
        network.engine.wake(channel)

    def revert(self, network):
        channel = self._resolve(network)
        channel.dead = False
        network.engine.wake(channel)

    def describe(self):
        if self.channel is not None:
            name = self.channel.name
        else:
            name = self.__dict__.get("_name_cache") or "{}->{}".format(
                self.src_key, self.dst_key
            )
        return "{}({}, mtbf={}, mttr={})".format(
            self.kind, name, self.mtbf, self.mttr
        )

    def __getstate__(self):
        # Mirror _LinkFault: the resolved channel is a cache only and
        # re-resolves against whichever network the clone is applied
        # to (for a snapshot, the restored one); the rendered wire
        # name is kept so describe() is stable across the round-trip.
        state = dict(self.__dict__)
        if state.get("channel") is not None:
            state["_name_cache"] = state["channel"].name
        state["channel"] = None
        return state


class FlakyRouter(TransientFault):
    """A router that intermittently goes silent (thermal/marginal part)."""

    kind = ROUTER_FLAKY

    def __init__(
        self,
        stage,
        block,
        index,
        mtbf=600,
        mttr=150,
        seed=0,
        start=0,
    ):
        super().__init__(mtbf, mttr, seed=seed, start=start)
        self.stage = stage
        self.block = block
        self.index = index

    def _router(self, network):
        return network.router_grid[(self.stage, self.block, self.index)]

    def apply(self, network):
        router = self._router(network)
        router.dead = True
        network.engine.wake(router)

    def revert(self, network):
        # See DeadRouter.revert: frozen mid-connection state must be
        # re-scheduled when the router comes back up.
        router = self._router(network)
        router.dead = False
        network.engine.wake(router)

    def describe(self):
        return "{}(r{}.{}.{}, mtbf={}, mttr={})".format(
            self.kind, self.stage, self.block, self.index, self.mtbf, self.mttr
        )
