"""Simulation engine backends.

The reference :class:`~repro.sim.engine.Engine` is a dense two-phase
sweep: every component ticks and every channel advances every cycle.
That is simple and obviously correct, but on a lightly loaded network
almost all of that work is provably a no-op — an idle METRO router
reads silence on every forward port, writes ``None`` into its boundary
capture registers, and stages nothing.

:class:`EventEngine` is a drop-in replacement that skips exactly that
provable no-op work and nothing else:

* Components expose the activity protocol of
  :mod:`repro.sim.component` (``activity_state`` / ``fast_poll`` /
  ``attached_channels``).  ``PARKED`` components are skipped entirely;
  ``POLL`` components (endpoints at rest) run a reduced poll; ``ACTIVE`` components tick normally, in
  registration order, so traces, logs and telemetry events appear in
  exactly the reference order.
* A parked component is re-scheduled while an attached channel has a
  word or BCB pulse in flight (in either direction: waking the sender
  too is a spurious tick at worst, and measured no slower than testing
  four pipe heads per hot channel), when a pre-cycle hook (the fault
  injector) or an out-of-tick mutator calls :meth:`EventEngine.wake`,
  or — conservatively — at the start of every ``run``/``run_until``
  call (external code may mutate anything between runs, so each run
  begins with one dense warm-up cycle).
* Channels live in a *hot set*: a channel is advanced only while it
  holds words in flight or a component just staged into it.  An
  all-idle channel costs nothing per cycle.
* When the network is completely quiet except for predictable future
  events (a trace-driven traffic source, a scheduled fault), ``run``
  compresses the idle gap in O(1) by jumping the cycle counter to the
  next event.  Unpredictable sources (Bernoulli traffic) disable
  compression but still benefit from the POLL fast path.

Equivalence is *by construction* — a skipped tick is one the reference
engine would have executed with no observable effect, and a spuriously
woken component just runs its full (idempotent-on-idle) tick — and is
*checked* by :mod:`repro.verify.backend_diff`, which replays random
scenarios, fault injections and chaos soaks on both backends and
requires byte-identical results.

Components outside the protocol (cascade groups, waveform recorders,
ad-hoc test components) are detected at preparation time and the
engine degrades to the dense reference sweep for the whole run —
slower, never wrong.
"""

from repro.sim.channel import Channel
from repro.sim.component import ACTIVE, POLL
from repro.sim.engine import Engine, EngineDeadlineError

#: ``next_event_cycle`` return meaning "no future event at all".
NEVER = float("inf")


class EventEngine(Engine):
    """Activity-gated event-driven engine (the ``"events"`` backend)."""

    def __init__(self):
        Engine.__init__(self)
        #: True when a registered component predates the activity
        #: protocol; the engine then runs the dense reference sweep.
        self.degraded = False
        self._prepared = False
        self._states = {}
        self._woken = set()
        #: The hot channel set is a stable object: channels carry a
        #: bound reference to its ``add`` (the staging hook), so it is
        #: cleared and refilled in place, never reassigned.
        self._hot = set()
        #: component -> [registered channel, ...] (for wake re-heating)
        self._adjacent = {}
        #: registered channel -> [the components at its ends]
        self._attached = {}
        self._ticked = []
        #: True when every idle-poll source and pre-cycle hook can name
        #: its next event cycle; precomputed per run so Bernoulli-load
        #: runs skip the per-cycle compression probe entirely.
        self._compressible = False
        #: Cycles the idle-run compressor skipped (visible for tests
        #: and benchmarks; no functional role).
        self.compressed_cycles = 0

    # ------------------------------------------------------------------
    # Snapshot support
    # ------------------------------------------------------------------

    #: Everything _prepare() rebuilds from scratch at the next run;
    #: dropping it keeps snapshots free of bound-to-this-engine hooks
    #: and makes restore a plain "re-prepare on first step".
    _TRANSIENT_ATTRS = (
        "_states",
        "_woken",
        "_hot",
        "_adjacent",
        "_attached",
        "_ticked",
    )

    def __getstate__(self):
        state = dict(self.__dict__)
        for name in self._TRANSIENT_ATTRS:
            state.pop(name, None)
        state["_prepared"] = False
        state["_compressible"] = False
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._states = {}
        self._woken = set()
        self._hot = set()
        self._adjacent = {}
        self._attached = {}
        self._ticked = []

    # ------------------------------------------------------------------
    # Registration (invalidates the prepared maps)
    # ------------------------------------------------------------------

    def add_component(self, component):
        self._prepared = False
        return Engine.add_component(self, component)

    def add_channel(self, channel):
        self._prepared = False
        return Engine.add_channel(self, channel)

    def add_pre_cycle_hook(self, hook):
        # Compressibility depends on the hook set (a fault injector
        # attached mid-life must be re-probed).
        self._prepared = False
        return Engine.add_pre_cycle_hook(self, hook)

    # ------------------------------------------------------------------
    # Preparation: adjacency maps + conservative reset
    # ------------------------------------------------------------------

    _PROTOCOL = ("activity_state", "attached_channels")

    def _prepare(self):
        """(Re)build wiring maps; mark everything active/hot.

        Called at the start of every run so that any wiring or state
        mutation performed between runs — attaching traffic, applying
        faults, poking router internals from a test — is absorbed by
        one conservative dense cycle instead of needing a wake call.
        """
        self.degraded = False
        self._compressible = False
        for component in self.components:
            if not all(hasattr(component, name) for name in self._PROTOCOL):
                self.degraded = True
                self._prepared = True
                return
        states = self._states = {}
        adjacent = self._adjacent = {}
        attached = self._attached = {}
        hot_add = self._hot.add
        for channel in self.channels:
            attached[channel] = []
            channel.hot_hook = hot_add
        for component in self.components:
            states[component] = ACTIVE
            entries = []
            for channel in component.attached_channels():
                ends = attached.get(channel)
                if ends is None:
                    # Wired to a channel the engine never registered
                    # (ad-hoc test harnesses): the reference engine
                    # would never advance it, so neither may we —
                    # leave it out of the maps entirely.
                    continue
                ends.append(component)
                entries.append(channel)
            adjacent[component] = entries
            hook = getattr(component, "wake_hook", False)
            if hook is None or callable(hook):
                component.wake_hook = self.wake
        self._woken.clear()
        self._hot.clear()
        self._hot.update(self.channels)
        self._compressible = self._probe_compressible()
        self._prepared = True

    def _probe_compressible(self):
        """Can every future event source name its next event cycle?

        Probed once per run (sources and hooks only change between
        runs): a hook owner without ``next_event_cycle`` or a component
        whose hint is currently ``None`` (a Bernoulli traffic source —
        it consumes randomness every cycle, so its next arrival is
        unknowable) rules compression out for the whole run, letting
        ``run`` skip the per-cycle probe.  Components with *no* hint
        method are fine here — they are re-checked dynamically if they
        ever reach the POLL state.
        """
        for hook in self._pre_cycle_hooks:
            owner = getattr(hook, "__self__", None)
            if not hasattr(owner, "next_event_cycle"):
                return False
        for component in self.components:
            probe = getattr(component, "next_event_cycle", None)
            if probe is not None and probe() is None:
                return False
        return True

    # ------------------------------------------------------------------
    # Wake API (fault injection, external submits, scan operations)
    # ------------------------------------------------------------------

    def wake(self, obj):
        """Re-schedule ``obj`` (a component or channel) immediately.

        Safe to call at any time with any object; unknown objects are
        ignored.  Component wakes also re-heat the component's attached
        channels (an out-of-tick mutator may have staged words into
        them), and resynchronize the component's notion of time via its
        optional ``on_wake(cycle)`` hook.
        """
        if isinstance(obj, Channel):
            if self._prepared and not self.degraded:
                ends = self._attached.get(obj)
                if ends is not None:
                    # Unregistered channels stay out of the hot set:
                    # the reference engine never advances them.
                    self._hot.add(obj)
                    self._woken.update(ends)
            return
        on_wake = getattr(obj, "on_wake", None)
        if on_wake is not None:
            on_wake(self.cycle - 1 if self.cycle > 0 else 0)
        if self._prepared and not self.degraded:
            self._woken.add(obj)
            for channel in self._adjacent.get(obj, ()):
                self._hot.add(channel)

    # ------------------------------------------------------------------
    # The clock
    # ------------------------------------------------------------------

    def step(self):
        if not self._prepared:
            self._prepare()
        if self.degraded:
            Engine.step(self)
            return
        if self.deadline is not None and self.cycle >= self.deadline:
            raise EngineDeadlineError(
                "engine reached its deadline of {} cycles".format(self.deadline)
            )
        for hook in self._pre_cycle_hooks:
            hook(self)
        cycle = self.cycle
        states = self._states
        woken = self._woken
        if woken:
            for component in woken:
                states[component] = ACTIVE
            woken.clear()
        ticked = self._ticked
        del ticked[:]
        tick_append = ticked.append
        for component in self.components:
            state = states[component]
            if state is ACTIVE:
                component.tick(cycle)
                tick_append(component)
            elif state is POLL:
                # A poll stages nothing (channel heating is handled by
                # the staging hook anyway) and can only create work;
                # its return value says whether it did.
                if component.fast_poll(cycle):
                    states[component] = ACTIVE
        for observer in self.observers:
            observer.tick(cycle)
        # Channels staged into this cycle added themselves to the hot
        # set via their staging hook; no scan needed.
        hot = self._hot
        if hot:
            wake_ends = woken.update
            cold = []
            attached = self._attached
            for channel in hot:
                channel.advance()
                if not channel.live:
                    # Nothing in flight: nothing can arrive.
                    cold.append(channel)
                    continue
                wake_ends(attached[channel])
            for channel in cold:
                hot.discard(channel)
        # Re-classification is deliberately throttled: parking *late* is
        # always safe (a spurious tick on idle state is a no-op — only a
        # missed wake can diverge), so the park check runs every fourth
        # cycle instead of every cycle.  Active components usually stay
        # active for tens of cycles (an open connection), making the
        # per-cycle check pure overhead.
        if cycle & 3 == 3:
            for component in ticked:
                after = component.activity_state()
                if after is not ACTIVE:
                    states[component] = after
        self.cycle = cycle + 1

    # ------------------------------------------------------------------
    # Runs (with idle-gap compression)
    # ------------------------------------------------------------------

    def run(self, cycles):
        self._prepare()
        if self.degraded:
            return Engine.run(self, cycles)
        self._stop_requested = False
        end = self.cycle + cycles
        while self.cycle < end:
            if self._compressible:
                target = self._compression_target()
                if target is not None and target > self.cycle + 1:
                    jump = min(target, end)
                    self.compressed_cycles += jump - self.cycle
                    self.cycle = jump
                    if self.cycle >= end:
                        break
            self.step()
            if self._stop_requested:
                break

    def run_until(self, predicate, max_cycles=1000000):
        # No compression: the predicate contract is "evaluated before
        # each step", and an opaque predicate may observe any cycle.
        self._prepare()
        return Engine.run_until(self, predicate, max_cycles)

    def _compression_target(self):
        """Cycle of the next possible event, or None if unknowable.

        Compression requires proof that *nothing at all* can happen
        until the target: no words in flight, no component active or
        freshly woken, and every remaining event source — POLL
        components, pre-cycle hooks, and observers — able to name its
        next event cycle.  Observers sample every cycle by default, so
        any observer without a ``next_event_cycle`` hint (the oracle,
        the telemetry hub) vetoes compression outright; observers that
        only act at known boundaries (the telemetry stream, the run
        watchdog) provide the hint and ride along compression-free.
        """
        if (
            not self._compressible
            or self.degraded
            or self._hot
            or self._woken
        ):
            return None
        nearest = NEVER
        for observer in self.observers:
            probe = getattr(observer, "next_event_cycle", None)
            if probe is None:
                return None
            nxt = probe()
            if nxt is None:
                return None
            if nxt < nearest:
                nearest = nxt
        states = self._states
        for component in self.components:
            state = states[component]
            if state is ACTIVE:
                return None
            if state is POLL:
                probe = getattr(component, "next_event_cycle", None)
                if probe is None:
                    return None
                nxt = probe()
                if nxt is None:
                    return None
                if nxt < nearest:
                    nearest = nxt
        for hook in self._pre_cycle_hooks:
            owner = getattr(hook, "__self__", None)
            probe = getattr(owner, "next_event_cycle", None)
            if probe is None:
                return None
            nxt = probe()
            if nxt is None:
                return None
            if nxt < nearest:
                nearest = nxt
        if self.deadline is not None and self.deadline < nearest:
            nearest = self.deadline
        return nearest


#: Registered engine backends.  ``"reference"`` is the dense two-phase
#: sweep; ``"events"`` the activity-gated event-driven engine.
BACKENDS = {
    "reference": Engine,
    "events": EventEngine,
}


def make_engine(backend="reference"):
    """Instantiate an engine by backend name.

    :raises ValueError: unknown backend name (the message lists the
        registered choices).
    """
    try:
        factory = BACKENDS[backend]
    except KeyError:
        raise ValueError(
            "unknown engine backend {!r} (choices: {})".format(
                backend, ", ".join(sorted(BACKENDS))
            )
        )
    return factory()
