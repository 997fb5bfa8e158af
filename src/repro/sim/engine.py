"""The two-phase synchronous simulation engine."""


class EngineDeadlineError(RuntimeError):
    """An :class:`Engine` tried to advance past its configured deadline.

    Raised by :meth:`Engine.step` so a runaway simulation (a livelocked
    trial inside a worker process, a predicate that can never fire)
    terminates with a diagnosable error instead of spinning forever.
    """


class Engine:
    """Clocks a collection of components and channels in lockstep.

    Each call to :meth:`step` performs one cycle of the central clock:

    1. every registered component's ``tick(cycle)`` runs, reading the
       *current* channel outputs and staging new inputs;
    2. every channel advances its pipeline registers by one stage.

    Because reads see pre-tick state and writes are staged, the order in
    which components tick is irrelevant — the simulation is a faithful
    model of a fully synchronous design.

    Two guards bound an engine's execution:

    * :meth:`stop` requests a cooperative stop: the current ``run`` /
      ``run_until`` loop finishes its cycle and returns early.  Safe to
      call from a component's ``tick`` or a pre-cycle hook.
    * :meth:`set_deadline` installs a hard cycle ceiling: stepping at
      or past it raises :class:`EngineDeadlineError`.  No runner arms
      it (``run_experiment(deadline_cycles=)`` went in PR 22: every
      point runner bounds its own cycles, and the pool has a wall-clock
      limit); tests do, and ``deadline`` is part of every snapshot, so
      the guard stays (DESIGN.md, "Kept on purpose").

    The deadline takes precedence over every soft budget: a
    ``run_until`` whose ``max_cycles`` extends past the deadline raises
    :class:`EngineDeadlineError` at the deadline cycle rather than
    silently returning False at budget exhaustion (see
    ``tests/sim/test_engine_guards.py``).  Backends (see
    :mod:`repro.sim.backends`) must preserve both guards cycle-exactly.
    """

    def __init__(self):
        self.cycle = 0
        self.components = []
        self.observers = []
        self.channels = []
        self.deadline = None
        self._pre_cycle_hooks = []
        self._stop_requested = False

    def add_component(self, component):
        """Register a clocked component; returns it for chaining."""
        self.components.append(component)
        return component

    def add_observer(self, component):
        """Register a component that ticks after every ordinary one.

        Observers see each cycle's fully-staged state — every component
        has ticked, no channel has advanced yet — regardless of when
        other components are registered.  The conformance oracle uses
        this so attaching a traffic source after the oracle cannot
        stage words behind its back.
        """
        self.observers.append(component)
        return component

    def add_channel(self, channel):
        """Register a channel; returns it for chaining."""
        self.channels.append(channel)
        return channel

    def add_pre_cycle_hook(self, hook):
        """Register ``hook(engine)`` to run before each cycle's ticks.

        Used by the fault injector to flip faults on/off at scheduled
        cycles without being a component itself.
        """
        self._pre_cycle_hooks.append(hook)

    def stop(self):
        """Request that the innermost ``run``/``run_until`` loop return.

        The request is consumed by the next ``run``/``run_until`` call:
        each loop clears it on entry, so a stop only ever cancels the
        run during which it was raised.
        """
        self._stop_requested = True

    def set_deadline(self, cycle):
        """Refuse to step at or beyond absolute cycle ``cycle``.

        ``None`` clears the deadline.  The deadline is checked at the
        top of :meth:`step`, which raises :class:`EngineDeadlineError` —
        the simulation never silently runs past it.
        """
        if cycle is not None and cycle < self.cycle:
            raise ValueError(
                "deadline {} is already in the past (cycle {})".format(
                    cycle, self.cycle
                )
            )
        self.deadline = cycle

    def clear_deadline(self):
        """Remove any cycle deadline."""
        self.deadline = None

    def snapshot(self, extras=None, meta=None):
        """Capture this engine's full state as a picklable Snapshot.

        Everything registered with the engine — components, observers,
        channels, pre-cycle hooks — rides along, as do the guard states
        (:meth:`stop` requests and :meth:`set_deadline` deadlines), so
        a restored engine resumes exactly where this one stands.  The
        live engine is not perturbed.  See :mod:`repro.sim.snapshot`.
        """
        from repro.sim.snapshot import snapshot_engine

        return snapshot_engine(self, extras=extras, meta=meta)

    def wake(self, obj):
        """Nudge a component or channel that was mutated out-of-band.

        The dense reference engine visits everything every cycle, so
        this is a no-op here.  Event-driven backends override it to
        re-schedule parked components (and re-heat idle channels) when
        a fault strikes, a message is submitted from outside a tick, or
        a scan operation drives a wire.  Callers may invoke it
        unconditionally — it is always safe, never required for
        correctness on this engine.
        """

    def step(self):
        """Advance the simulation by exactly one clock cycle."""
        if self.deadline is not None and self.cycle >= self.deadline:
            raise EngineDeadlineError(
                "engine reached its deadline of {} cycles".format(self.deadline)
            )
        for hook in self._pre_cycle_hooks:
            hook(self)
        cycle = self.cycle
        for component in self.components:
            component.tick(cycle)
        for observer in self.observers:
            observer.tick(cycle)
        for channel in self.channels:
            channel.advance()
        self.cycle = cycle + 1

    def run(self, cycles):
        """Advance the simulation by up to ``cycles`` clock cycles.

        Returns early (without error) if a component calls :meth:`stop`
        mid-run; ``cycles=0`` performs no steps at all.
        """
        self._stop_requested = False
        for _ in range(cycles):
            self.step()
            if self._stop_requested:
                break

    def run_until(self, predicate, max_cycles=1000000):
        """Step until ``predicate(engine)`` is true or the cycle budget ends.

        Returns True if the predicate fired, False on budget exhaustion.
        The predicate is evaluated *before* each step so a condition
        that already holds costs zero cycles; ``max_cycles=0``
        consistently means "check, never step" — the predicate is
        evaluated exactly once and no cycle is consumed.  A
        :meth:`stop` request raised during the run ends it after the
        current cycle, returning the predicate's value at that point.
        """
        if max_cycles < 0:
            raise ValueError(
                "max_cycles must be >= 0, got {}".format(max_cycles)
            )
        self._stop_requested = False
        for _ in range(max_cycles):
            if predicate(self):
                return True
            self.step()
            if self._stop_requested:
                break
        return bool(predicate(self))
