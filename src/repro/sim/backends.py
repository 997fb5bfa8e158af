"""Simulation engine backends.

The reference :class:`~repro.sim.engine.Engine` is a dense two-phase
sweep: every component ticks and every channel advances every cycle.
METRO's network is stateless (paper, Section 3): a port with no open
connection holds nothing, so on a lightly loaded network almost all of
that work finds nothing to do.  The components already make an idle
visit cheap (DESIGN.md, "Idle is one test"): a quiet router's tick is
one list comparison, and an endpoint at rest skips its source calls
until its Bernoulli source's next message.

:class:`EventEngine` is the same sweep with two additions and nothing
else:

* **Silent wires are skipped.**  :meth:`EventEngine.step` advances a
  channel only while its liveness summary (``Channel.live``) says a
  word or BCB pulse is staged or in flight.  Every component still
  ticks every stepped cycle, in registration order, so traces, logs
  and telemetry events appear in exactly the reference order.
* **Idle gaps are compressed.**  When the last step left no wire live,
  :meth:`EventEngine.run` asks every component, observer and
  pre-cycle-hook owner for ``next_event_cycle()``: the next cycle it
  could act, ``inf`` for never, or None for "cannot say" (an endpoint
  with a Bernoulli source, whose tick counts the cycles it skips).  An
  object without the method cannot say either.  If all can answer, the
  clock jumps to the nearest answer (or the deadline, if nearer) and
  steps that cycle.
  A run never ends inside a jump: its last cycle is always stepped,
  so every component's clock (``_cycle``, which an out-of-tick
  ``submit`` stamps messages with) matches the reference engine's
  when the run returns, and the first cycle of every run is stepped
  too, because code outside the run may have changed anything.

A skipped cycle is one on which every tick is provably a no-op beyond
refreshing the component's clock: equivalence is checked by
:mod:`repro.verify.backend_diff`, which replays seeded workloads of
seven families on both backends and requires byte-identical results.
``run_until`` never jumps (its predicate may observe any cycle).
"""

from repro.sim.engine import Engine, EngineDeadlineError

#: ``next_event_cycle`` return meaning "no future event at all".
NEVER = float("inf")


class EventEngine(Engine):
    """The dense sweep minus silent wires, plus idle-gap compression
    (the ``"events"`` backend)."""

    def __init__(self):
        Engine.__init__(self)
        #: Cycles ``run`` jumped over (read by tests and the benchmark;
        #: no functional role).
        self.compressed_cycles = 0
        #: True when the last step left every wire silent.
        self._silent = False

    def step(self):
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
        silent = True
        for channel in self.channels:
            if channel.live:
                channel.advance()
                if channel.live:
                    silent = False
        self._silent = silent
        self.cycle = cycle + 1

    def run(self, cycles):
        self._stop_requested = False
        self._silent = False
        last = self.cycle + cycles - 1
        while self.cycle <= last:
            if self._silent:
                target = self._next_event()
                if target is not None and target > self.cycle:
                    target = min(target, last)
                    self.compressed_cycles += target - self.cycle
                    self.cycle = target
            self.step()
            if self._stop_requested:
                break

    def _next_event(self):
        """The nearest cycle anything registered could act, or None
        when one of them cannot say."""
        nearest = NEVER if self.deadline is None else self.deadline
        owners = [getattr(hook, "__self__", None) for hook in self._pre_cycle_hooks]
        for group in (self.observers, owners, self.components):
            for obj in group:
                probe = getattr(obj, "next_event_cycle", None)
                if probe is None:
                    return None
                nxt = probe()
                if nxt is None:
                    return None
                if nxt < nearest:
                    nearest = nxt
        return nearest


#: Registered engine backends.  ``"reference"`` is the dense two-phase
#: sweep; ``"events"`` skips silent wires and compresses idle gaps.
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
