"""Simulation engine backends.

The reference :class:`~repro.sim.engine.Engine` is a dense two-phase
sweep: every component ticks and every channel advances every cycle.
METRO's network is stateless (paper, Section 3): a port with no open
connection holds nothing, so on a lightly loaded network almost all of
that work finds nothing to do.  The components already make an idle
visit cheap (DESIGN.md, "Idle is one test"): a quiet router's tick is
one list comparison, and an endpoint at rest skips its source calls
until its Bernoulli source's next message.

:class:`EventEngine` is the same sweep minus silent wires:
:meth:`EventEngine.step` advances a channel only while its liveness
summary (``Channel.live``) says a word or BCB pulse is staged or in
flight.  Every component still ticks every cycle, in registration
order, so traces, logs and telemetry events appear in exactly the
reference order, and ``run`` / ``run_until`` are the reference's own.

Skipping a silent wire's ``advance()`` changes nothing, because that
call would return at once: equivalence is checked by
:mod:`repro.verify.backend_diff`, which replays seeded workloads of
seven families on both backends and requires byte-identical results.
"""

from repro.sim.engine import Engine, EngineDeadlineError


class EventEngine(Engine):
    """The dense sweep minus silent wires (the ``"events"`` backend)."""

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
        for channel in self.channels:
            if channel.live:
                channel.advance()
        self.cycle = cycle + 1


#: Registered engine backends.  ``"reference"`` is the dense two-phase
#: sweep; ``"events"`` skips silent wires.
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
