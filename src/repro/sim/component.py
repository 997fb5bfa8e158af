"""Base class for clocked components, the null telemetry object, and
the weak back-reference hooks hold to their network.

Routers and endpoints hold a ``telemetry`` attribute that is either a
live :class:`~repro.telemetry.hub.TelemetryHub` or
:data:`NULL_TELEMETRY`.  The null object lives here, beside
:class:`Component`, so the simulator core does not import the
observability layer: a network built without a hub never loads
:mod:`repro.telemetry`.
"""

import weakref


class Component:
    """A synchronously clocked element of a METRO network simulation.

    Subclasses implement :meth:`tick`, which is called exactly once per
    simulated clock cycle.  During ``tick`` a component may *read* the
    current outputs of its attached channels and *stage* new words into
    them; staged words only become visible after every component has
    ticked (two-phase update), exactly like registers clocked from a
    single central clock.
    """

    #: Human-readable identifier, assigned by the network builder.
    name = "component"

    def tick(self, cycle):
        """Advance one clock cycle.

        :param cycle: the current cycle number (0-based).
        """
        raise NotImplementedError

    def __repr__(self):
        return "<{} {}>".format(type(self).__name__, self.name)


class NullTelemetry:
    """Does nothing, cheaply.  There is one instance: ``NULL_TELEMETRY``.

    Hot paths guard every hook call with ``if self.telemetry.enabled:``
    — one attribute load and a truth test when telemetry is off, which
    is what keeps the disabled path within a few percent of an
    uninstrumented simulator (``bench/``'s hub-less ``fig3_light`` and
    ``fig3_saturated`` workloads hold it to their ``round_s`` bound).
    The no-op methods exist so un-guarded call sites (cold paths, user
    code) also work against the null object.
    """

    enabled = False

    def attempt_started(self, cycle, endpoint, port, message):
        pass

    def attempt_stream(self, cycle, endpoint, port):
        pass

    def attempt_turn(self, cycle, endpoint, port):
        pass

    def attempt_finished(
        self, cycle, endpoint, port, message, outcome, blocked_stage=None
    ):
        pass

    def message_received(self, cycle, endpoint, n_words, checksum_ok):
        pass

    def router_event(self, cycle, router, kind, port, detail):
        pass

    def __repr__(self):
        return "<NullTelemetry>"

    def __reduce__(self):
        # Pickle by name, as the module global below, so components
        # restored from an engine snapshot share NULL_TELEMETRY instead
        # of each holding a private copy.
        return "NULL_TELEMETRY"


NULL_TELEMETRY = NullTelemetry()


class BackReference(weakref.ref):
    """A weak reference to the network a hook or observer serves.

    A network owns its engine, and the engine owns everything it ticks
    or hooks, so anything registered there that held its network
    strongly would close a network -> engine -> hook -> network cycle:
    a dropped network would wait for the cyclic garbage collector
    instead of being freed at once.  Calling the reference returns the
    network, or None once nothing else holds it.

    It pickles as a strong reference, so a snapshot carries the network
    it names, and the restored reference is weak again: the restored
    network lives as long as its caller holds it
    (:attr:`repro.sim.snapshot.Restored.network`).
    """

    __slots__ = ()

    def __reduce__(self):
        return BackReference, (self(),)
