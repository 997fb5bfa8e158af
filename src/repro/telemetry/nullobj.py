"""The disabled-telemetry null object.

Routers and endpoints hold a ``telemetry`` attribute that is either a
live :class:`~repro.telemetry.hub.TelemetryHub` or this null object.
Hot paths guard every hook call with ``if self.telemetry.enabled:`` —
one attribute load and a truth test when telemetry is off, which is
what keeps the disabled path within a few percent of an
uninstrumented simulator (``bench/``'s hub-less ``fig3_light`` and
``fig3_saturated`` workloads hold it to their ``round_s`` bound).
The no-op methods below exist so un-guarded call sites (cold paths,
user code) also work against the null object.
"""


class NullTelemetry:
    """Does nothing, cheaply.  There is one instance: ``NULL_TELEMETRY``."""

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

    def channel_activity(self, channel, down, up):
        pass

    def __repr__(self):
        return "<NullTelemetry>"

    def __reduce__(self):
        # Pickle to the singleton, so components restored from an
        # engine snapshot share NULL_TELEMETRY instead of each holding
        # a private copy.
        return (_null_telemetry, ())


def _null_telemetry():
    return NULL_TELEMETRY


NULL_TELEMETRY = NullTelemetry()
