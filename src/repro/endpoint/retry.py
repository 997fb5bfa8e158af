"""The source endpoint's retry backoff.

The paper's protocol leaves the retry discipline to the source: after
a failed attempt the endpoint waits some number of cycles and
re-transmits, relying on random output selection to steer the retry
around congestion or faults (PAPER.md Section 4).  Every endpoint
draws that wait uniformly from ``backoff=(lo, hi)``
(:class:`UniformBackoff`); the draw order is part of every golden
trace's random stream, and endpoints pickle their policy object into
engine snapshots, so both classes keep their names and shape.
"""

import copy


class RetryPolicy:
    """Decides how long to wait before re-sending a failed message.

    :meth:`delay` returns the number of idle cycles to wait (the
    endpoint requeues the message at ``cycle + 1 + delay``), or
    ``None`` to give the message up as undeliverable (the endpoint
    abandons it exactly as if ``max_attempts`` had run out).
    """

    def delay(self, rng, message):
        raise NotImplementedError

    def clone(self):
        """A per-endpoint copy; stateful policies must not be shared."""
        return copy.deepcopy(self)

    def describe(self):
        return type(self).__name__


class UniformBackoff(RetryPolicy):
    """Uniform random wait in ``[lo, hi]`` — the historical default.

    Draws ``rng.randint(lo, hi)`` exactly as the endpoint always has,
    so golden traces are unchanged when no policy is configured.
    """

    def __init__(self, lo=0, hi=3):
        if lo < 0 or hi < lo:
            raise ValueError("need 0 <= lo <= hi, got ({}, {})".format(lo, hi))
        self.lo = lo
        self.hi = hi

    def delay(self, rng, message):
        return rng.randint(self.lo, self.hi)

    def describe(self):
        return "uniform({}..{})".format(self.lo, self.hi)
