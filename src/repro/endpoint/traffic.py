"""Workload generators.

Figure 3 of the paper measures "randomly distributed, 20-byte message
traffic ... a parallelism limited case where processors stall waiting
for message completion".  That is a *closed-loop* Bernoulli process:
an idle endpoint starts a new message with some per-cycle probability
and then stalls until the acknowledgment returns.  The injection
probability is the offered-load knob.

Additional generators cover the other workloads a router evaluation
needs: hotspot concentration and fixed permutations.  Collectives and
request/response services bring their own sources
(:mod:`repro.workloads`).
"""

import random

from repro.endpoint.messages import Message


def random_payload(rng, words, w):
    """A random payload of ``words`` values of ``w`` bits each.

    Draws exactly ``w`` bits per word: masking a fixed-width draw would
    silently truncate payloads on datapaths wider than the draw.
    """
    return [rng.getrandbits(w) for _ in range(words)]


class TrafficSource:
    """Base: a per-endpoint callable factory.

    ``source_for(endpoint_index)`` returns the ``f(cycle) -> Message |
    None`` an :class:`~repro.endpoint.interface.Endpoint` consults when
    it has capacity.  Generators count what they hand out, so offered
    load can be reported exactly.

    Sources are plain callable objects (not closures) so a live
    network — endpoints and their attached sources included — pickles
    for engine snapshots (:mod:`repro.sim.snapshot`); the per-endpoint
    ``random.Random`` stream rides along and resumes mid-sequence.
    """

    def __init__(self, n_endpoints, w, message_words=20, seed=0):
        self.n_endpoints = n_endpoints
        self.w = w
        self.message_words = message_words
        self.seed = seed
        self.generated = 0

    def source_for(self, endpoint_index):
        raise NotImplementedError

    def attach(self, network):
        """Install a source on every endpoint of ``network``."""
        for endpoint in network.endpoints:
            endpoint.traffic_source = self.source_for(endpoint.index)
        return self

    def _rng(self, endpoint_index):
        return random.Random((self.seed << 20) ^ (endpoint_index * 7919 + 13))

    def _message(self, rng, dest):
        self.generated += 1
        return Message(
            dest=dest, payload=random_payload(rng, self.message_words, self.w)
        )


#: A draw-ahead stops after this many failed draws, so that ``rate`` 0
#: terminates; the endpoint rests that long and then asks again.
_DRAW_AHEAD = 256


class _BernoulliSource:
    """One endpoint's Bernoulli injector (a picklable callable).

    Each call draws ``rng.random()``, and only a draw below the
    generator's ``rate`` goes on to draw a message (``_emit``).
    ``gap()`` draws ahead: it calls ``rng.random()`` up to the first
    value below ``rate`` (at most ``_DRAW_AHEAD`` times) and stops at
    that success, so the message's own draws still follow it in the
    stream; it returns how many calls will return None first.  An
    endpoint at rest calls ``skip(n)`` for the n calls it did not make,
    and a call uses up one drawn value, so every value and every
    message is the one the per-call draws give.  ``rate`` is read once
    per draw-ahead (only the generators' constructors set it), and a
    source serves one endpoint.
    """

    __slots__ = ("_traffic", "_rng", "_index", "_misses", "_hit")

    def __init__(self, traffic, rng, index):
        self._traffic, self._rng, self._index = traffic, rng, index
        # Drawn-ahead values >= rate still to use, and whether a value
        # < rate follows them.
        self._misses, self._hit = 0, False

    def __call__(self, cycle):
        if self._misses:
            self._misses -= 1
            return None
        if self._hit:
            self._hit = False
        elif self._rng.random() >= self._traffic.rate:
            return None
        return self._emit(self._traffic, self._rng)

    def gap(self):
        draw, rate, misses = self._rng.random, self._traffic.rate, self._misses
        while not self._hit and misses < _DRAW_AHEAD:
            if draw() >= rate:  # the call's own test
                misses += 1
            else:
                self._hit = True
        self._misses = misses
        return misses

    def skip(self, n):
        self._misses -= n


class UniformRandomTraffic(TrafficSource):
    """Closed-loop Bernoulli injection to uniform-random destinations
    other than the sender.

    :param rate: probability an idle endpoint starts a message each
        cycle (the offered-load knob of Figure 3).
    """

    def __init__(self, n_endpoints, w, rate=0.01, message_words=20, seed=0):
        super().__init__(n_endpoints, w, message_words, seed)
        self.rate = rate

    def source_for(self, endpoint_index):
        return _UniformSource(self, self._rng(endpoint_index), endpoint_index)


class _UniformSource(_BernoulliSource):
    """One endpoint's uniform Bernoulli injector."""

    __slots__ = ()

    def _emit(self, traffic, rng):
        dest = rng.randrange(traffic.n_endpoints)
        while dest == self._index:
            dest = rng.randrange(traffic.n_endpoints)
        return traffic._message(rng, dest)


class HotspotTraffic(TrafficSource):
    """Uniform traffic with a fraction concentrated on one endpoint."""

    def __init__(self, n_endpoints, w, rate=0.01, hotspot=0, fraction=0.2,
                 message_words=20, seed=0):
        super().__init__(n_endpoints, w, message_words, seed)
        self.rate = rate
        self.hotspot = hotspot
        self.fraction = fraction

    def source_for(self, endpoint_index):
        return _HotspotSource(self, self._rng(endpoint_index), endpoint_index)


class _HotspotSource(_BernoulliSource):
    """One endpoint's hotspot injector."""

    __slots__ = ()

    def _emit(self, traffic, rng):
        if rng.random() < traffic.fraction:
            dest = traffic.hotspot
        else:
            dest = rng.randrange(traffic.n_endpoints)
        if dest == self._index:
            return None
        return traffic._message(rng, dest)


def bit_reverse(value, bits):
    result = 0
    for _ in range(bits):
        result = (result << 1) | (value & 1)
        value >>= 1
    return result


class PermutationTraffic(TrafficSource):
    """Every endpoint repeatedly sends to one fixed partner.

    :param permutation: ``"bit-reverse"``, ``"shift"``, or an explicit
        mapping list.
    """

    def __init__(self, n_endpoints, w, rate=0.01, permutation="bit-reverse",
                 message_words=20, seed=0):
        super().__init__(n_endpoints, w, message_words, seed)
        self.rate = rate
        if permutation == "bit-reverse":
            bits = max(1, (n_endpoints - 1).bit_length())
            self.mapping = [
                bit_reverse(e, bits) % n_endpoints for e in range(n_endpoints)
            ]
        elif permutation == "shift":
            self.mapping = [(e + n_endpoints // 2) % n_endpoints
                            for e in range(n_endpoints)]
        else:
            if sorted(permutation) != list(range(n_endpoints)):
                raise ValueError("explicit permutation must cover all endpoints")
            self.mapping = list(permutation)

    def source_for(self, endpoint_index):
        return _PartnerSource(self, self._rng(endpoint_index), endpoint_index,
                              self.mapping[endpoint_index])


class _PartnerSource(_BernoulliSource):
    """One endpoint's fixed-partner injector."""

    __slots__ = ("_partner",)

    def __init__(self, traffic, rng, index, partner):
        super().__init__(traffic, rng, index)
        self._partner = partner

    def _emit(self, traffic, rng):
        if self._partner == self._index:
            return None
        return traffic._message(rng, self._partner)
