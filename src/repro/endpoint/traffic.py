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


class _UniformSource:
    """One endpoint's uniform Bernoulli injector (picklable callable)."""

    __slots__ = ("_traffic", "_rng", "_index")

    def __init__(self, traffic, rng, index):
        self._traffic = traffic
        self._rng = rng
        self._index = index

    def __call__(self, cycle):
        traffic = self._traffic
        rng = self._rng
        if rng.random() >= traffic.rate:
            return None
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


class _HotspotSource:
    """One endpoint's hotspot injector (picklable callable)."""

    __slots__ = ("_traffic", "_rng", "_index")

    def __init__(self, traffic, rng, index):
        self._traffic = traffic
        self._rng = rng
        self._index = index

    def __call__(self, cycle):
        traffic = self._traffic
        rng = self._rng
        if rng.random() >= traffic.rate:
            return None
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
        return _PartnerSource(
            self,
            self._rng(endpoint_index),
            endpoint_index,
            self.mapping[endpoint_index],
        )


class _PartnerSource:
    """One endpoint's fixed-partner injector (picklable callable)."""

    __slots__ = ("_traffic", "_rng", "_index", "_partner")

    def __init__(self, traffic, rng, index, partner):
        self._traffic = traffic
        self._rng = rng
        self._index = index
        self._partner = partner

    def __call__(self, cycle):
        traffic = self._traffic
        rng = self._rng
        if rng.random() >= traffic.rate or self._partner == self._index:
            return None
        return traffic._message(rng, self._partner)
