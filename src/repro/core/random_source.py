"""Random bit streams for stochastic path selection.

Each METRO component generates one random output bit stream and
consumes ``ri`` random input bits per cycle (paper, Section 5.1, Width
Cascading): routers that are cascaded must draw *identical* random bits
so they make identical allocation decisions, while standalone routers
simply loop their own generator back to their inputs.

The simulation models a random stream as a deterministic PRNG seeded
per component, so experiments are reproducible, plus a
:class:`SharedRandomBus` that fans one stream out to a cascade group.

The module also provides the experiment-level seed machinery:
:func:`derive_seed` hashes a root seed plus a label path into an
independent 64-bit seed, so sweeps can hand every trial its own
reproducible stream.  Derivation
is position-independent — the seed for ``("load", 0.04)`` does not
change when other trials are added to or removed from a sweep — which
is what lets serial and parallel sweep execution produce bit-identical
results.
"""

import random


def derive_seed(root, *path):
    """A deterministic 64-bit seed for the trial identified by ``path``.

    ``root`` is the experiment's root seed; ``path`` is any sequence of
    primitives (strings, ints, floats, tuples) naming the trial — e.g.
    ``derive_seed(3, "load", 0.04)``.  The derivation is a SHA-256 hash
    of the canonical representation, so it is stable across processes,
    platforms and Python versions (unlike ``hash()``), and seeds for
    different paths are statistically independent.
    """
    import hashlib  # here, not at the top: a run without a harness never loads it

    material = repr((int(root),) + tuple(_canonical_seed_part(p) for p in path))
    digest = hashlib.sha256(material.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def _canonical_seed_part(part):
    if isinstance(part, float):
        return repr(part)
    if isinstance(part, (tuple, list)):
        return tuple(_canonical_seed_part(p) for p in part)
    return part


class RandomStream:
    """A reproducible stream of random bits/choices for one router.

    The hardware consumes raw bits; the simulation additionally offers
    :meth:`choose`, which picks uniformly among ``n`` candidates using
    the underlying bit stream — the same selection a hardware
    implementation makes from its random inputs, without modeling the
    exact bit-to-choice circuit.
    """

    def __init__(self, seed=0):
        self._rng = random.Random(seed)

    def bit(self):
        """The next random bit (0 or 1)."""
        return self._rng.getrandbits(1)

    def bits(self, count):
        """The next ``count`` random bits as an integer."""
        if count <= 0:
            return 0
        return self._rng.getrandbits(count)

    def choose(self, n):
        """A uniform choice in ``range(n)``; n must be >= 1."""
        if n < 1:
            raise ValueError("cannot choose among {} candidates".format(n))
        if n == 1:
            return 0
        return self._rng.randrange(n)


class SharedRandomBus(RandomStream):
    """One random stream shared by a width-cascaded router group.

    Cascaded routers receive their random bits from off chip so all
    members see identical values each cycle.  The bus memoizes values
    per cycle: every member that asks during cycle ``c`` receives the
    same answer, mirroring the shared external random wires.
    """

    def __init__(self, seed=0):
        super().__init__(seed)
        self._cycle = None
        self._cache = {}

    def begin_cycle(self, cycle):
        """Advance to a new clock cycle, invalidating the memo table."""
        if cycle != self._cycle:
            self._cycle = cycle
            self._cache.clear()

    def choose_shared(self, key, n):
        """A uniform choice in ``range(n)``, identical for every member
        of the cascade that asks with the same ``key`` this cycle.

        ``key`` identifies the decision point (forward port index), so
        multiple simultaneous arbitration decisions draw independent
        values while remaining consistent across the cascade.
        """
        memo_key = (key, n)
        if memo_key not in self._cache:
            self._cache[memo_key] = self.choose(n)
        return self._cache[memo_key]
