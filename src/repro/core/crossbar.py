"""The dilated crossbar allocator.

A METRO router's central decision is made here: given a requested
logical direction, pick a backward port from the ``d`` equivalent ports
of that direction's dilation group — *randomly* among those that are
free and enabled (paper, Section 4, Stochastic Path Selection).  Random
selection needs no state beyond the router itself, is cheap in silicon,
and makes source-responsible retries explore alternate paths, which is
what gives METRO networks their tolerance of congestion and dynamic
faults.

The allocator also supports two non-architectural selection policies
(first-free and round-robin) used only by the ablation benchmarks to
quantify what randomness buys.
"""

RANDOM = "random"
FIRST_FREE = "first-free"
ROUND_ROBIN = "round-robin"

_POLICIES = frozenset((RANDOM, FIRST_FREE, ROUND_ROBIN))


class CrossbarAllocator:
    """Tracks backward-port occupancy and arbitrates connection requests.

    :param config: the router's :class:`~repro.core.parameters.RouterConfig`
        (supplies dilation grouping and port enables).
    :param random_stream: source of selection randomness; for cascaded
        routers this is the shared bus, otherwise a per-router stream.
    :param policy: selection policy; the METRO architecture specifies
        RANDOM, the others exist for ablation studies.
    """

    def __init__(self, config, random_stream, policy=RANDOM):
        if policy not in _POLICIES:
            raise ValueError("unknown selection policy {!r}".format(policy))
        self.config = config
        self.random_stream = random_stream
        self.policy = policy
        self._in_use = [False] * config.params.o
        self._rr_next = 0

    def free_ports(self, direction):
        """Enabled, unoccupied backward ports in the dilation group."""
        config = self.config
        candidates = []
        for port in config.backward_group(direction):
            if self._in_use[port]:
                continue
            if not config.port_enabled[config.backward_port_id(port)]:
                continue
            candidates.append(port)
        return candidates

    def allocate(self, direction, decision_key=0):
        """Try to claim a backward port in ``direction``.

        Returns the backward-port index, or None when every equivalent
        output is busy or disabled — the connection is then *blocked*.
        ``decision_key`` distinguishes simultaneous arbitration points
        for shared-randomness cascading.
        """
        candidates = self.free_ports(direction)
        if not candidates:
            return None
        port = candidates[self._select(len(candidates), decision_key)]
        self._in_use[port] = True
        return port

    def _select(self, n, decision_key):
        if n == 1:
            return 0
        if self.policy == RANDOM:
            choose_shared = getattr(self.random_stream, "choose_shared", None)
            if choose_shared is not None:
                return choose_shared(decision_key, n)
            return self.random_stream.choose(n)
        if self.policy == FIRST_FREE:
            return 0
        # Round-robin: rotate a single pointer across all decisions.
        index = self._rr_next % n
        self._rr_next += 1
        return index

    def release(self, port):
        """Return a backward port to the free pool."""
        if not self._in_use[port]:
            raise ValueError("backward port {} was not in use".format(port))
        self._in_use[port] = False

    def in_use(self, port):
        return self._in_use[port]

    def occupancy(self):
        """Number of backward ports currently claimed."""
        return sum(self._in_use)
