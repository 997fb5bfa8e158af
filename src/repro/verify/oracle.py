"""The online conformance oracle: protocol invariants, every cycle.

The oracle is a :class:`~repro.sim.component.Component` registered
*after* every router and endpoint, so its ``tick`` observes each
cycle's complete post-tick state: router FSMs and allocator bits have
already updated, and the words the routers staged onto their channels
this cycle are still visible (channels advance only after all
components tick).  From that vantage point it checks the invariants the
paper's reliability story rests on:

* **Locked circuits** — the allocator's IN-USE bits, the router's
  backward-owner table and each connection's claimed backward port
  form a consistent bijection, and no DATA word is ever staged onto a
  backward channel whose port is unowned (Section 4).
* **Stochastic routing stays in its dilation group** — an allocated
  backward port always belongs to the group of the requested logical
  direction (Section 4, self-routing).
* **Pipelined TURN reversal** — a pending reversal injects the
  router's STATUS word within the pipelined bound, and a reversal
  never silently skips its STATUS (Section 5.1).
* **Checksums match streamed payloads** — the oracle keeps its own
  shadow CRC over the DATA words each connection actually puts on the
  wire and compares it against the checksum the router reports in its
  STATUS word (Section 4).
* **BCB path reclamation frees what it traversed** — covered by the
  ownership bijection: a connection torn down by a backward-control
  bit that leaves its port claimed is flagged the same cycle.
* **Half-duplex discipline** — the channels' own monitors feed the
  oracle, so simultaneous bidirectional DATA is reported with a cycle.
* **Cascade IN-USE agreement** — :func:`attach_cascade_oracle` hooks
  the width-cascading consistency check so wired-AND disagreements
  between slices become oracle violations too (Section 5.1).
* **Masked ports carry no data** — once a port is disabled (a scan
  repair masking a faulty region), no DATA word may be staged onto it;
  only the scan subsystem's Off Port Drive test mode is exempt
  (Section 5.1, Scan Support).

Violations are collected (never raised mid-simulation) so a test can
run to quiescence and then report every offense at once with its
cycle, router and port; :meth:`Oracle.assert_clean` raises
:class:`OracleViolationError` with the full list.
"""

import operator

from repro.core import words as W
from repro.core.router import (
    FORWARD_STATE,
    IDLE_STATE,
    REVERSED_STATE,
)
from repro.endpoint.interface import _RX_IDLE
from repro.sim.component import Component
from repro.sim.snapshot import SnapshotFormatError

# Rule identifiers carried by Violation records.
RULE_OWNERSHIP = "ownership"
RULE_UNLOCKED_DATA = "data-on-unlocked-channel"
RULE_DIRECTION = "wrong-dilation-group"
RULE_STATUS_CHECKSUM = "status-checksum-mismatch"
RULE_MISSING_STATUS = "missing-status"
RULE_TURN_STALL = "turn-stall"
RULE_HALF_DUPLEX = "half-duplex"
RULE_CASCADE_INUSE = "cascade-inuse-mismatch"
RULE_LEAK = "quiescence-leak"
RULE_MASKED_PORT = "data-on-masked-port"
RULE_BCB_IGNORED = "bcb-ignored"


class Violation:
    """One protocol violation: where, when, which rule, and why."""

    __slots__ = ("cycle", "router", "port", "rule", "detail")

    def __init__(self, cycle, router, port, rule, detail):
        self.cycle = cycle
        self.router = router
        self.port = port
        self.rule = rule
        self.detail = detail

    def __repr__(self):
        return "<Violation @{} {} port={} {}: {}>".format(
            self.cycle, self.router, self.port, self.rule, self.detail
        )


class OracleViolationError(AssertionError):
    """Raised by :meth:`Oracle.assert_clean` when violations were seen."""

    def __init__(self, violations):
        self.violations = list(violations)
        lines = ["{} protocol violation(s):".format(len(self.violations))]
        lines.extend("  {!r}".format(v) for v in self.violations[:20])
        if len(self.violations) > 20:
            lines.append("  ... and {} more".format(len(self.violations) - 20))
        super().__init__("\n".join(lines))


class _ConnTrack:
    """Shadow of one connection's current circuit.

    A fresh track *is* the reset state: empty checksum, nothing
    counted, no stall, ``prev_pending`` as the connection stands.
    """

    __slots__ = ("conn", "shadow", "count", "prev_pending", "stall")

    def __init__(self, conn):
        self.conn = conn
        self.shadow = W.Checksum()
        self.count = 0
        self.prev_pending = conn.status_pending
        self.stall = 0


_HALF_DUPLEX_COUNT = operator.attrgetter("half_duplex_violations")


class Oracle(Component):
    """Per-cycle conformance checker over a set of routers.

    Shadow state is positional and local to each router: one track
    slot per forward port (``None`` while the connection there has no
    circuit to shadow) and one pre-tick ownership record per backward
    port (``None`` while it was free).  A port with nothing on it costs
    a constant-time glance; the rules themselves run only where a
    circuit, a claim or a staged DATA word gives them something to say.

    :param routers: the routers to watch (usually every live router in
        a network; dead routers are skipped each cycle).
    :param channels: optional iterable of channels whose half-duplex
        monitors the oracle should watch.
    """

    name = "oracle"
    #: Consecutive post-tick cycles a reversal's STATUS injection may
    #: stay pending.  The implementation emits STATUS on the first
    #: service tick after a reversal, so the bound is 2 observed cycles.
    turn_stall_bound = 2
    #: Recording (not checking) stops beyond this many violations,
    #: keeping pathological runs bounded.
    max_violations = 1000

    def __init__(self, routers, channels=None, endpoints=None):
        self.routers = list(routers)
        self.channels = list(channels) if channels is not None else []
        self.endpoints = list(endpoints) if endpoints is not None else []
        self.violations = []
        self.cycles_checked = 0
        # Per router, by forward port: the _ConnTrack of the connection
        # there, or None for the reset shadow with no STATUS pending.
        self._tracks = [[None] * len(r._conns) for r in self.routers]
        # Per router, by backward port: (owner, state, words_forwarded)
        # at the previous observed tick, or None if the port was free —
        # the pre-tick ownership a BCB pulse at a backward-channel head
        # was addressed to (see _check_owner).
        self._bcb_prev = [[None] * len(r._bwd_owner) for r in self.routers]
        # Per channel: collisions already reported.
        self._half_duplex_seen = [0] * len(self.channels)

    def __setstate__(self, state):
        # An oracle pickled before the shadow became positional keyed
        # its tracks by id(); restoring it here would drop every
        # mid-circuit checksum without a word.
        if "_bcb_prev" not in state:
            raise SnapshotFormatError(
                "snapshot holds a conformance oracle in a layout this "
                "build cannot resume (identity-keyed shadow state)"
            )
        self.__dict__.update(state)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    @property
    def ok(self):
        return not self.violations

    def violation_rules(self):
        """The distinct rule identifiers violated so far."""
        return sorted({v.rule for v in self.violations})

    def assert_clean(self):
        """Raise :class:`OracleViolationError` unless no violations."""
        if self.violations:
            raise OracleViolationError(self.violations)

    def _violate(self, cycle, router_name, port, rule, detail):
        self._record([Violation(cycle, router_name, port, rule, detail)])

    def _record(self, found):
        room = self.max_violations - len(self.violations)
        if room > 0:
            self.violations.extend(found[:room])

    # ------------------------------------------------------------------
    # Per-cycle checking
    # ------------------------------------------------------------------

    def tick(self, cycle):
        self.cycles_checked += 1
        for router, tracks, bcb_prev in zip(
            self.routers, self._tracks, self._bcb_prev
        ):
            if not router.dead:
                self._check_router(router, tracks, bcb_prev, cycle)
        self._record(self._sweep_half_duplex(cycle))

    def _sweep_half_duplex(self, cycle):
        """Collisions the channels counted since the last sweep.

        A channel counts a collision as it advances, which is after the
        observers of that cycle have ticked, so a collision on cycle
        ``c`` is reported at ``c + 1`` — or by :meth:`check_quiescent`,
        if the run ended on ``c``.
        """
        seen = self._half_duplex_seen
        now = list(map(_HALF_DUPLEX_COUNT, self.channels))
        if now == seen:
            return []
        self._half_duplex_seen = now
        return [
            Violation(
                cycle,
                channel.name,
                None,
                RULE_HALF_DUPLEX,
                "{} simultaneous bidirectional DATA cycle(s)".format(
                    count - before
                ),
            )
            for channel, before, count in zip(self.channels, seen, now)
            if count > before
        ]

    def _check_router(self, router, tracks, bcb_prev, cycle):
        # --- backward side: allocator/owner agreement, locked channels
        in_use = router.allocator._in_use
        ends = router.backward_ends
        for q, owner in enumerate(router._bwd_owner):
            if owner is not None:
                self._check_owner(router, q, owner, bcb_prev, cycle)
            else:
                # A free port: no pulse can be ignored, no claim can be
                # stale; only the allocator bit could disagree.
                if bcb_prev[q] is not None:
                    bcb_prev[q] = None
                if in_use[q]:
                    self._inuse_mismatch(router, q, owner, cycle)
            end = ends[q]
            if end is not None:
                staged = end._tx.staged
                if staged is not None and staged.kind == W.DATA:
                    self._check_backward_data(router, q, owner, staged, cycle)

        # --- forward side: per-connection invariants and shadows
        for fp, conn in enumerate(router._conns):
            if (
                conn.state == IDLE_STATE
                and conn.bwd_port is None
                and not conn.status_pending
            ):
                # Nothing claimed, nothing pending: no rule can fire
                # and the shadow is the reset one.
                if tracks[fp] is not None:
                    tracks[fp] = None
            else:
                self._check_conn(router, conn, tracks, fp, cycle)
        # Draining connections keep flushing words that will never be
        # checksummed: they have a claim to check but no shadow.
        for conn in router._draining:
            self._check_claim(router, conn, cycle)

    def _inuse_mismatch(self, router, q, owner, cycle):
        self._violate(
            cycle,
            router.name,
            q,
            RULE_OWNERSHIP,
            "allocator IN-USE={} but owner table says {}".format(
                router.allocator.in_use(q),
                "owned" if owner is not None else "free",
            ),
        )

    def _check_owner(self, router, q, owner, bcb_prev, cycle):
        """Rules of an owned backward port ``q``."""
        # Fast-reclamation conformance: the oracle observes the
        # post-tick, pre-advance state, so a BCB pulse still at the
        # head of a backward-control pipe was presented to this router
        # *this* cycle, and servicing it is unconditional at tick top
        # (Section 3.3): the addressed connection is torn down and its
        # port released before any port handling runs.  If the pre-tick
        # owner (last tick's record) still owns the port with its FSM
        # and forward-count unchanged, the router ignored the pulse.  A
        # serviced-then-reallocated port does not match: the reused
        # connection restarts in a fresh state with its word counter
        # rewound.
        prev = bcb_prev[q]
        if prev is not None:
            end = router.backward_ends[q]
            if end is not None and end.recv_bcb() is not None:
                prev_owner, prev_state, prev_words = prev
                if (
                    owner is prev_owner
                    and owner.bwd_port == q
                    and owner.state == prev_state
                    and owner.words_forwarded >= prev_words
                ):
                    self._violate(
                        cycle,
                        router.name,
                        q,
                        RULE_BCB_IGNORED,
                        "BCB reclamation pulse presented this cycle "
                        "but the owning connection (fwd port {}, "
                        "state {!r}) was not torn down".format(
                            owner.fwd_port, owner.state
                        ),
                    )
        bcb_prev[q] = (owner, owner.state, owner.words_forwarded)
        if owner not in router._conns and owner not in router._draining:
            self._violate(
                cycle,
                router.name,
                q,
                RULE_OWNERSHIP,
                "port owned by a connection the router no longer "
                "tracks (leaked by teardown)",
            )
        if not router.allocator._in_use[q]:
            self._inuse_mismatch(router, q, owner, cycle)
        if owner.bwd_port != q:
            self._violate(
                cycle,
                router.name,
                q,
                RULE_OWNERSHIP,
                "owner (fwd port {}) no longer claims this port "
                "(claims {})".format(owner.fwd_port, owner.bwd_port),
            )

    def _check_backward_data(self, router, q, owner, staged, cycle):
        """A DATA word is staged on backward port ``q``: may it be?"""
        config = router.config
        port_id = config.backward_port_id(q)
        if not config.port_enabled[port_id]:
            # A masked port must carry no traffic; only the scan
            # subsystem's Off Port Drive option (Table 2) may
            # deliberately push test words out of it.
            if not config.off_port_drive[port_id]:
                self._violate(
                    cycle,
                    router.name,
                    q,
                    RULE_MASKED_PORT,
                    "DATA staged on masked (disabled) port: "
                    "{!r}".format(staged),
                )
        elif owner is None:
            self._violate(
                cycle,
                router.name,
                q,
                RULE_UNLOCKED_DATA,
                "DATA staged on unowned backward port: "
                "{!r}".format(staged),
            )

    def _check_claim(self, router, conn, cycle):
        """A connection's claimed port must be the one the router and
        allocator think it owns, inside the right dilation group."""
        q = conn.bwd_port
        if q is None:
            return
        config = router.config
        if router._bwd_owner[q] is not conn:
            self._violate(
                cycle,
                router.name,
                q,
                RULE_OWNERSHIP,
                "connection (fwd port {}) claims a backward port "
                "it does not own".format(conn.fwd_port),
            )
        direction = conn.direction
        if direction is not None and q // config.dilation != direction:
            self._violate(
                cycle,
                router.name,
                q,
                RULE_DIRECTION,
                "port outside dilation group {} of requested "
                "direction {}".format(
                    config.backward_group(direction), direction
                ),
            )

    def _check_conn(self, router, conn, tracks, fp, cycle):
        self._check_claim(router, conn, cycle)
        state = conn.state

        # Outside the established states the router has reset (or never
        # started) its per-connection accumulators; mirror that, so a
        # reused connection object starts its next circuit with a fresh
        # shadow.
        if state != FORWARD_STATE and state != REVERSED_STATE:
            tracks[fp] = _ConnTrack(conn) if conn.status_pending else None
            return
        track = tracks[fp]
        if track is None or track.conn is not conn:
            track = tracks[fp] = _ConnTrack(conn)

        # Shadow-checksum the words this connection stages on the wire,
        # and verify the router's own STATUS word when it appears.
        out_end = None
        if state == REVERSED_STATE:
            out_end = router.forward_ends[conn.fwd_port]
        elif conn.bwd_port is not None:
            out_end = router.backward_ends[conn.bwd_port]
        saw_own_status = False
        if out_end is not None:
            staged = out_end._tx.staged
            if staged is not None:
                if staged.kind == W.DATA:
                    track.shadow.update(staged.value)
                    track.count += 1
                elif (
                    staged.kind == W.STATUS
                    and staged.value.router_name == router.name
                    and not staged.value.blocked
                ):
                    saw_own_status = True
                    status = staged.value
                    if (
                        status.checksum != track.shadow.value
                        or status.words_forwarded != track.count
                    ):
                        self._violate(
                            cycle,
                            router.name,
                            conn.fwd_port,
                            RULE_STATUS_CHECKSUM,
                            "STATUS reports cksum={:#04x} n={} but wire "
                            "carried cksum={:#04x} n={}".format(
                                status.checksum,
                                status.words_forwarded,
                                track.shadow.value,
                                track.count,
                            ),
                        )
                    track.shadow.reset()
                    track.count = 0

        # Pipelined TURN reversal: the STATUS either appears promptly
        # (stall bound) or, if pending quietly vanished while the
        # connection stayed established, was skipped outright.
        if conn.status_pending:
            track.stall += 1
            if track.stall == self.turn_stall_bound + 1:
                self._violate(
                    cycle,
                    router.name,
                    conn.fwd_port,
                    RULE_TURN_STALL,
                    "STATUS injection pending for more than {} "
                    "cycles after a reversal".format(self.turn_stall_bound),
                )
        else:
            if track.prev_pending and not saw_own_status:
                self._violate(
                    cycle,
                    router.name,
                    conn.fwd_port,
                    RULE_MISSING_STATUS,
                    "reversal completed without injecting a STATUS word",
                )
            track.stall = 0
        track.prev_pending = conn.status_pending

    # ------------------------------------------------------------------
    # End-of-run checks
    # ------------------------------------------------------------------

    def check_quiescent(self, cycle=None):
        """Record leaks on a network that should be fully drained.

        Call after traffic stops and the network reports quiet: any
        busy backward port or non-idle connection FSM on a live router
        is a resource leak, and so is an endpoint send or receive FSM
        still mid-protocol (METRO's statelessness claim, Section 2).
        Calling it on a network that *failed* to quiesce inventories
        what is stuck, for the same rule.  A half-duplex collision on
        the run's last cycle, which no later tick is left to report,
        is picked up here too.  Returns the violations recorded by this
        check.
        """
        found = self._sweep_half_duplex(cycle)
        found.extend(leak_inventory(self.routers, self.endpoints, cycle))
        self._record(found)
        return found


def leak_inventory(routers, endpoints, cycle=None):
    """``quiescence-leak`` violations for everything still mid-protocol.

    Stateless: reads only the routers and endpoints handed in, so the
    run watchdog can diagnose a stall without an :class:`Oracle`.
    """
    found = []

    def leak(component, port, detail):
        found.append(Violation(cycle, component.name, port, RULE_LEAK, detail))

    for router in routers:
        if router.dead:
            continue
        for q in router.busy_backward_ports():
            leak(router, q, "backward port still claimed after drain")
        for conn in router._conns:
            if conn.state != IDLE_STATE:
                leak(
                    router,
                    conn.fwd_port,
                    "connection FSM stuck in {!r}".format(conn.state),
                )
    for endpoint in endpoints:
        if getattr(endpoint, "dead", False):
            continue
        for port, send in sorted(endpoint._sends.items()):
            leak(endpoint, port, "send FSM stuck in {!r}".format(send.phase))
        if endpoint._queue:
            leak(
                endpoint,
                None,
                "{} message(s) still queued".format(len(endpoint._queue)),
            )
        for port, state in enumerate(endpoint._recv_states):
            if state.phase != _RX_IDLE:
                leak(
                    endpoint,
                    port,
                    "receive FSM stuck in {!r}".format(state.phase),
                )
    return found


def attach_oracle(network):
    """Attach a conformance oracle to a built network; returns it.

    The oracle is registered as an engine *observer*, so each of its
    ticks observes the post-tick state of every router plus the words
    staged this cycle — even by components (traffic sources, fault
    hooks) registered after the oracle was attached.
    """
    oracle = Oracle(
        list(network.all_routers()),
        channels=list(network.channels.values()),
        endpoints=list(network.endpoints),
    )
    network.engine.add_observer(oracle)
    return oracle


class CascadeOracle:
    """Oracles over every slice of a cascaded network, plus the
    wired-AND IN-USE consistency check between them."""

    def __init__(self, cascaded, slice_oracles):
        self.cascaded = cascaded
        self.slice_oracles = slice_oracles
        self.cascade_violations = []
        cascaded.consistency_observer = self._on_mismatch

    def _on_mismatch(self, router_key, port, owners):
        self.cascade_violations.append(
            Violation(
                self.cascaded.slices[0].engine.cycle,
                "r{}.{}.{}".format(*router_key),
                port,
                RULE_CASCADE_INUSE,
                "slices disagree on IN-USE owner: {}".format(owners),
            )
        )

    @property
    def violations(self):
        merged = list(self.cascade_violations)
        for oracle in self.slice_oracles:
            merged.extend(oracle.violations)
        return merged

    @property
    def ok(self):
        return not self.violations

    def assert_clean(self):
        if self.violations:
            raise OracleViolationError(self.violations)


def attach_cascade_oracle(cascaded, **kwargs):
    """Attach per-slice oracles plus the cross-slice IN-USE check."""
    return CascadeOracle(
        cascaded, [attach_oracle(net, **kwargs) for net in cascaded.slices]
    )
