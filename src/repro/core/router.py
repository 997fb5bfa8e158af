"""The METRO router: a dilated, pipelined, circuit-switched crossbar.

This module implements the router behaviour of Sections 3-5 of the
paper as a clocked component:

* **Self routing** — the leading words of each stream carry the routing
  specification; the router extracts its direction bits, arbitrates for
  a backward port in that dilation group (randomly among free
  equivalents) and locks the crosspoint for the life of the connection.
* **Pipelined circuit switching** — data traverses the router in ``dp``
  clock cycles through an internal pipeline; no word is ever buffered
  beyond that pipeline (stateless network: stopping the clock loses no
  messages).
* **Connection setup options** — ``hw >= 1`` routers consume ``hw``
  words per stage (pipelined connection setup); ``hw = 0`` routers
  shift the head word left by ``log2(radix)`` bits, optionally
  *swallowing* it when the configured swallow bit says the word is
  exhausted.
* **Connection reversal (TURN)** — when a TURN passes through, the
  router flushes its pipeline, reverses the crosspoint, injects a
  STATUS word (blocked flag + running checksum) into the new data
  stream and fills reversal bubbles with DATA-IDLE.  Any number of
  reversals may occur per connection.
* **Blocking** — when every enabled backward port in the requested
  direction is busy the connection blocks.  In *detailed* mode the
  router swallows the stream and answers the eventual TURN with
  STATUS(blocked) + DROP; in *fast reclamation* mode it immediately
  propagates a backward-control-bit (BCB) drop toward the source,
  freeing resources at once.
* **Fault containment** — a connection whose live input goes silent for
  ``signal_timeout`` cycles is torn down so a dead upstream component
  cannot wedge network resources forever (in hardware, loss of line
  coding is similarly detectable).

Port geometry: forward port ``p`` attaches to ``forward_ends[p]`` (the
*B* side of the upstream channel); backward port ``q`` attaches to
``backward_ends[q]`` (the *A* side of the downstream channel).
"""

from repro.core import mutation as _mutation
from repro.core import words as W
from repro.core.crossbar import CrossbarAllocator, RANDOM
from repro.core.parameters import RouterConfig
from repro.core.random_source import RandomStream, SharedRandomBus
from repro.sim.component import ACTIVE, Component, PARKED
from repro.telemetry.nullobj import NULL_TELEMETRY

# Forward-port FSM states (exposed for tests via connection_state()).
IDLE_STATE = "idle"          # no connection; waiting for a head word
SETUP_STATE = "setup"        # hw >= 1: consuming header words
FORWARD_STATE = "forward"    # established; data flowing source -> dest
BLOCKED_STATE = "blocked"    # detailed-mode block; swallowing until TURN
REVERSED_STATE = "reversed"  # established; data flowing dest -> source
DISCARD_STATE = "discard"    # torn down; draining in-flight words


class _Connection:
    """Per-forward-port connection state."""

    __slots__ = (
        "state",
        "fwd_port",
        "bwd_port",
        "pipe",
        "checksum",
        "words_forwarded",
        "header_remaining",
        "direction",
        "status_pending",
        "silent_cycles",
        "drop_then_idle",
    )

    def __init__(self, fwd_port, dp):
        self.fwd_port = fwd_port
        self.pipe = [None] * dp
        self.checksum = W.Checksum()
        self.reset()

    def reset(self):
        self.state = IDLE_STATE
        self.bwd_port = None
        for index in range(len(self.pipe)):
            self.pipe[index] = None
        self.checksum.reset()
        self.words_forwarded = 0
        self.header_remaining = 0
        self.direction = None
        self.status_pending = False
        self.silent_cycles = 0
        self.drop_then_idle = False

    def pipe_push(self, word):
        """Shift the internal pipeline one stage; returns the word exiting."""
        pipe = self.pipe
        pipe.insert(0, word)
        return pipe.pop()

    def pipe_clear(self):
        for index in range(len(self.pipe)):
            self.pipe[index] = None

    def begin_new_direction(self):
        """Bookkeeping common to every reversal of the data flow."""
        self.status_pending = True
        self.silent_cycles = 0
        self.pipe_clear()


class MetroRouter(Component):
    """One METRO routing component.

    :param params: architectural parameters (Table 1).
    :param name: identifier used in traces and STATUS words.
    :param config: configuration options (Table 2); a default-valued
        config is created when omitted.
    :param random_stream: selection randomness; a
        :class:`~repro.core.random_source.SharedRandomBus` makes this
        router cascade-consistent with its group.
    :param selection_policy: backward-port selection policy; METRO
        specifies random, the others exist for ablation studies.
    :param signal_timeout: cycles of silence on a live connection
        before the router unilaterally tears it down (fault
        containment); None disables the watchdog.
    """

    def __init__(
        self,
        params,
        name="router",
        config=None,
        random_stream=None,
        selection_policy=RANDOM,
        signal_timeout=64,
    ):
        self.params = params
        self.name = name
        self.config = config if config is not None else RouterConfig(params)
        if self.config.params is not params:
            raise ValueError("config was built for different parameters")
        if random_stream is None:
            random_stream = RandomStream(seed=hash(name) & 0xFFFFFFFF)
        self.random_stream = random_stream
        #: Cascaded routers share a bus that must be advanced once per
        #: cycle; checked here once instead of once per tick.
        self._shared_bus = isinstance(random_stream, SharedRandomBus)
        self.allocator = CrossbarAllocator(
            self.config, random_stream, policy=selection_policy
        )
        self.signal_timeout = signal_timeout
        #: The TelemetryHub bound to this router's network, or the null
        #: object; every event site funnels through _record, which
        #: guards on .enabled.
        self.telemetry = NULL_TELEMETRY
        #: Channel ends, installed by the network builder via attach_*().
        self.forward_ends = [None] * params.i
        self.backward_ends = [None] * params.o
        self._conns = [_Connection(p, params.dp) for p in range(params.i)]
        #: Which connection owns each backward port (or None).  Entries
        #: may be draining connections that no longer own a forward port.
        self._bwd_owner = [None] * params.o
        #: Connections whose DROP has been accepted but whose pipelines
        #: are still flushing downstream; their forward port is already
        #: free for a new circuit (back-to-back connection support).
        self._draining = []
        #: Boundary-capture registers for scan (last word seen per port;
        #: forward ports then backward ports, Table 2 port-id order).
        self.boundary_capture = [None] * (params.i + params.o)
        #: Scan-driven test word per backward port (off-port drive).
        self._scan_drive = [None] * params.o
        self._owned = 0
        self._cycle = 0
        #: A dead router (hard fault) goes completely silent; neighbours
        #: recover through their dead-signal watchdogs and sources route
        #: around it by stochastic retry.
        self.dead = False
        #: Set by the event-driven engine backend; out-of-tick mutators
        #: (forced teardowns, scan drives) call it so a parked router is
        #: re-scheduled.  None under the dense reference engine.
        self.wake_hook = None

    # ------------------------------------------------------------------
    # Snapshot support
    # ------------------------------------------------------------------

    #: Derived state the tick's fast paths rest on: never pickled, and
    #: valid the moment a snapshot is restored (out-of-tick mutators run
    #: before the first tick).  ``_rx_slots`` is ``(forward port, its
    #: receive pipe's slots)`` per wired port; None means "rebuild on
    #: the next tick", because the channel ends may still be incomplete
    #: inside ``__setstate__``.  ``_owned`` is never less than the
    #: number of owned backward ports: it is recounted, never stepped,
    #: at every claim and release.  ``_scan_pending`` may be True with
    #: nothing to drive, never False with a word waiting.
    _rx_slots = None
    _scan_pending = True

    def __getstate__(self):
        """Shed engine- and scan-installed machinery for snapshots.

        ``wake_hook`` is re-installed by the event backend's prepare
        pass.  ``multitap`` (when a scan fabric attached one) holds
        closure-captured scan registers that cannot pickle; it is
        replaced by a marker and rebuilt on restore.  Every scan
        transaction begins from Test-Logic-Reset, so residual TAP/DR
        state between transactions is unobservable and a fresh MultiTap
        is behaviourally identical — except for deliberately killed TAP
        ports, which the marker carries across.
        """
        state = dict(self.__dict__)
        state["wake_hook"] = None
        for name in ("_rx_slots", "_owned", "_scan_pending"):
            state.pop(name, None)
        multitap = state.pop("multitap", None)
        if multitap is not None:
            state["_scan_marker"] = (multitap.sp, sorted(multitap.dead_ports))
        return state

    def __setstate__(self, state):
        marker = state.pop("_scan_marker", None)
        self.__dict__.update(state)
        self._count_owned()
        if marker is not None:
            from repro.scan.controller import attach_scan

            sp, dead_ports = marker
            multitap = attach_scan(self, sp=sp)
            multitap.dead_ports.update(dead_ports)

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------

    def attach_forward(self, port, channel_end):
        """Connect forward port ``port`` to the B side of its channel."""
        self.forward_ends[port] = channel_end
        self._rx_slots = None

    def attach_backward(self, port, channel_end):
        """Connect backward port ``port`` to the A side of its channel."""
        self.backward_ends[port] = channel_end

    # ------------------------------------------------------------------
    # Introspection (used by tests, stats and the scan subsystem)
    # ------------------------------------------------------------------

    def connection_state(self, fwd_port):
        return self._conns[fwd_port].state

    def connected_backward_port(self, fwd_port):
        return self._conns[fwd_port].bwd_port

    def busy_backward_ports(self):
        return [q for q, owner in enumerate(self._bwd_owner) if owner is not None]

    def is_quiescent(self):
        """True when no connection is open or in flight through here."""
        return (
            all(conn.state == IDLE_STATE for conn in self._conns)
            and not self._draining
        )

    # ------------------------------------------------------------------
    # Activity protocol (event-driven engine backend)
    # ------------------------------------------------------------------

    def activity_state(self):
        """How much of a cycle this router needs (see repro.sim.component).

        A dead router is parked outright: its tick is an unconditional
        early return.  A live router parks only when it is quiescent,
        has no scan drive pending, *and* its last tick read silence on
        every attached forward port — the boundary capture registers
        then already hold the ``None`` the reference engine would keep
        rewriting, so skipped cycles are observably identical even if a
        run stops mid-park.
        """
        if self.dead:
            return PARKED
        if self._draining:
            return ACTIVE
        for conn in self._conns:
            if conn.state != IDLE_STATE:
                return ACTIVE
        for fp in range(self.params.i):
            if self.boundary_capture[fp] is not None:
                return ACTIVE
        for word in self._scan_drive:
            if word is not None:
                return ACTIVE
        return PARKED

    def on_park(self):
        """Nothing to normalize: see :meth:`activity_state`."""

    def attached_channels(self):
        """The channel of every wired port, forward ports first."""
        return [
            end.channel
            for end in self.forward_ends + self.backward_ends
            if end is not None
        ]

    def _notify_wake(self):
        if self.wake_hook is not None:
            self.wake_hook(self)

    def scan_drive_backward(self, port, word):
        """Scan subsystem: drive ``word`` out a *disabled* backward port.

        Models the Off Port Drive Output option (Table 2): a disabled
        port can still drive test patterns so the attached wire and the
        neighbouring component's boundary can be examined without
        taking the rest of the router out of service.
        """
        port_id = self.config.backward_port_id(port)
        if self.config.port_enabled[port_id]:
            raise ValueError(
                "backward port {} is enabled; disable it first".format(port)
            )
        if not self.config.off_port_drive[port_id]:
            raise ValueError(
                "off-port drive not enabled for backward port {}".format(port)
            )
        self._scan_drive[port] = word
        self._scan_pending = True
        self._notify_wake()

    # ------------------------------------------------------------------
    # Per-cycle behaviour
    # ------------------------------------------------------------------

    def tick(self, cycle):
        if self.dead:
            return
        self._cycle = cycle
        if self._shared_bus:
            self.random_stream.begin_cycle(cycle)
        if self._owned:
            self._service_backward_bcb()
        if self._draining:
            self._service_draining()
        rx = self._rx_slots
        if rx is None:
            rx = self._rx_slots = [
                (fp, end._rx.slots)
                for fp, end in enumerate(self.forward_ends)
                if end is not None
            ]
        # The port loop is inlined (rather than calling a per-port
        # helper).  A silent port with an idle connection and a boundary
        # register already None is the overwhelmingly common case on a
        # lightly loaded network: it is decided from the receive pipe's
        # last slot, which is None whatever ``dead`` or a fault
        # transform would say; only a word goes through recv().
        conns = self._conns
        boundary = self.boundary_capture
        enabled = self.config.port_enabled
        for fp, slots in rx:
            word = slots[-1]
            conn = conns[fp]
            if word is None:
                if conn.state == IDLE_STATE and boundary[fp] is None:
                    continue
            else:
                word = self.forward_ends[fp].recv()
            state = conn.state
            # The boundary register observes the pins even on a
            # disabled port — that observability is what port-isolation
            # tests use.  (Forward port ids equal forward indices.)
            boundary[fp] = word
            if state == IDLE_STATE and (word is None or word.kind != W.DATA):
                continue
            if not enabled[fp]:
                continue
            if state == IDLE_STATE:
                self._handle_idle(conn, word)
            elif state == SETUP_STATE:
                self._handle_setup(conn, word)
            elif state == FORWARD_STATE:
                self._handle_forward(conn, word)
            elif state == BLOCKED_STATE:
                self._handle_blocked(conn, word)
            elif state == REVERSED_STATE:
                self._handle_reversed(conn, word)
            elif state == DISCARD_STATE:
                self._handle_discard(conn, word)
        if self._scan_pending:
            self._drive_scan_outputs()

    def _service_draining(self):
        """Flush pipelines of closed connections; free ports on DROP exit."""
        for conn in list(self._draining):
            out = conn.pipe_push(None)
            if out is None:
                continue
            self.backward_ends[conn.bwd_port].send(out)
            if out.kind == W.DROP:
                self._record("conn-drop", conn.fwd_port, conn.bwd_port)
                self._release_backward(conn)
                self._draining.remove(conn)

    # -- fast reclamation arriving from downstream ---------------------

    def _service_backward_bcb(self):
        """React to BCB drops propagating up from blocked routers below."""
        for q, conn in enumerate(self._bwd_owner):
            if conn is None:
                continue
            end = self.backward_ends[q]
            if end is None or end._bcb_rx.slots[-1] is None:
                continue
            stage_count = end.recv_bcb()
            if stage_count is None:
                continue  # a dead wire delivers no pulse
            if _mutation.ACTIVE and _mutation.enabled(_mutation.IGNORE_BCB):
                continue
            # Terminate the downstream side, free the output, and keep
            # propagating the (incremented) drop toward the source.
            end.send(W.DROP_WORD)
            skip_release = _mutation.ACTIVE and _mutation.enabled(
                _mutation.SKIP_BCB_RELEASE
            )
            if conn in self._draining:
                # Already closing; just finish immediately.
                if not skip_release:
                    self._release_backward(conn)
                self._draining.remove(conn)
                continue
            fwd_end = self.forward_ends[conn.fwd_port]
            if fwd_end is not None:
                fwd_end.send_bcb(stage_count + 1)
            self._record("bcb-propagate", conn.fwd_port, stage_count + 1)
            if not skip_release:
                self._release_backward(conn)
            conn.reset()
            conn.state = DISCARD_STATE

    # -- forward-port FSM ----------------------------------------------

    def _handle_idle(self, conn, word):
        if word is None or word.kind != W.DATA:
            # Stale control words or silence: nothing to route.
            return
        if self.params.hw == 0:
            self._route(conn, self._extract_direction_hw0(conn, word))
        else:
            conn.direction = word.value & (self.config.radix - 1)
            conn.silent_cycles = 0
            conn.header_remaining = self.params.hw - 1
            if conn.header_remaining == 0:
                self._route(conn, None)
            else:
                conn.state = SETUP_STATE

    def _extract_direction_hw0(self, conn, word):
        """Pull direction bits off the head word; returns the shifted word.

        The head word's top ``log2(radix)`` bits select the direction;
        the word is shifted left so the next stage sees *its* bits on
        top.  When this forward port's swallow bit is set the word is
        exhausted and dropped entirely.
        """
        bits = self.params.direction_bits(self.config.dilation)
        width = self.params.w
        value = word.value
        conn.direction = value >> (width - bits) if bits else 0
        if self.config.swallow[conn.fwd_port]:
            return None
        shifted = (value << bits) & ((1 << width) - 1)
        return W.data(shifted)

    def _route(self, conn, forward_word):
        """Arbitrate for a backward port and establish (or block)."""
        direction = conn.direction
        if _mutation.ACTIVE and _mutation.enabled(_mutation.WRONG_DIRECTION):
            direction = (direction + 1) % self.config.radix
        backward = self.allocator.allocate(direction, decision_key=conn.fwd_port)
        if backward is None:
            self._block(conn)
            return
        conn.bwd_port = backward
        self._bwd_owner[backward] = conn
        if not (
            _mutation.ACTIVE and _mutation.enabled(_mutation.STALE_OWNED_COUNT)
        ):
            self._count_owned()
        conn.state = FORWARD_STATE
        conn.silent_cycles = 0
        self._record("conn-open", conn.fwd_port, (conn.direction, backward))
        if forward_word is not None and forward_word.kind == W.DATA:
            # The shifted head word is forwarded data like any other.
            conn.checksum.update(forward_word.value)
            conn.words_forwarded += 1
        self._emit_backward(conn, conn.pipe_push(forward_word))

    def _block(self, conn):
        fp = conn.fwd_port
        fast = self.config.fast_reclaim[fp]  # forward port id == index
        self._record(
            "conn-blocked", fp, (conn.direction, "fast" if fast else "detailed")
        )
        if fast:
            self.forward_ends[fp].send_bcb(1)
            self._record("bcb-sent", fp, 1)
            conn.reset()
            conn.state = DISCARD_STATE
        else:
            conn.state = BLOCKED_STATE
            conn.silent_cycles = 0

    def _handle_setup(self, conn, word):
        if word is None:
            if self._watchdog(conn):
                conn.reset()
            return
        conn.silent_cycles = 0
        if word.kind == W.DROP:
            conn.reset()
            return
        if word.kind == W.TURN:
            # Malformed: reversal before the header completed.  Answer
            # like a blocked connection so the source learns and retries.
            self._finish_blocked_turn(conn)
            return
        if word.kind == W.IDLE:
            return
        conn.header_remaining -= 1
        if conn.header_remaining <= 0:
            self._route(conn, None)

    def _handle_forward(self, conn, word):
        if word is not None and word.kind == W.DROP:
            # Accept the close at pipe *entry*: the forward port frees
            # immediately (a new circuit request may be one cycle
            # behind the DROP), while the old pipeline keeps flushing
            # downstream and releases the backward port when the DROP
            # exits.
            self._begin_drain(conn)
            return
        if conn.status_pending:
            # The flow just reversed back to forward through this
            # router; its STATUS word leads the new stream downstream.
            self._emit_status(conn, self.backward_ends[conn.bwd_port])
            if word is not None and word.kind == W.DATA:
                conn.checksum.update(word.value)
                conn.words_forwarded += 1
            conn.pipe_push(word)  # pipeline refilling; nothing exits yet
            return
        if word is None:
            if self._watchdog(conn):
                self._teardown_downstream(conn)
                return
            # Hold the line: a bubble becomes DATA-IDLE downstream so
            # the circuit visibly stays open.
            word = W.IDLE_WORD
        else:
            conn.silent_cycles = 0
            if word.kind == W.DATA:
                conn.checksum.update(word.value)
                conn.words_forwarded += 1
        out = conn.pipe_push(word)
        self._emit_backward(conn, out)
        if out is not None and out.kind == W.TURN:
            conn.state = REVERSED_STATE
            conn.begin_new_direction()
            self._record("conn-turn", conn.fwd_port, conn.bwd_port)

    def _begin_drain(self, conn):
        """Accept a forward-direction close: free the port, flush later."""
        out = conn.pipe_push(W.DROP_WORD)
        self._emit_backward(conn, out)
        self._record("conn-close-accepted", conn.fwd_port, conn.bwd_port)
        self._draining.append(conn)
        self._conns[conn.fwd_port] = _Connection(conn.fwd_port, self.params.dp)
        if _mutation.ACTIVE and _mutation.enabled(_mutation.FREE_PORT_EARLY):
            # Seeded bug: unlock the crosspoint while the old stream is
            # still flushing through it.
            drained = conn.bwd_port
            self.allocator.release(drained)
            self._bwd_owner[drained] = None

    def _handle_blocked(self, conn, word):
        if word is None:
            if self._watchdog(conn):
                conn.reset()
            return
        conn.silent_cycles = 0
        if word.kind == W.DROP:
            conn.reset()
        elif word.kind == W.TURN:
            self._finish_blocked_turn(conn)
        # DATA/IDLE words of the doomed stream are swallowed silently.

    def _finish_blocked_turn(self, conn):
        """Detailed-mode reply: STATUS(blocked) then DROP, then idle.

        Nothing can be in flight behind the TURN (the upstream router
        reversed as it forwarded it), so after emitting the deferred
        DROP the port returns straight to idle.
        """
        self.forward_ends[conn.fwd_port].send(
            W.status(True, conn.checksum.value, conn.words_forwarded, self.name)
        )
        self._record("conn-blocked-reply", conn.fwd_port, None)
        conn.reset()
        conn.state = DISCARD_STATE
        conn.drop_then_idle = True

    def _handle_reversed(self, conn, word_from_upstream):
        fp_end = self.forward_ends[conn.fwd_port]
        bwd_end = self.backward_ends[conn.bwd_port]

        if word_from_upstream is not None and word_from_upstream.kind == W.DROP:
            # Close arriving against the reverse flow: the source gave
            # up (e.g. reply timeout).  Tear down both sides at once.
            bwd_end.send(W.DROP_WORD)
            self._record("conn-drop", conn.fwd_port, conn.bwd_port)
            self._release_backward(conn)
            conn.reset()
            return

        reverse_in = bwd_end.recv()
        self.boundary_capture[self.params.i + conn.bwd_port] = reverse_in
        if reverse_in is None:
            if self._watchdog(conn):
                fp_end.send(W.DROP_WORD)
                self._record("watchdog-teardown", conn.fwd_port, "reversed")
                self._release_backward(conn)
                conn.reset()
                return
        else:
            conn.silent_cycles = 0
            if reverse_in.kind == W.DATA:
                conn.checksum.update(reverse_in.value)
                conn.words_forwarded += 1

        out = conn.pipe_push(reverse_in)
        if conn.status_pending:
            # The router's own STATUS word precedes all reverse data.
            # (The pipe is freshly cleared, so nothing exits this cycle.)
            self._emit_status(conn, fp_end)
            return
        if out is None:
            fp_end.send(W.IDLE_WORD)
            return
        fp_end.send(out)
        if out.kind == W.DROP:
            self._record("conn-drop", conn.fwd_port, conn.bwd_port)
            self._release_backward(conn)
            conn.reset()
        elif out.kind == W.TURN:
            # The destination handed the direction back: flow forward
            # again, with a fresh STATUS leading the new stream.
            conn.state = FORWARD_STATE
            conn.begin_new_direction()
            self._record("conn-turn", conn.fwd_port, conn.bwd_port)

    def _handle_discard(self, conn, word):
        if conn.drop_then_idle:
            self.forward_ends[conn.fwd_port].send(W.DROP_WORD)
            conn.reset()
            return
        if word is None:
            if self._watchdog(conn):
                conn.reset()
            return
        conn.silent_cycles = 0
        if word.kind == W.DROP:
            conn.reset()

    def backward_owner_ports(self):
        """Forward-port index owning each backward port (None if free).

        Draining connections still count as owners — the wired-AND
        IN-USE signal stays asserted until the DROP leaves the chip.
        """
        return [
            owner.fwd_port if owner is not None else None
            for owner in self._bwd_owner
        ]

    def force_teardown(self, fwd_port):
        """Shut a connection down immediately (cascade fault containment).

        Used by the width-cascading wired-AND IN-USE check (Section
        5.1): on an allocation disagreement the connection is killed on
        every attached router — DROP downstream, BCB upstream — so the
        fault cannot corrupt further traffic.
        """
        conn = self._conns[fwd_port]
        if conn.state == IDLE_STATE:
            return
        if conn.bwd_port is not None:
            self.backward_ends[conn.bwd_port].send(W.DROP_WORD)
            self._release_backward(conn)
        end = self.forward_ends[fwd_port]
        if end is not None:
            end.send_bcb(1)
        self._record("forced-teardown", fwd_port, None)
        conn.reset()
        conn.state = DISCARD_STATE
        self._notify_wake()

    def quiesce_backward_port(self, q):
        """Evict whatever owns backward port ``q`` (repair preparation).

        The online fault manager must not run an isolation test over a
        wire while a live circuit holds it, so it evicts the owner
        first: an active connection is torn down exactly like a
        cascade containment (DROP downstream, BCB upstream); a
        draining connection has its flush cut short with an immediate
        DROP.  Returns True when a connection was evicted.
        """
        owner = self._bwd_owner[q]
        if owner is None:
            return False
        if owner in self._draining:
            self.backward_ends[q].send(W.DROP_WORD)
            self._record("conn-drop", owner.fwd_port, q)
            self._release_backward(owner)
            self._draining.remove(owner)
            self._notify_wake()
        else:
            self.force_teardown(owner.fwd_port)
        return True

    # -- helpers --------------------------------------------------------

    def _emit_status(self, conn, end):
        if _mutation.ACTIVE and _mutation.enabled(_mutation.SKIP_STATUS):
            # Seeded bug: the reversal proceeds without its STATUS word.
            conn.status_pending = False
            conn.checksum.reset()
            conn.words_forwarded = 0
            return
        checksum = conn.checksum.value
        if _mutation.ACTIVE and _mutation.enabled(
            _mutation.CORRUPT_STATUS_CHECKSUM
        ):
            checksum ^= 0xFF
        end.send(
            W.status(False, checksum, conn.words_forwarded, self.name)
        )
        conn.status_pending = False
        # The accumulators begin afresh for the new flow direction.
        conn.checksum.reset()
        conn.words_forwarded = 0

    def _emit_backward(self, conn, word):
        if word is not None:
            self.backward_ends[conn.bwd_port].send(word)

    def _release_backward(self, conn):
        if conn.bwd_port is None:
            return
        if _mutation.ACTIVE:
            if _mutation.enabled(_mutation.LEAK_PORT_ON_DROP):
                # Seeded bug: the crosspoint is never returned to the
                # pool; the connection just forgets it owned one.
                conn.bwd_port = None
                return
            if not self.allocator.in_use(conn.bwd_port):
                # A seeded early release already freed this port.
                conn.bwd_port = None
                return
        self.allocator.release(conn.bwd_port)
        self._bwd_owner[conn.bwd_port] = None
        self._count_owned()
        conn.bwd_port = None

    def _count_owned(self):
        """Recount (never step) ``_owned``, at every claim and release."""
        owners = self._bwd_owner
        self._owned = len(owners) - owners.count(None)

    def _teardown_downstream(self, conn):
        self.backward_ends[conn.bwd_port].send(W.DROP_WORD)
        self._record("watchdog-teardown", conn.fwd_port, "forward")
        self._release_backward(conn)
        conn.reset()

    def _watchdog(self, conn):
        """Count silence; True when the dead-signal timeout expires."""
        if self.signal_timeout is None:
            return False
        conn.silent_cycles += 1
        return conn.silent_cycles >= self.signal_timeout

    def _drive_scan_outputs(self):
        for q, word in enumerate(self._scan_drive):
            if word is None:
                continue
            end = self.backward_ends[q]
            if end is not None:
                end.send(word)
            self._scan_drive[q] = None
        self._scan_pending = False

    def _record(self, kind, port, detail):
        if self.telemetry.enabled:
            self.telemetry.router_event(self._cycle, self, kind, port, detail)
