"""Source-responsible network interfaces (endpoints).

METRO routers are deliberately simple; the intelligence lives here.
An :class:`Endpoint` owns some number of *source ports* (wires into
stage 0) and *receive ports* (wires from the final stage) and runs the
end-to-end protocol of Section 4:

Sending
    header (per the codec) + payload + checksum word, then TURN.  The
    reply stream carries one STATUS word per router followed by the
    destination's acknowledgment and a TURN handing the direction
    back; the source then closes with DROP.  Blocked, corrupted,
    nacked, dropped or silent connections are *retried* — the routers'
    random output selection means each retry explores a fresh path, so
    the source needs no knowledge of the redundant wiring.

Receiving
    collect data words until TURN; verify the trailing checksum; reply
    with an ACK word (optionally application data from a reply
    handler, padded with DATA-IDLE while the handler's simulated
    latency elapses — the paper's variable-delay remote-read case),
    then TURN; finally expect the source's DROP.  A further data round
    instead of DROP re-enters the collect state, supporting protocols
    with any number of reversals.
"""

import random

from repro.core import words as W
from repro.endpoint import messages as M
from repro.endpoint.retry import UniformBackoff
from repro.sim.component import NULL_TELEMETRY, Component

ACK_OK = 1
ACK_BAD = 0

# Send phases.
_STREAMING = "streaming"
_AWAIT_REPLY = "await-reply"
_CLOSING = "closing"

# Receive phases.
_RX_IDLE = "rx-idle"
_RX_COLLECT = "rx-collect"
_RX_REPLY = "rx-reply"
_RX_AWAIT_CLOSE = "rx-await-close"


class _SendState:
    """Progress of one in-flight outgoing message attempt."""

    __slots__ = (
        "message",
        "port",
        "phase",
        "words",
        "position",
        "header_len",
        "statuses",
        "reply_words",
        "turn_seen",
        "timer",
    )

    def __init__(self, message, port, words, header_len=0):
        self.message = message
        self.port = port
        self.phase = _STREAMING
        self.words = words
        self.header_len = header_len
        self.position = 0
        self.statuses = []
        self.reply_words = []
        self.turn_seen = False
        self.timer = 0


class _RecvState:
    """Progress of one receive port."""

    __slots__ = ("phase", "buffer", "reply", "reply_position", "delay", "timer")

    def __init__(self):
        self.reset()

    def reset(self):
        self.phase = _RX_IDLE
        self.buffer = []
        self.reply = []
        self.reply_position = 0
        self.delay = 0
        self.timer = 0


class Endpoint(Component):
    """A network endpoint with source-responsible reliability.

    :param index: this endpoint's network address.
    :param codec: the network's
        :class:`~repro.network.headers.HeaderCodec` (shared).
    :param log: shared :class:`~repro.endpoint.messages.MessageLog`.
    :param n_stages: routers on every path (STATUS words expected).
    :param max_outstanding: concurrent sends; 1 models the
        parallelism-limited processors of Figure 3 ("each endpoint was
        restricted to only use one of its entering network ports at a
        time").
    :param reply_timeout: cycles to wait for reply words before
        declaring the connection dead and retrying.
    :param max_attempts: per-message retry budget (None = unlimited).
    :param backoff: (lo, hi) inclusive range of idle cycles inserted
        before a retry, drawn uniformly.
    :param verify_stage_checksums: compare each router's reported
        checksum against the expected value to detect (and count)
        in-network corruption even when the destination acked.
    :param seed: randomness for port choice / backoff.

    Two hooks are plain attributes, set after construction:
    ``reply_handler`` (``f(payload_words, checksum_ok) ->
    (reply_words, delay_cycles)``, run at the receiver; None replies
    with nothing extra and zero delay) and ``traffic_source`` (``f(cycle) -> Message | None``,
    consulted when the endpoint has capacity for new work; a traffic
    generator's ``attach`` sets it).
    """

    def __init__(
        self,
        index,
        codec,
        log,
        n_stages,
        max_outstanding=1,
        reply_timeout=300,
        max_attempts=None,
        backoff=(0, 3),
        verify_stage_checksums=False,
        seed=0,
    ):
        self.index = index
        self.name = "ep{}".format(index)
        self.codec = codec
        self.log = log
        self.n_stages = n_stages
        self.max_outstanding = max_outstanding
        self.reply_timeout = reply_timeout
        self.max_attempts = max_attempts
        self.backoff = backoff
        self.retry_policy = UniformBackoff(*backoff)
        #: Optional ``f(cycle, endpoint, send, cause, blocked_stage)``
        #: observer of every failed attempt; the online FaultManager
        #: hangs its evidence collection here.
        self.fault_listener = None
        self.reply_handler = None
        self.verify_stage_checksums = verify_stage_checksums
        #: The TelemetryHub bound to this endpoint's network, or the
        #: null object when telemetry is off (hot paths guard on
        #: ``.enabled`` — a single attribute test on the disabled path).
        self.telemetry = NULL_TELEMETRY
        self._rng = random.Random((seed << 16) ^ index)
        self.traffic_source = None

        self.source_ends = []   # channel A-sides into stage 0
        self.receive_ends = []  # channel B-sides from the final stage
        self._recv_states = []
        self._sends = {}        # port index -> _SendState
        self._queue = []        # (not_before_cycle, Message)
        self._cycle = 0
        #: Derived state the tick's idle test rests on: every receive
        #: pipe's slot list and an all-``None`` copy of them.  Never
        #: pickled and assigned here, never first inside a tick.
        #: ``_rx_pipes`` None means "rebuild on the next full tick" (the
        #: channel ends may be incomplete inside ``__setstate__``) and
        #: equals no template, so the idle test fails until then.
        self._rx_pipes, self._rx_silent = None, ()
        #: At rest until cycle ``_wake``: the source that owes the calls
        #: skipped since ``_rest_from`` (see ``tick``), or None.
        self._resting, self._rest_from, self._wake = None, 0, 0

    def __getstate__(self):
        derived = ("_rx_pipes", "_rx_silent")
        return {k: v for k, v in vars(self).items() if k not in derived}

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._rx_pipes, self._rx_silent = None, ()

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------

    def attach_source(self, channel_end):
        self.source_ends.append(channel_end)

    def attach_receive(self, channel_end):
        self.receive_ends.append(channel_end)
        self._recv_states.append(_RecvState())
        self._rx_pipes = None

    # ------------------------------------------------------------------
    # Application interface
    # ------------------------------------------------------------------

    def submit(self, message):
        """Queue ``message`` for delivery; returns it for tracking."""
        message.source = self.index
        if message.queued_cycle is None:
            message.queued_cycle = self._cycle
        self._queue.append((self._cycle, message))
        return message

    def idle(self):
        """True when nothing is queued or in flight at this endpoint."""
        return not self._queue and not self._sends

    def pending_count(self):
        return len(self._queue) + len(self._sends)

    # ------------------------------------------------------------------
    # Per-cycle behaviour
    # ------------------------------------------------------------------

    def tick(self, cycle):
        self._cycle = cycle
        resting = self._resting
        if resting is not None:
            # Every call until _wake would return None: skip them while
            # no word arrives, nothing is submitted and the source stays.
            if (cycle < self._wake and resting is self.traffic_source
                    and not self._queue and self._rx_pipes == self._rx_silent):
                return
            resting.skip(cycle - self._rest_from)
            self._resting = None
        if self._at_rest():
            # Receive and send service are no-ops, leaving the traffic
            # poll: a source that can name the gap to its next message
            # (a Bernoulli source's gap()) rests the endpoint until
            # then, any other makes one call, and only a call that
            # yields a message pays for the rest of the tick
            # (_generate: further calls up to capacity, the send start).
            source = self.traffic_source
            if source is not None and self.max_outstanding > 0:
                gap = source.gap() if hasattr(source, "gap") else 0
                if gap:
                    self._resting, self._rest_from = source, cycle
                    self._wake = cycle + gap
                    return
                message = source(cycle)
                if message is not None:
                    self.submit(message)
                    self._generate(cycle)
            return
        # A silent receive port in its idle phase, an empty send table
        # and an empty queue each cost one test.  A None last slot is
        # None whatever ``dead`` or a fault transform would say; only
        # _service_receive reads a word, through recv().
        if self._rx_pipes is None:
            self._rx_pipes = [end._rx.slots for end in self.receive_ends]
            self._rx_silent = [[None] * len(pipe) for pipe in self._rx_pipes]
        states = self._recv_states
        for port, slots in enumerate(self._rx_pipes):
            if slots[-1] is not None or states[port].phase != _RX_IDLE:
                self._service_receive(port)
        sends = self._sends
        if sends:
            for port in list(sends):
                self._service_send(sends[port])
        # At capacity with nothing queued there is nothing to draw or start.
        if self._queue or len(sends) < self.max_outstanding:
            self._generate(cycle)

    def _generate(self, cycle):
        """Draw from the traffic source up to capacity, then start the
        oldest ready message on a free port."""
        source = self.traffic_source
        if source is not None:
            while len(self._queue) + len(self._sends) < self.max_outstanding:
                message = source(cycle)
                if message is None:
                    break
                self.submit(message)
        if self._queue:
            self._maybe_start_send(cycle)

    def _at_rest(self):
        """Nothing queued or in flight, every receive pipe silent and
        every receive FSM idle: the whole tick is the traffic poll.

        The phase test is needed: a destination replying (``_RX_REPLY``)
        has silent receive pipes but must still send.  Whole pipes are
        compared, so on a wire longer than one cycle a word still in
        flight costs a full tick that finds nothing.
        """
        if self._sends or self._queue or self._rx_pipes != self._rx_silent:
            return False
        for state in self._recv_states:
            if state.phase != _RX_IDLE:
                return False
        return True

    def _maybe_start_send(self, cycle):
        """Start the *oldest* ready message on a free port.

        Drain order is oldest-first by submission time
        (``queued_cycle``), queue position breaking ties.  Position
        alone is not enough: a retried message re-enters the queue at
        the tail (behind requests submitted after it), so under a deep
        multi-outstanding backlog — many clients multiplexed on one
        interface, a hotspot server forcing retries — a repeatedly
        unlucky message could be lapped by fresh submissions forever.
        Oldest-first bounds that unfairness: every backoff expiry, the
        most-overdue message gets the next free port (see
        ``tests/endpoint/test_fairness.py``).
        """
        if len(self._sends) >= self.max_outstanding or not self._queue:
            return
        entry = None
        entry_key = None
        for position, candidate in enumerate(self._queue):
            if candidate[0] > cycle:
                continue
            key = (candidate[1].queued_cycle, position)
            if entry is None or key < entry_key:
                entry = candidate
                entry_key = key
        if entry is None:
            return
        free_ports = [
            p for p in range(len(self.source_ends)) if p not in self._sends
        ]
        if not free_ports:
            return
        self._queue.remove(entry)
        message = entry[1]
        port = self._rng.choice(free_ports)
        if message.start_cycle is None:
            message.start_cycle = cycle
        message.attempts += 1
        words, header_len = self._build_stream(message)
        self._sends[port] = _SendState(message, port, words, header_len)
        if self.telemetry.enabled:
            self.telemetry.attempt_started(cycle, self, port, message)

    def _build_stream(self, message):
        Word, DATA = W.Word, W.DATA
        header = [Word(DATA, v) for v in self.codec.encode(message.dest)]
        payload = [Word(DATA, v) for v in message.payload]
        checksum = Word(DATA, W.checksum_of(message.payload))
        return header + payload + [checksum, W.TURN_WORD], len(header)

    # ------------------------------------------------------------------
    # Send-side FSM
    # ------------------------------------------------------------------

    def _service_send(self, send):
        end = self.source_ends[send.port]
        # A None pulse slot is None whatever ``dead`` would say; only a
        # pulse goes through recv_bcb().
        bcb = end.recv_bcb() if end._bcb_rx.slots[-1] is not None else None
        if bcb is not None:
            # Fast path reclamation: a router `bcb` stages in blocked.
            end.send(W.DROP_WORD)
            self._finish_attempt(send, M.BLOCKED_FAST, blocked_stage=bcb)
            return

        if send.phase == _STREAMING:
            end.send(send.words[send.position])
            send.position += 1
            if send.position >= len(send.words):
                send.phase = _AWAIT_REPLY
                send.timer = 0
                if self.telemetry.enabled:
                    self.telemetry.attempt_turn(self._cycle, self, send.port)
            elif send.position == send.header_len and self.telemetry.enabled:
                self.telemetry.attempt_stream(self._cycle, self, send.port)
            return

        if send.phase == _AWAIT_REPLY:
            word = end.recv()
            send.timer += 1
            if word is None or word.kind == W.IDLE:
                if send.timer >= self.reply_timeout:
                    end.send(W.DROP_WORD)
                    self._finish_attempt(send, M.TIMEOUT)
                return
            send.timer = 0
            if word.kind == W.STATUS:
                send.statuses.append(word.value)
            elif word.kind == W.DATA:
                send.reply_words.append(word.value)
            elif word.kind == W.TURN:
                send.turn_seen = True
                send.phase = _CLOSING
            elif word.kind == W.DROP:
                self._evaluate_dropped(send)
            return

        if send.phase == _CLOSING:
            end.send(W.DROP_WORD)
            self._evaluate_reply(send)

    def _evaluate_dropped(self, send):
        """The connection closed before the destination handed back."""
        blocked = [s for s in send.statuses if s.blocked]
        if blocked:
            stage = send.statuses.index(blocked[0]) + 1
            self._finish_attempt(send, M.BLOCKED, blocked_stage=stage)
        else:
            self._finish_attempt(send, M.DIED)

    def _evaluate_reply(self, send):
        message = send.message
        blocked = [s for s in send.statuses if s.blocked]
        if blocked:
            stage = send.statuses.index(blocked[0]) + 1
            self._finish_attempt(send, M.BLOCKED, blocked_stage=stage)
            return
        if not send.reply_words or send.reply_words[0] != ACK_OK:
            self._finish_attempt(send, M.NACKED)
            return
        if self.verify_stage_checksums and not self._stage_checksums_ok(send):
            self._finish_attempt(send, M.CORRUPTED)
            return
        message.reply_payload = send.reply_words[1:]
        message.done_cycle = self._cycle
        message.outcome = M.DELIVERED
        self.log.record(message)
        del self._sends[send.port]
        if self.telemetry.enabled:
            self.telemetry.attempt_finished(
                self._cycle, self, send.port, message, M.DELIVERED
            )

    def _stage_checksums_ok(self, send):
        expected = self.expected_stage_checksums(send.message)
        if len(send.statuses) != len(expected):
            return False
        return all(
            status.checksum == want
            for status, want in zip(send.statuses, expected)
        )

    def expected_stage_checksums(self, message):
        """What each router should report having forwarded.

        Stage ``s`` forwards the post-stage-``s`` header remnant, the
        payload, and the end-to-end checksum word; its STATUS checksum
        should cover exactly those values.
        """
        remnants = self.codec.simulate(message.dest)
        payload_tail = list(message.payload) + [W.checksum_of(message.payload)]
        expected = []
        for _direction, remaining_header in remnants:
            crc = W.Checksum()
            for value in remaining_header:
                crc.update(value)
            for value in payload_tail:
                crc.update(value)
            expected.append(crc.value)
        return expected

    def _finish_attempt(self, send, cause, blocked_stage=None):
        """An attempt failed; retry (after backoff) or abandon."""
        message = send.message
        message.failure_causes.append(cause)
        self.log.record_attempt_failure(cause)
        if blocked_stage is not None:
            message.blocked_stages.append(blocked_stage)
        del self._sends[send.port]
        if self.telemetry.enabled:
            self.telemetry.attempt_finished(
                self._cycle, self, send.port, message, cause,
                blocked_stage=blocked_stage,
            )
        if self.fault_listener is not None:
            self.fault_listener(self._cycle, self, send, cause, blocked_stage)
        delay = None
        if self.max_attempts is None or message.attempts < self.max_attempts:
            delay = self.retry_policy.delay(self._rng, message)
        if delay is None:
            message.outcome = M.ABANDONED
            message.done_cycle = self._cycle
            self.log.record(message)
            return
        self._queue.append((self._cycle + 1 + delay, message))

    # ------------------------------------------------------------------
    # Receive-side FSM
    # ------------------------------------------------------------------

    def _service_receive(self, port):
        end = self.receive_ends[port]
        state = self._recv_states[port]
        word = end.recv()

        if state.phase == _RX_IDLE:
            if word is not None and word.kind == W.DATA:
                state.buffer = [word.value]
                state.phase = _RX_COLLECT
                state.timer = 0
            return

        if state.phase == _RX_COLLECT:
            if word is None:
                state.timer += 1
                if state.timer >= self.reply_timeout:
                    state.reset()
                return
            state.timer = 0
            if word.kind == W.DATA:
                state.buffer.append(word.value)
            elif word.kind == W.TURN:
                self._assemble_reply(state)
            elif word.kind == W.DROP:
                state.reset()
            return

        if state.phase == _RX_REPLY:
            if state.delay > 0:
                state.delay -= 1
                end.send(W.IDLE_WORD)
                return
            end.send(state.reply[state.reply_position])
            state.reply_position += 1
            if state.reply_position >= len(state.reply):
                state.phase = _RX_AWAIT_CLOSE
                state.timer = 0
            return

        if state.phase == _RX_AWAIT_CLOSE:
            if word is None:
                state.timer += 1
                if state.timer >= self.reply_timeout:
                    state.reset()
                return
            state.timer = 0
            if word.kind == W.DROP:
                state.reset()
            elif word.kind == W.DATA:
                # Another forward round: the protocol above METRO may
                # reverse any number of times (Section 5.1).
                state.buffer = [word.value]
                state.phase = _RX_COLLECT

    def _assemble_reply(self, state):
        if len(state.buffer) < 1:
            checksum_ok = False
            payload = []
        else:
            payload = state.buffer[:-1]
            checksum_ok = W.checksum_of(payload) == state.buffer[-1]
        self.log.receiver_deliveries += 1
        self.log.receiver_arrivals.append((self._cycle, len(payload), checksum_ok))
        if not checksum_ok:
            self.log.receiver_checksum_failures += 1
        extra, delay = (
            self.reply_handler(payload, checksum_ok)
            if self.reply_handler is not None
            else ([], 0)
        )
        reply = [W.data(ACK_OK if checksum_ok else ACK_BAD)]
        if extra:
            reply.extend(W.data(v) for v in extra)
            reply.append(W.data(W.checksum_of(extra)))
        reply.append(W.TURN_WORD)
        state.reply = reply
        state.reply_position = 0
        state.delay = delay
        state.phase = _RX_REPLY
        if self.telemetry.enabled:
            self.telemetry.message_received(
                self._cycle, self, len(payload), checksum_ok
            )
