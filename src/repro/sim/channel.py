"""Pipelined, half-duplex, point-to-point channels.

The METRO architecture models the wire between two components as a
number of pipeline registers (paper, Section 5.1, *Variable Turn
Delay*): a properly series-terminated point-to-point connection looks
like a pure time delay, trimmed to an integral number of clock cycles.
:class:`Channel` implements exactly that abstraction.

A channel joins an *A side* (upstream: an endpoint source port or a
router backward port) to a *B side* (downstream: the next stage's
forward port or an endpoint receive port).  Each direction is a shift
register of ``delay`` stages.  Data is half-duplex at the protocol
level — only the side that currently owns the connection drives data —
but the reverse shift register is always present because the
backward-control-bit (BCB) sideband used for fast path reclamation
travels against the data flow on its own wire.

Channels are also the natural place to model *link faults*: a fault
function installed on a channel transforms (or kills) words as they
emerge from the pipeline, which is indistinguishable, to the attached
components, from a broken or noisy wire.
"""


class _Pipe:
    """A unidirectional shift register of ``delay`` word slots.

    ``slots`` is shifted in place and never reassigned (routers keep a
    reference to it); ``occupied`` counts the words in it.
    :meth:`Channel.advance` does the shifting.
    """

    __slots__ = ("slots", "staged", "delay", "occupied")

    def __init__(self, delay):
        self.delay = delay
        self.slots = [None] * delay
        self.staged = None
        self.occupied = 0


class Channel:
    """A bidirectional pipelined wire with a BCB sideband.

    :param delay: pipeline depth in clock cycles (the paper's ``vtd``);
        must be at least 1 — even the shortest wire registers its value.
    :param name: identifier used in traces and error messages.
    """

    #: Half-duplex collisions counted by every channel in this process.
    #: An observer that remembers the total it last saw knows, with one
    #: comparison, whether any wire's ``half_duplex_violations`` moved
    #: since.  A class attribute, so no snapshot carries it.
    collisions = 0

    __slots__ = (
        "name",
        "delay",
        "_a_to_b",
        "_b_to_a",
        "_bcb_b_to_a",
        "_bcb_a_to_b",
        "fault_a_to_b",
        "fault_b_to_a",
        "dead",
        "half_duplex_violations",
        "telemetry",
        "live",
    )

    def __init__(self, delay=1, name="channel"):
        if delay < 1:
            raise ValueError("channel delay must be >= 1, got {}".format(delay))
        self.name = name
        self.delay = delay
        self._a_to_b = _Pipe(delay)
        self._b_to_a = _Pipe(delay)
        self._bcb_b_to_a = _Pipe(delay)
        self._bcb_a_to_b = _Pipe(delay)
        #: Optional fault transforms, applied to words as they arrive.
        #: Each is ``callable(word) -> word_or_None`` or None for a
        #: healthy wire.  Set by the fault injector.
        self.fault_a_to_b = None
        self.fault_b_to_a = None
        #: A dead channel delivers nothing in either direction.
        self.dead = False
        #: Half-duplex monitor: counts cycles where both directions
        #: carried a DATA word at once.  Control tokens (DROP aborts
        #: against the grain, the BCB sideband) are signaling, not
        #: payload, and are exempt.  Purely observational — words still
        #: flow, as they would in hardware where simultaneous driving
        #: produces garbage; a nonzero count means a protocol bug.
        self.half_duplex_violations = 0
        #: Set by TelemetryHub.bind to the (fwd, rev) pair of counters
        #: of this wire's link group, whose ``value`` :meth:`advance`
        #: bumps for each word that enters the wire; None (the default)
        #: keeps the advance hot path free of telemetry work.
        self.telemetry = None
        #: Liveness summary: falsy only when no word or BCB pulse is
        #: staged or in flight on any of the four pipes.
        #: ``ChannelEnd.send`` / ``send_bcb`` (the only writers of
        #: ``staged``) set it and :meth:`advance` recounts it, so a
        #: silent wire costs one test.
        self.live = False

    def __getstate__(self):
        # The liveness summary is recounted on restore, never captured.
        return {
            name: getattr(self, name) for name in self.__slots__ if name != "live"
        }

    def __setstate__(self, state):
        for name, value in state.items():
            setattr(self, name, value)
        # Sound, not exact: the first advance() recounts.
        self.live = True

    @property
    def a(self):
        """The upstream end of this channel."""
        return ChannelEnd(self, "a")

    @property
    def b(self):
        """The downstream end of this channel."""
        return ChannelEnd(self, "b")

    def advance(self):
        """Shift all four pipelines by one cycle (phase two of a tick)."""
        if not self.live:
            return
        down = self._a_to_b.staged
        up = self._b_to_a.staged
        if down is not None or up is not None:
            if (
                down is not None
                and up is not None
                and down.kind == "data"
                and up.kind == "data"
            ):
                self.half_duplex_violations += 1
                Channel.collisions += 1
            words = self.telemetry
            if words is not None:
                if down is not None:
                    words[0].value += 1
                if up is not None:
                    words[1].value += 1
        live = 0
        for pipe in (self._a_to_b, self._b_to_a, self._bcb_b_to_a, self._bcb_a_to_b):
            staged = pipe.staged
            if staged is not None:
                slots = pipe.slots
                slots.insert(0, staged)
                pipe.staged = None
                if slots.pop() is None:
                    pipe.occupied += 1
                live += pipe.occupied
            elif pipe.occupied:
                slots = pipe.slots
                slots.insert(0, None)
                if slots.pop() is not None:
                    pipe.occupied -= 1
                live += pipe.occupied
        self.live = live

    def in_flight(self):
        """Number of words currently inside the channel (both directions)."""
        return self._a_to_b.occupied + self._b_to_a.occupied

    def __repr__(self):
        return "<Channel {} delay={}>".format(self.name, self.delay)


class ChannelEnd:
    """One side of a :class:`Channel`, as seen by an attached component.

    ``send``/``recv`` move data words; ``send_bcb``/``recv_bcb`` move
    backward-control-bit pulses, which always travel *toward the other
    side* regardless of the current data direction.

    Pipe references are cached per end: these four methods are the
    hottest calls in a simulation (every port of every component, every
    cycle), so they index the pipes directly instead of dispatching
    through the channel.
    """

    __slots__ = ("channel", "side", "_tx", "_rx", "_bcb_tx", "_bcb_rx", "_rx_fault")

    def __init__(self, channel, side):
        if side not in ("a", "b"):
            raise ValueError("side must be 'a' or 'b', got {!r}".format(side))
        self.channel = channel
        self.side = side
        if side == "a":
            self._tx = channel._a_to_b
            self._rx = channel._b_to_a
            self._bcb_tx = channel._bcb_a_to_b
            self._bcb_rx = channel._bcb_b_to_a
            self._rx_fault = "fault_b_to_a"
        else:
            self._tx = channel._b_to_a
            self._rx = channel._a_to_b
            self._bcb_tx = channel._bcb_b_to_a
            self._bcb_rx = channel._bcb_a_to_b
            self._rx_fault = "fault_a_to_b"

    @property
    def delay(self):
        return self.channel.delay

    def send(self, word):
        """Stage ``word`` onto the wire toward the other side."""
        self._tx.staged = word
        self.channel.live = True

    def recv(self):
        """Read the word arriving at this side this cycle (or None)."""
        channel = self.channel
        if channel.dead:
            return None
        word = self._rx.slots[-1]
        if word is None:
            return None
        fault = getattr(channel, self._rx_fault)
        if fault is not None:
            word = fault(word)
        return word

    def send_bcb(self, value):
        """Stage a backward-control pulse toward the other side.

        ``value`` is the stage count carried by the fast-reclamation
        drop: the blocking router sends 1 and every router that
        propagates the drop increments it, so the source learns the
        routing stage in which blocking occurred (paper, Section 5.1,
        *Path Reclamation*).
        """
        self._bcb_tx.staged = value
        self.channel.live = True

    def recv_bcb(self):
        """Read the backward-control pulse arriving this cycle (or None)."""
        if self.channel.dead:
            return None
        return self._bcb_rx.slots[-1]

    def __repr__(self):
        return "<ChannelEnd {}.{}>".format(self.channel.name, self.side)
