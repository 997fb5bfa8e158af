"""Word (flit) encoding for METRO data streams.

A METRO connection carries one word per clock cycle.  Most words are
plain data, but the protocol reserves a handful of out-of-band tokens
(paper, Sections 4 and 5.1):

* ``DATA`` — a payload or routing-header word of ``w`` bits.
* ``IDLE`` — the designated DATA-IDLE token, outside the normal data
  encoding, used to hold a connection open when no data is available
  (variable turn delay, pipeline reversal bubbles, slow repliers).
* ``TURN`` — reverses the direction of the open connection.
* ``DROP`` — closes the connection; tears down each router it passes.
* ``STATUS`` — injected by each router into the return stream during a
  reversal, carrying the router's view of the connection (blocked?)
  and a running checksum of the data it forwarded.

In hardware these tokens are encoded with extra line-code symbols or
control bits alongside the ``w`` data bits; in the simulation each word
carries an explicit ``kind`` tag.  STATUS payloads are structured
objects rather than bit fields — a documented simulation convenience
(real implementations serialize status over several ``w``-bit words).
"""

DATA = "data"
IDLE = "idle"
TURN = "turn"
DROP = "drop"
STATUS = "status"

_KINDS = frozenset((DATA, IDLE, TURN, DROP, STATUS))


class Word:
    """One clock cycle's worth of traffic on a channel."""

    __slots__ = ("kind", "value")

    def __init__(self, kind, value=0):
        if kind not in _KINDS:
            raise ValueError("unknown word kind {!r}".format(kind))
        self.kind = kind
        self.value = value

    def is_control(self):
        """True for TURN/DROP/IDLE/STATUS — anything that is not data."""
        return self.kind != DATA

    def __eq__(self, other):
        return (
            isinstance(other, Word)
            and self.kind == other.kind
            and self.value == other.value
        )

    def __hash__(self):
        return hash((self.kind, self.value))

    def __repr__(self):
        if self.kind == DATA:
            return "<Word data {:#x}>".format(self.value)
        return "<Word {} {}>".format(self.kind, self.value)


def data(value):
    """A DATA word carrying ``value``."""
    return Word(DATA, value)


#: Shared singletons for the valueless control tokens.
IDLE_WORD = Word(IDLE)
TURN_WORD = Word(TURN)
DROP_WORD = Word(DROP)


class RouterStatus:
    """Payload of a STATUS word injected by one router at a reversal.

    :param blocked: True when the connection was blocked at this router
        (no free backward port in the requested direction), so no data
        ever flowed past it.
    :param checksum: the router's running checksum over the data words
        it forwarded in the direction that just ended.
    :param words_forwarded: how many data words the router forwarded;
        with the checksum this lets the source localize truncation as
        well as corruption.
    :param router_name: simulation-level identifier for diagnostics
        (hardware conveys the same information positionally: status
        words arrive in stage order).
    """

    __slots__ = ("blocked", "checksum", "words_forwarded", "router_name")

    def __init__(self, blocked, checksum, words_forwarded, router_name=""):
        self.blocked = blocked
        self.checksum = checksum
        self.words_forwarded = words_forwarded
        self.router_name = router_name

    def __repr__(self):
        return "<RouterStatus {} blocked={} cksum={:#x} n={}>".format(
            self.router_name, self.blocked, self.checksum, self.words_forwarded
        )


def status(blocked, checksum, words_forwarded, router_name=""):
    """A STATUS word wrapping a :class:`RouterStatus` payload."""
    return Word(STATUS, RouterStatus(blocked, checksum, words_forwarded, router_name))


def _crc8_table(poly):
    table = []
    for byte in range(256):
        crc = byte
        for _ in range(8):
            if crc & 0x80:
                crc = ((crc << 1) ^ poly) & 0xFF
            else:
                crc = (crc << 1) & 0xFF
        table.append(crc)
    return tuple(table)


#: The CRC-8 lookup table of :attr:`Checksum.POLY`.
_TABLE = _crc8_table(0x31)


class Checksum:
    """Running CRC-8 (polynomial 0x31, as in Dallas/Maxim one-wire).

    Every router keeps one of these per live connection and reports its
    value in the STATUS word at each reversal; endpoints keep one per
    message and append its value as the final payload word(s).  The
    particular polynomial is an implementation choice — the paper
    requires only that end-to-end and per-router checksums exist.
    Table-driven: routers update this every data cycle.
    """

    __slots__ = ("value",)

    POLY = 0x31

    def __init__(self):
        self.value = 0

    def update(self, word_value):
        """Fold one word value into the checksum, byte by byte (a value
        below 256, zero included, is one byte)."""
        crc = _TABLE[self.value ^ (word_value & 0xFF)]
        word_value >>= 8
        while word_value:
            crc = _TABLE[crc ^ (word_value & 0xFF)]
            word_value >>= 8
        self.value = crc

    def reset(self):
        self.value = 0


def checksum_of(values):
    """Checksum of an iterable of word values: :meth:`Checksum.update`
    folded over them in one loop, without a :class:`Checksum` object
    (endpoints take one per message attempt)."""
    crc = 0
    for value in values:
        crc = _TABLE[crc ^ (value & 0xFF)]
        value >>= 8
        while value:
            crc = _TABLE[crc ^ (value & 0xFF)]
            value >>= 8
    return crc
