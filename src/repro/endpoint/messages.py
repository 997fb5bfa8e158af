"""Message descriptors and the delivery log.

METRO pushes reliability out of the network and onto the endpoints:
the *source* detects blocked, damaged or lost connections and retries.
:class:`Message` is one application-level message;
:class:`MessageLog` aggregates the outcome of every message in a run —
the raw data behind every latency/throughput figure the harness
reports.
"""

# Terminal outcomes.
DELIVERED = "delivered"
ABANDONED = "abandoned"  # exceeded the attempt budget

# Per-attempt failure causes (attempts are retried unless abandoned).
BLOCKED = "blocked"          # a router had no free output (detailed reply)
BLOCKED_FAST = "blocked-fast"  # fast path reclamation (BCB) drop
NACKED = "nacked"            # destination checksum failed
TIMEOUT = "timeout"          # no reply within the source's patience
CORRUPTED = "corrupted"      # per-stage checksum mismatch on a turn
DIED = "died"                # connection dropped without a blocked status


class Message:
    """One application message from a source to a destination endpoint.

    :param dest: destination endpoint index.
    :param payload: list of word values (each < 2**w).
    :param queued_cycle: cycle the application handed the message to
        the network interface (set by the endpoint when submitted).
    """

    __slots__ = (
        "dest",
        "payload",
        "queued_cycle",
        "start_cycle",
        "done_cycle",
        "attempts",
        "outcome",
        "failure_causes",
        "blocked_stages",
        "reply_payload",
        "source",
    )

    def __init__(self, dest, payload):
        self.dest = dest
        self.payload = list(payload)
        self.queued_cycle = None
        self.start_cycle = None
        self.done_cycle = None
        self.attempts = 0
        self.outcome = None
        self.failure_causes = []
        self.blocked_stages = []
        self.reply_payload = None
        self.source = None

    @property
    def latency(self):
        """Cycles from first transmission to acknowledgment receipt."""
        if self.done_cycle is None or self.start_cycle is None:
            return None
        return self.done_cycle - self.start_cycle

    @property
    def total_latency(self):
        """Cycles from submission (including source queueing) to ack."""
        if self.done_cycle is None or self.queued_cycle is None:
            return None
        return self.done_cycle - self.queued_cycle

    def __repr__(self):
        return "<Message {}->{} {} attempts={}>".format(
            self.source, self.dest, self.outcome, self.attempts
        )


class MessageLog:
    """Collects every finished message of a simulation run."""

    def __init__(self):
        self.messages = []
        self.receiver_deliveries = 0
        self.receiver_checksum_failures = 0
        #: (cycle, payload_words, checksum_ok) per message *arrival* at
        #: a receiver — the one-way delivery instant, before any reply.
        self.receiver_arrivals = []
        #: Per-attempt failure tallies, updated live as attempts fail.
        self.attempt_failures = {}

    def record(self, message):
        self.messages.append(message)

    def record_attempt_failure(self, cause):
        self.attempt_failures[cause] = self.attempt_failures.get(cause, 0) + 1

    def delivered(self):
        return [m for m in self.messages if m.outcome == DELIVERED]

    def abandoned(self):
        return [m for m in self.messages if m.outcome == ABANDONED]

    def latencies(self):
        return [m.latency for m in self.delivered()]

    def mean_latency(self):
        values = self.latencies()
        return sum(values) / len(values) if values else None

    def mean_attempts(self):
        delivered = self.delivered()
        if not delivered:
            return None
        return sum(m.attempts for m in delivered) / len(delivered)

    def __len__(self):
        return len(self.messages)


def message_fingerprint(log):
    """Every observable fact about a message log, as plain tuples."""
    return {
        "messages": [
            (
                m.source,
                m.dest,
                tuple(m.payload),
                m.queued_cycle,
                m.start_cycle,
                m.done_cycle,
                m.attempts,
                m.outcome,
                tuple(m.failure_causes),
                tuple(m.blocked_stages),
                None if m.reply_payload is None else tuple(m.reply_payload),
            )
            for m in log.messages
        ],
        "receiver_deliveries": log.receiver_deliveries,
        "receiver_checksum_failures": log.receiver_checksum_failures,
        "receiver_arrivals": [tuple(entry) for entry in log.receiver_arrivals],
        "attempt_failures": dict(log.attempt_failures),
    }
