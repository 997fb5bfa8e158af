"""Source-responsible network interfaces, messages and traffic."""

from repro.endpoint.interface import ACK_BAD, ACK_OK, Endpoint
from repro.endpoint.messages import (
    ABANDONED,
    BLOCKED,
    BLOCKED_FAST,
    CORRUPTED,
    DELIVERED,
    DIED,
    Message,
    MessageLog,
    NACKED,
    TIMEOUT,
    message_fingerprint,
)
from repro.endpoint.retry import RetryPolicy, UniformBackoff

__all__ = [
    "ABANDONED",
    "ACK_BAD",
    "ACK_OK",
    "BLOCKED",
    "BLOCKED_FAST",
    "CORRUPTED",
    "DELIVERED",
    "DIED",
    "Endpoint",
    "Message",
    "MessageLog",
    "NACKED",
    "RetryPolicy",
    "TIMEOUT",
    "UniformBackoff",
    "message_fingerprint",
]
