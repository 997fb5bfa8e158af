"""Interface drain order: oldest-first, and no starvation at fan-in.

``Endpoint._maybe_start_send`` picks the *oldest* ready message by
submission time (``queued_cycle``), queue position breaking ties — not
plain queue position.  Position alone starves retried messages: a
retry re-enters the queue at the tail, behind requests submitted after
it, so under a multi-outstanding backlog a repeatedly unlucky message
could be lapped by fresh submissions indefinitely.  These tests pin
the documented order at the unit level and the no-starvation
consequence under a hotspot service load.
"""

import pytest

from repro.endpoint.messages import Message
from repro.harness.load_sweep import figure1_network
from repro.harness.workload_sweep import run_service_point

from tests.mutants import seeded


def _message(dest, queued_cycle, tag):
    message = Message(dest=dest, payload=[tag])
    message.queued_cycle = queued_cycle
    return message


def _endpoint():
    network = figure1_network(seed=0)
    return network.endpoints[1]


def test_oldest_submission_drains_first():
    endpoint = _endpoint()
    fresh = _message(2, queued_cycle=50, tag=1)
    retried = _message(3, queued_cycle=5, tag=2)
    # The retry sits at the *tail* (re-appended after the backoff),
    # behind a younger message — exactly the lapping scenario.
    endpoint._queue.append((100, fresh))
    endpoint._queue.append((100, retried))
    endpoint._maybe_start_send(100)
    started = [send.message for send in endpoint._sends.values()]
    assert started == [retried]
    assert [entry[1] for entry in endpoint._queue] == [fresh]


def test_the_drain_order_test_catches_a_position_first_queue():
    """Seeded endpoint bug (``docs/testing.md``, the mutation table):
    queue position alone picks the next message, so the retry at the
    tail waits behind the younger one."""
    with seeded("endpoint-position-first"):
        with pytest.raises(AssertionError):
            test_oldest_submission_drains_first()


def test_equal_age_falls_back_to_queue_position():
    endpoint = _endpoint()
    first = _message(2, queued_cycle=10, tag=1)
    second = _message(3, queued_cycle=10, tag=2)
    endpoint._queue.append((100, first))
    endpoint._queue.append((100, second))
    endpoint._maybe_start_send(100)
    started = [send.message for send in endpoint._sends.values()]
    assert started == [first]


def test_backoff_not_yet_expired_is_skipped():
    endpoint = _endpoint()
    oldest_but_waiting = _message(2, queued_cycle=1, tag=1)
    ready = _message(3, queued_cycle=90, tag=2)
    endpoint._queue.append((200, oldest_but_waiting))  # backoff pending
    endpoint._queue.append((100, ready))
    endpoint._maybe_start_send(100)
    started = [send.message for send in endpoint._sends.values()]
    assert started == [ready]
    assert [entry[1] for entry in endpoint._queue] == [oldest_but_waiting]


def test_nothing_ready_starts_nothing():
    endpoint = _endpoint()
    endpoint._queue.append((200, _message(2, queued_cycle=1, tag=1)))
    endpoint._maybe_start_send(100)
    assert not endpoint._sends
    assert len(endpoint._queue) == 1


def test_hotspot_service_load_starves_no_client():
    """Regression: high fan-in to one server must not starve clients.

    Every client endpoint multiplexes four clients toward the single
    server endpoint; retries under that contention re-queue constantly.
    Oldest-first drain keeps every client progressing — and every
    request eventually resolves (delivered or abandoned), none pinned
    in a queue forever.
    """
    result = run_service_point(0.002, seed=2, measure_cycles=6000)
    assert result.delivered_count > 0
    # Every client of every client endpoint completed a request.
    assert len(result.per_client_counts) == (
        result.n_client_endpoints * result.clients
    )
    # No client hogs the interface: the busiest client completed at
    # most a small multiple of the median.
    counts = sorted(result.per_client_counts.values())
    median = counts[len(counts) // 2]
    assert counts[-1] <= 6 * max(1, median)
