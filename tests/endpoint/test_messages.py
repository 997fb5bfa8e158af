"""Message bookkeeping and the delivery log."""

import pytest

from repro.endpoint import messages as M


class TestMessage:
    def test_latency_none_until_done(self):
        message = M.Message(dest=3, payload=[1])
        assert message.latency is None
        assert message.total_latency is None
        message.queued_cycle = 10
        message.start_cycle = 12
        message.done_cycle = 50
        assert message.latency == 38
        assert message.total_latency == 40

    def test_payload_copied(self):
        payload = [1, 2]
        message = M.Message(dest=0, payload=payload)
        payload.append(3)
        assert message.payload == [1, 2]

    def test_repr_mentions_route(self):
        message = M.Message(dest=7, payload=[])
        message.source = 2
        message.outcome = M.DELIVERED
        assert "2->7" in repr(message)


class TestMessageLog:
    def _delivered(self, latency, attempts=1, source=0):
        message = M.Message(dest=1, payload=[1])
        message.source = source
        message.queued_cycle = 0
        message.start_cycle = 0
        message.done_cycle = latency
        message.attempts = attempts
        message.outcome = M.DELIVERED
        return message

    def test_empty_log_statistics(self):
        log = M.MessageLog()
        assert log.mean_latency() is None
        assert log.mean_attempts() is None
        assert log.latencies() == []
        assert len(log) == 0

    def test_mean_latency(self):
        log = M.MessageLog()
        for latency in (10, 20, 30):
            log.record(self._delivered(latency))
        assert log.mean_latency() == 20

    def test_abandoned_separated(self):
        log = M.MessageLog()
        log.record(self._delivered(10))
        bad = M.Message(dest=2, payload=[])
        bad.outcome = M.ABANDONED
        log.record(bad)
        assert len(log.delivered()) == 1
        assert len(log.abandoned()) == 1

    def test_attempt_failures_live_counter(self):
        log = M.MessageLog()
        log.record_attempt_failure(M.NACKED)
        log.record_attempt_failure(M.NACKED)
        log.record_attempt_failure(M.DIED)
        assert log.attempt_failures == {M.NACKED: 2, M.DIED: 1}

    def test_mean_attempts(self):
        log = M.MessageLog()
        log.record(self._delivered(10, attempts=1))
        log.record(self._delivered(10, attempts=3))
        assert log.mean_attempts() == 2.0
