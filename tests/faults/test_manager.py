"""FaultManager: evidence accumulation, localization, and the closed loop."""

import pytest

from repro.faults.manager import DEFAULT_WEIGHTS, FaultManager
from repro.harness.chaos import run_chaos_point
from repro.network.builder import build_network
from repro.network.topology import figure1_plan


def _network(seed=21):
    return build_network(figure1_plan(), seed=seed)


class _Status:
    def __init__(self, checksum, blocked=False):
        self.checksum = checksum
        self.blocked = blocked


class _Send:
    def __init__(self, statuses, message=None):
        self.statuses = statuses
        self.message = message


class _Endpoint:
    """Stand-in supplying only what _localize consumes."""

    def __init__(self, expected):
        self._expected = expected

    def expected_stage_checksums(self, message):
        return self._expected


class TestLocalization:
    def test_blocked_stage_is_one_based(self):
        manager = FaultManager(_network())
        # Blocking reported at stage k (1-based) implicates router k-1.
        assert manager._localize(None, None, "blocked", 3) == 2
        assert manager._localize(None, None, "blocked", 1) == 0

    def test_status_mismatch_names_the_stage(self):
        manager = FaultManager(_network())
        endpoint = _Endpoint([10, 20, 30])
        send = _Send([_Status(10), _Status(99), _Status(30)])
        assert manager._localize(endpoint, send, "corrupted", None) == 1

    def test_clean_statuses_blame_the_final_stage(self):
        network = _network()
        manager = FaultManager(network)
        endpoint = _Endpoint([10, 20, 30])
        send = _Send([_Status(10), _Status(20), _Status(30)])
        assert (
            manager._localize(endpoint, send, "timeout", None)
            == network.plan.n_stages - 1
        )


class TestEvidence:
    def test_suspicion_accumulates_by_weight(self):
        manager = FaultManager(_network())
        # Same cycle: no time for either bump to decay.
        manager._bump(2, DEFAULT_WEIGHTS["timeout"], cycle=10)
        manager._bump(2, DEFAULT_WEIGHTS["timeout"], cycle=10)
        assert manager.suspicion[2] == pytest.approx(2.0)

    def test_suspicion_decays_by_half_life(self):
        manager = FaultManager(_network())
        manager._bump(1, 4.0, cycle=0)
        score = manager._bump(1, 0.5, cycle=FaultManager.decay_half_life)
        # One half-life later the old 4.0 is worth 2.0.
        assert score == pytest.approx(2.5)

    def test_threshold_crossing_schedules_a_repair_and_stops(self):
        network = _network()
        manager = FaultManager(network)
        endpoint = _Endpoint([10, 20, 30])
        send = _Send([_Status(10), _Status(99), _Status(30)])
        # Corruption weighs 1.5: three reports leave the stage at 4.5,
        # under the threshold of 5; the fourth crosses it.
        for cycle in (50, 51, 52):
            manager._on_attempt_failure(cycle, endpoint, send, "corrupted", None)
        assert not manager.repairs_due()
        manager._on_attempt_failure(53, endpoint, send, "corrupted", None)
        assert manager.repairs_due()
        assert manager.due == [1]
        assert network.engine._stop_requested

    def test_blocked_evidence_is_weak(self):
        manager = FaultManager(_network())
        for cycle in range(30):
            manager._on_attempt_failure(cycle, None, None, "blocked", 2)
        # 30 blocked attempts at weight 0.05 stay under threshold.
        assert not manager.repairs_due()
        assert manager.evidence_count == 30

    def test_cooldown_suppresses_rescheduling(self):
        manager = FaultManager(_network())
        endpoint = _Endpoint([10])
        send = _Send([_Status(99)])

        def fail(cycle):
            # Six timeouts (weight 1.0) in one cycle: well past threshold.
            for _ in range(6):
                manager._on_attempt_failure(cycle, endpoint, send, "timeout", None)

        fail(10)
        assert manager.due == [0]
        manager.due.clear()
        manager._cooldown_until[0] = 600
        fail(200)
        assert manager.due == []
        fail(700)
        assert manager.due == [0]


class TestQuiesce:
    def test_quiesce_without_owner_is_a_no_op(self):
        network = _network()
        router = network.router_grid[(1, 0, 0)]
        assert router.quiesce_backward_port(0) is False

    def test_quiesce_releases_a_live_owner(self):
        from repro.endpoint.traffic import UniformRandomTraffic

        network = _network()
        UniformRandomTraffic(
            n_endpoints=network.plan.n_endpoints,
            w=network.codec.w,
            rate=0.05,
            message_words=20,
            seed=5,
        ).attach(network)
        # Run until some router holds a backward-port circuit.
        owner_port = None
        for _ in range(100):
            network.run(10)
            for router in network.router_grid.values():
                for q, owner in enumerate(router._bwd_owner):
                    if owner is not None:
                        owner_port = (router, q)
                        break
                if owner_port:
                    break
            if owner_port:
                break
        assert owner_port is not None, "no circuit formed under load"
        router, q = owner_port
        assert router.quiesce_backward_port(q) is True
        assert router._bwd_owner[q] is None


# Empirically tuned closed-loop demo: two middle-stage routers die and
# a wire goes flaky mid-soak; the managed run masks them online and the
# delivered rate rebounds to >= 90% of a fault-free baseline, while the
# unmanaged control stays degraded.  All three runs are pure functions
# of the seed.
_DEMO = dict(
    seed=11,
    n_windows=25,
    window_cycles=400,
    warmup_windows=4,
    rate=0.02,
    mtbf=600,
    mttr=1200,
    max_attempts=60,
)


def _tail_rate(result, n=6):
    tail = result.windows[-n:]
    return sum(tail) / len(tail)


@pytest.fixture(scope="module")
def demo():
    clean = run_chaos_point(
        self_heal=False, n_flaky_links=0, n_dead_routers=0, **_DEMO
    )
    healed = run_chaos_point(
        self_heal=True,
        n_flaky_links=1,
        n_dead_routers=2,
        oracle=True,
        **_DEMO
    )
    control = run_chaos_point(
        self_heal=False, n_flaky_links=1, n_dead_routers=2, **_DEMO
    )
    return clean, healed, control


class TestClosedLoop:
    def test_masking_restores_the_delivered_rate(self, demo):
        clean, healed, control = demo
        baseline = sum(clean.windows) / len(clean.windows)
        assert healed.mask_events, "manager masked nothing"
        assert _tail_rate(healed) >= 0.9 * baseline
        assert _tail_rate(control) < 0.9 * baseline
        assert _tail_rate(healed) > _tail_rate(control)

    def test_masks_cover_the_dead_routers(self, demo):
        _clean, healed, _control = demo
        dead = {
            event[1]
            for event in healed.fault_events
            if event[1].startswith("router-dead")
        }
        assert len(dead) == 2
        # Every masked wire names a specific stage; the repair records
        # show which stages the evidence implicated.
        assert all("stage" in mask for mask in healed.mask_events)
        assert healed.repairs, "no repair records"

    def test_oracle_green_during_injection_and_masking(self, demo):
        _clean, healed, _control = demo
        assert healed.oracle_violations == 0

    def test_control_run_takes_no_repair_actions(self, demo):
        _clean, _healed, control = demo
        assert control.mask_events == []
        assert control.repairs == []
        assert control.evidence_count == 0

    def test_recovery_verification_marks_repairs(self, demo):
        _clean, healed, _control = demo
        verified = [r for r in healed.repairs if r["verified"]]
        assert verified, "no repair verified by delivered-rate rebound"
        assert all(r["verified_cycle"] is not None for r in verified)
