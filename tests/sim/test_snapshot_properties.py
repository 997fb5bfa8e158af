"""Property test: snapshot -> pickle -> unpickle -> restore is the
identity, for random scenarios on both backends — plus the awkward
states (mid-repair-cascade fault management, scan-masked ports)."""

import pickle

import pytest

from repro.endpoint.messages import message_fingerprint
from repro.sim.snapshot import restore_network, snapshot_network
from repro.verify.families import FAMILIES
from repro.verify.resume_diff import resume_at

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


def _roundtrip(snap):
    return pickle.loads(pickle.dumps(snap, protocol=pickle.HIGHEST_PROTOCOL))


@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**20),
    backend=st.sampled_from(["reference", "events"]),
    restore_backend=st.sampled_from(["reference", "events"]),
    split=st.integers(min_value=0, max_value=40),
)
def test_snapshot_pickle_restore_is_identity(
    seed, backend, restore_backend, split
):
    # Identity at the capture point (same cycle, same observable log)
    # and under continuation (the restored half-run and the original,
    # which the capture must not have perturbed, both end exactly where
    # the uninterrupted run does): the resume proof, at hypothesis's
    # choice of scenario, split and backend pair.
    assert not resume_at("scenario", seed, split, backend, restore_backend)


def _soak_pieces(backend):
    """A small self-healing soak: dead router + flaky link + traffic."""
    import random as _random

    from repro.core.random_source import derive_seed
    from repro.endpoint.traffic import UniformRandomTraffic
    from repro.faults.injector import (
        FaultInjector,
        random_transient_scenario,
    )
    from repro.faults.manager import FaultManager
    from repro.faults.model import DeadRouter
    from repro.harness.load_sweep import figure1_network

    seed = 23
    network = figure1_network(
        seed=seed,
        endpoint_kwargs={"verify_stage_checksums": True, "max_attempts": 60},
        backend=backend,
    )
    injector = FaultInjector(network)
    rng = _random.Random(derive_seed(seed, "soak"))
    middle = [k for k in network.router_grid if 0 < k[0] < 2]
    rng.shuffle(middle)
    stage, block, index = middle[0]
    injector.at(200, DeadRouter(stage, block, index))
    for fault in random_transient_scenario(
        network, n_flaky_links=1, mtbf=500, mttr=200, seed=seed, start=200
    ):
        injector.transient(fault)
    manager = FaultManager(network, rate_window=200)
    UniformRandomTraffic(
        n_endpoints=network.plan.n_endpoints,
        w=network.codec.w,
        rate=0.05,
        message_words=12,
        seed=seed + 1,
    ).attach(network)
    return network, manager


def _manager_fingerprint(manager):
    return {
        "suspicion": dict(manager.suspicion),
        "due": list(manager.due),
        "masked": sorted(manager.masked),
        "mask_events": list(manager.mask_events),
        "repairs": list(manager.repairs),
        "evidence_count": manager.evidence_count,
        "cooldowns": dict(manager._cooldown_until),
    }


@pytest.mark.parametrize("backend", ["reference", "events"])
def test_mid_cascade_fault_management_round_trips(backend):
    """Snapshot between evidence accumulation and repair service — the
    manager's suspicion/due/cooldown state mid-cascade must resume to
    the same masks and repair records."""
    reference_net, reference_mgr = _soak_pieces(backend)
    network, manager = _soak_pieces(backend)

    for net, mgr in ((reference_net, reference_mgr), (network, manager)):
        # Run until a repair is pending but NOT yet serviced.  With
        # auto_stop the engine halts on the cycle the repair becomes
        # due, so both copies stop at the identical point.
        for _ in range(40):
            net.run(100)
            if mgr.repairs_due():
                break
        assert mgr.repairs_due(), "soak never accumulated repair evidence"

    snap = _roundtrip(snapshot_network(network, extras={"manager": manager}))
    restored = restore_network(snap)
    rmgr = restored.extras["manager"]
    assert _manager_fingerprint(rmgr) == _manager_fingerprint(manager)
    assert rmgr.suspicion, "expected live suspicion mid-cascade"

    # Service the cascade and run on, on all three copies.
    outcomes = []
    for net, mgr in (
        (reference_net, reference_mgr),
        (network, manager),
        (restored.network, rmgr),
    ):
        mgr.service()
        net.run(600)
        fp = _manager_fingerprint(mgr)
        fp["log"] = message_fingerprint(net.log)
        fp["cycle"] = net.engine.cycle
        outcomes.append(fp)
    assert outcomes[0] == outcomes[1], "capture perturbed the soak"
    assert outcomes[0] == outcomes[2], "resumed cascade diverged"
    assert outcomes[0]["repairs"], "cascade never produced a repair record"


def test_masked_port_scan_state_round_trips():
    """router.multitap (lambda-captured scan registers) is rebuilt on
    restore with its dead-port set intact; masked router config rides
    the snapshot verbatim."""
    from repro.scan.controller import attach_scan
    from repro.verify.scenario import Scenario

    network = Scenario(radix=2, n_stages=2, seed=9).build()
    router = next(iter(network.all_routers()))
    multitap = attach_scan(router, sp=2)
    multitap.kill_port(1)
    router.config.port_enabled[0] = False  # a masked (repaired) port

    snap = _roundtrip(snapshot_network(network))
    restored = restore_network(snap).network
    rrouter = next(
        r for r in restored.all_routers() if r.name == router.name
    )
    assert rrouter.multitap is not None
    assert rrouter.multitap.sp == multitap.sp
    assert rrouter.multitap.dead_ports == {1}
    assert rrouter.config.port_enabled[0] is False
    # The rebuilt TAP is live: a surviving port still answers scans.
    rrouter.multitap.step(0, tms=0)


def _oracle_shadow(oracle):
    """The oracle's mid-circuit state as plain data."""
    return [
        [
            None
            if track is None
            else (track.shadow.value, track.count, track.prev_pending,
                  track.stall)
            for track in tracks
        ]
        for tracks in oracle._tracks
    ]


@pytest.mark.parametrize("restore_backend", ["reference", "events"])
@pytest.mark.parametrize("backend", ["reference", "events"])
def test_oracle_shadow_round_trips_with_a_draining_connection(
    backend, restore_backend
):
    """Snapshot on the cycle a short message's DROP is still flushing
    through a router's pipeline (the closed connection sits in
    ``_draining``) while a long message streams through the same
    router: the oracle riding in ``extras`` must come back with that
    circuit's shadow checksum intact and finish the run identically."""
    from repro.verify.scenario import Scenario

    scenario = Scenario(
        radix=2, dilation=2, n_stages=2, w=8, dp=3, seed=5,
        messages=[
            {"src": 0, "dest": 3, "payload": [1, 2]},
            {"src": 1, "dest": 2, "payload": list(range(1, 40))},
        ],
    )
    # A curated scenario, driven and fingerprinted as the ``scenario``
    # family's row does its seeded ones.
    row = FAMILIES["scenario"]

    def started():
        network, oracle, sent = scenario.start(backend)
        return network, {"oracle": oracle, "sent": sent}

    reference = row.fingerprint(row.finish(started()))
    assert reference["quiet"] and not reference["violations"]

    network, riders = started()
    oracle = riders["oracle"]
    network.run(29)
    busy = [r for r in network.all_routers() if r._draining]
    assert busy, "no connection is draining at the split"
    shadow = _oracle_shadow(oracle)
    assert any(
        track is not None and track[1] > 0
        for track in shadow[oracle.routers.index(busy[0])]
    ), "no live circuit shares the draining router"

    snap = _roundtrip(snapshot_network(network, extras=riders))
    restored = restore_network(snap, backend=restore_backend)
    roracle = restored.extras["oracle"]
    assert _oracle_shadow(roracle) == shadow
    # The restored shadow tracks the restored connections, not copies.
    for router, tracks in zip(roracle.routers, roracle._tracks):
        for conn, track in zip(router._conns, tracks):
            assert track is None or track.conn is conn
    resumed = row.finish((restored.network, restored.extras))
    assert row.fingerprint(resumed) == reference
    assert row.fingerprint(row.finish((network, riders))) == reference


def test_oracle_in_the_identity_keyed_layout_is_refused():
    """An oracle pickled before its shadow state became positional
    must fail the restore with the typed format error — never come
    back with its mid-circuit checksums silently reset."""
    from repro.sim.snapshot import SnapshotFormatError
    from repro.verify.oracle import Oracle
    from repro.verify.scenario import Scenario

    class LegacyPickle:
        """Pickles as an ``Oracle`` carrying the old attribute layout."""

        def __init__(self, oracle):
            self.state = {
                name: value
                for name, value in oracle.__dict__.items()
                if name not in ("_tracks", "_bcb_prev")
            }
            self.state["_tracks"] = []       # [(router name, track)]
            self.state["_bcb_shadow"] = {}   # (router name, q) -> record

        def __reduce__(self):
            return (object.__new__, (Oracle,), self.state)

    network, oracle, _sent = Scenario(radix=2, n_stages=2, seed=9).start()
    snap = _roundtrip(
        snapshot_network(network, extras={"oracle": LegacyPickle(oracle)})
    )
    with pytest.raises(SnapshotFormatError, match="oracle"):
        restore_network(snap)
