"""Engine snapshot/restore: capture API, guard round-trips, the
format-version gate, and in-place backend transmutes."""

import pickle

import pytest

from repro.endpoint.messages import Message
from repro.sim import (
    SNAPSHOT_FORMAT_VERSION,
    Snapshot,
    SnapshotFormatError,
    restore_engine,
    restore_network,
    snapshot_network,
)
from repro.sim.backends import BACKENDS, EventEngine
from repro.sim.engine import Engine, EngineDeadlineError
from repro.sim.snapshot import MAGIC
from repro.verify.scenario import Scenario


def _network(backend="reference", messages=((0, 1, (3, 1, 2)),)):
    scenario = Scenario(
        radix=2,
        n_stages=2,
        seed=5,
        messages=[
            {"src": s, "dest": d, "payload": list(p)} for s, d, p in messages
        ],
    )
    network = scenario.build(backend=backend)
    for m in scenario.messages:
        network.send(m["src"], Message(dest=m["dest"], payload=m["payload"]))
    return network


def _roundtrip(snap):
    return pickle.loads(pickle.dumps(snap, protocol=pickle.HIGHEST_PROTOCOL))


class _Brake:
    """A picklable pre-cycle hook that stops the engine at a cycle."""

    def __init__(self, at):
        self.at = at

    def __call__(self, engine):
        if engine.cycle >= self.at:
            engine.stop()


class TestSnapshotBasics:
    def test_snapshot_records_backend_cycle_and_version(self):
        network = _network()
        network.run(4)
        snap = network.engine.snapshot(meta={"note": "t"})
        assert snap.version == SNAPSHOT_FORMAT_VERSION
        assert snap.backend == "reference"
        assert snap.cycle == 4
        assert snap.meta == {"note": "t"}
        assert "Snapshot v{}".format(snap.version) in repr(snap)

    def test_restored_network_continues_like_the_original(self):
        network = _network()
        network.run(3)
        snap = _roundtrip(snapshot_network(network))
        restored = restore_network(snap).network
        assert restored.engine.cycle == 3
        network.run_until_quiet()
        restored.run_until_quiet()
        assert [m.outcome for m in network.log.messages] == [
            m.outcome for m in restored.log.messages
        ]
        assert [m.done_cycle for m in network.log.messages] == [
            m.done_cycle for m in restored.log.messages
        ]

    def test_capture_does_not_perturb_the_live_engine(self):
        solo = _network()
        solo.run_until_quiet()
        observed = _network()
        observed.run(2)
        snapshot_network(observed)
        observed.run_until_quiet()
        assert [m.done_cycle for m in solo.log.messages] == [
            m.done_cycle for m in observed.log.messages
        ]

    def test_restore_network_rejects_engine_level_snapshot(self):
        network = _network()
        snap = network.engine.snapshot()
        with pytest.raises(ValueError) as excinfo:
            restore_network(snap)
        assert "restore_engine" in str(excinfo.value)


class TestGuardRoundTrip:
    """Engine.stop() / set_deadline() state rides the snapshot."""

    def test_deadline_round_trips_and_still_fires(self):
        network = _network()
        network.engine.set_deadline(6)
        network.run(2)
        snap = _roundtrip(snapshot_network(network))
        engine = restore_network(snap).engine
        assert engine.deadline == 6
        engine.run(4)  # cycles 2..5 step fine, landing on cycle 6
        assert engine.cycle == 6
        with pytest.raises(EngineDeadlineError):
            engine.step()  # at the deadline: refuses, loudly
        # The original is equally bounded — shared-fate, not aliasing.
        with pytest.raises(EngineDeadlineError):
            network.run(10)

    def test_cleared_deadline_round_trips_as_cleared(self):
        network = _network()
        network.engine.set_deadline(50)
        network.engine.clear_deadline()
        engine = restore_network(
            _roundtrip(snapshot_network(network))
        ).engine
        assert engine.deadline is None
        engine.run(60)  # well past the cleared deadline

    def test_stop_request_round_trips(self):
        network = _network()
        network.engine.stop()
        assert network.engine._stop_requested
        engine = restore_network(
            _roundtrip(snapshot_network(network))
        ).engine
        assert engine._stop_requested
        # Semantics preserved too: run() consumes the request on entry,
        # exactly as on a live engine.
        engine.run(2)
        assert engine.cycle == 2
        assert not engine._stop_requested

    def test_mid_run_stop_state_round_trips(self):
        # A stop raised *during* a run breaks the loop; a snapshot
        # taken right after must carry the consumed-request state so a
        # resumed run() behaves identically.
        network = _network()
        network.engine.add_pre_cycle_hook(_Brake(network.engine.cycle + 2))
        network.run(10)
        stopped_at = network.engine.cycle
        engine = restore_network(
            _roundtrip(snapshot_network(network))
        ).engine
        assert engine.cycle == stopped_at
        assert engine._stop_requested == network.engine._stop_requested


class TestFormatGate:
    def test_save_load_round_trip(self, tmp_path):
        network = _network()
        network.run(2)
        snap = snapshot_network(network, meta={"trial": 9})
        path = tmp_path / "state.snap"
        snap.save(path)
        loaded = Snapshot.load(path)
        assert loaded.version == snap.version
        assert loaded.backend == snap.backend
        assert loaded.cycle == snap.cycle
        assert loaded.meta == {"trial": 9}
        assert loaded.blob == snap.blob
        assert loaded.content_hash == snap.content_hash

    def test_bad_magic_fails_loudly(self, tmp_path):
        path = tmp_path / "not.snap"
        path.write_bytes(b"definitely not a snapshot")
        with pytest.raises(SnapshotFormatError) as excinfo:
            Snapshot.load(path)
        assert "bad magic" in str(excinfo.value)

    def test_truncated_header_fails_loudly(self, tmp_path):
        path = tmp_path / "trunc.snap"
        path.write_bytes(MAGIC + b"\x00")
        with pytest.raises(SnapshotFormatError):
            Snapshot.load(path)

    def test_version_drift_fails_before_unpickling(self, tmp_path):
        network = _network()
        snap = snapshot_network(network)
        path = tmp_path / "old.snap"
        snap.save(path)
        data = bytearray(path.read_bytes())
        # Stamp a future format version; the payload after the header
        # is poisoned so any unpickling attempt would explode — the
        # gate must reject on the version alone.
        data[len(MAGIC): len(MAGIC) + 4] = (
            SNAPSHOT_FORMAT_VERSION + 1
        ).to_bytes(4, "big")
        data[len(MAGIC) + 4:] = b"\x80\x05garbage"
        path.write_bytes(bytes(data))
        with pytest.raises(SnapshotFormatError) as excinfo:
            Snapshot.load(path)
        message = str(excinfo.value)
        assert "v{}".format(SNAPSHOT_FORMAT_VERSION + 1) in message
        assert "expected v{}".format(SNAPSHOT_FORMAT_VERSION) in message


class TestBackendTransmute:
    @pytest.mark.parametrize("capture", sorted(BACKENDS))
    @pytest.mark.parametrize("target", sorted(BACKENDS))
    def test_transmute_preserves_identity_and_trajectory(
        self, capture, target
    ):
        reference = _network(backend=capture)
        reference.run_until_quiet()

        network = _network(backend=capture)
        network.run(3)
        snap = _roundtrip(snapshot_network(network))
        assert snap.backend == capture
        restored = restore_network(snap, backend=target).network
        # The transmute is in place: everything in the restored graph
        # still points at the one engine object.
        assert type(restored.engine) is BACKENDS[target]
        restored.run_until_quiet()
        assert [m.done_cycle for m in reference.log.messages] == [
            m.done_cycle for m in restored.log.messages
        ]

    def test_unknown_backend_is_rejected(self):
        network = _network()
        snap = snapshot_network(network)
        with pytest.raises(ValueError) as excinfo:
            restore_network(snap, backend="quantum")
        assert "quantum" in str(excinfo.value)

    def test_unregistered_capture_backend_fails_before_unpickling(self):
        # What a ring entry written under a since-removed backend looks
        # like: the blob names classes this build cannot import, so the
        # gate must fire on the envelope, never reach pickle.loads.
        snap = Snapshot(backend="vector", cycle=7, blob=b"not a pickle")
        with pytest.raises(SnapshotFormatError) as excinfo:
            restore_engine(snap)
        message = str(excinfo.value)
        assert "'vector'" in message
        for name in BACKENDS:
            assert name in message
        with pytest.raises(SnapshotFormatError):
            restore_network(snap, backend="reference")

    def test_restore_engine_returns_the_engine(self):
        network = _network()
        network.run(2)
        snap = _roundtrip(network.engine.snapshot())
        engine = restore_engine(snap, backend="events")
        assert isinstance(engine, EventEngine)
        assert engine.cycle == 2
        engine.run(5)
        assert engine.cycle >= 2

    def test_default_restore_keeps_capture_backend(self):
        network = _network(backend="events")
        snap = _roundtrip(snapshot_network(network))
        assert snap.backend == "events"
        restored = restore_network(snap).network
        assert type(restored.engine) is BACKENDS["events"]
        assert isinstance(restored.engine, Engine)


class TestDerivedStateAcrossRestore:
    """What the tick fast paths derive (a channel's liveness summary, a
    router's owned-port count, pending-scan flag and cached receive
    slots) is never pickled and is valid the moment a snapshot is
    restored: out-of-tick mutators run on a restored network before its
    first tick (``FaultManager.service()`` inside a resumed chaos soak
    is the case that found this)."""

    SPLIT = 40

    @staticmethod
    def _loaded(backend):
        from repro.endpoint.traffic import UniformRandomTraffic
        from repro.network.builder import build_network
        from repro.network.topology import figure1_plan

        network = build_network(
            figure1_plan(), seed=11, fast_reclaim=True, backend=backend
        )
        UniformRandomTraffic(
            n_endpoints=network.plan.n_endpoints, w=network.codec.w,
            rate=0.2, message_words=8, seed=5,
        ).attach(network)
        return network

    @staticmethod
    def _mutate(network):
        """Evict the owner of an owned backward port; scan-drive a
        (newly) disabled one.  Both between ticks."""
        from repro.core import words as W

        router = next(
            r for r in network.router_grid.values() if r.busy_backward_ports()
        )
        assert router.quiesce_backward_port(router.busy_backward_ports()[0])
        spare = router._bwd_owner.index(None)
        port_id = router.config.backward_port_id(spare)
        router.config.port_enabled[port_id] = False
        router.config.off_port_drive[port_id] = True
        router.scan_drive_backward(spare, W.data(9))

    @staticmethod
    def _facts(network):
        from repro.endpoint.messages import message_fingerprint

        network.run(150)
        # repr: a STATUS word's payload compares by identity.
        return message_fingerprint(network.log), [
            repr(r.boundary_capture) for r in network.router_grid.values()
        ]

    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    def test_mutators_called_before_the_first_step(self, backend):
        straight = self._loaded(backend)
        straight.run(self.SPLIT)
        self._mutate(straight)
        expected = self._facts(straight)
        assert expected[0]["messages"], "nothing was delivered"

        network = self._loaded(backend)
        network.run(self.SPLIT)
        restored = restore_network(_roundtrip(snapshot_network(network))).network
        self._mutate(restored)
        assert self._facts(restored) == expected

    def test_pickled_state_names_no_derived_field(self):
        network = self._loaded("reference")
        network.run(self.SPLIT)
        router = next(iter(network.router_grid.values()))
        assert router._rx_slots is not None  # built by the first tick
        assert not {"_rx_slots", "_owned", "_scan_pending"} & set(
            router.__getstate__()
        )
        channel = network.engine.channels[0]
        assert "live" not in channel.__getstate__()
        # An endpoint pickles its __dict__: ticking must add nothing to it.
        endpoint = network.endpoints[0]
        assert set(vars(endpoint)) == set(
            vars(self._loaded("reference").endpoints[0])
        )
