"""RunWatchdog: stall detection, heartbeats, and quiet-network manners."""

import io

from repro.endpoint.traffic import UniformRandomTraffic
from repro.faults.injector import FaultInjector
from repro.faults.model import DeadRouter
from repro.harness.load_sweep import figure1_network
from repro.telemetry import (
    HEARTBEAT_ENV,
    RunWatchdog,
    TelemetryStream,
    attach_watchdog,
    heartbeat_path_from_env,
    read_heartbeat,
    read_run_log,
    validate_run_log,
    write_heartbeat,
)


def _traffic(network, rate=0.05, seed=6):
    UniformRandomTraffic(
        n_endpoints=network.plan.n_endpoints,
        w=network.codec.w,
        rate=rate,
        message_words=8,
        seed=seed,
    ).attach(network)


def _wedge(network, cycle=500):
    """Schedule the death of every middle-stage router.

    With the whole middle stage gone no message can cross the network;
    endpoints with an effectively-unlimited retry budget keep work
    pending forever — the canonical livelock the watchdog must flag.
    """
    injector = FaultInjector(network)
    for stage, block, index in network.router_grid:
        if stage == 1:
            injector.at(cycle, DeadRouter(stage, block, index))
    for endpoint in network.endpoints:
        endpoint.max_attempts = 10**9
    return injector


class TestStallDetection:
    def test_wedged_network_is_flagged_within_the_window(self):
        network = figure1_network(seed=5)
        _traffic(network)
        _wedge(network, cycle=500)
        watchdog = RunWatchdog(stall_cycles=800)
        watchdog.bind(network)
        network.run(4000)
        assert watchdog.stalled
        assert len(watchdog.stalls) == 1
        stall = watchdog.stalls[0]
        # Declared within one stall window of the last real progress.
        assert 500 <= stall.cycle <= 500 + 2 * 800
        assert stall.pending > 0
        assert stall.stalled_cycles >= 800
        # check_quiescent diagnosed where the stuck state lives.
        assert stall.violations
        assert all(v.rule == "quiescence-leak" for v in stall.violations)

    def test_stall_event_lands_in_the_run_log(self):
        network = figure1_network(seed=5)
        _traffic(network)
        _wedge(network, cycle=500)
        sink = io.StringIO()
        stream = TelemetryStream(sink, flush_every=400, window_cycles=400)
        stream.bind(network)
        watchdog = RunWatchdog(stall_cycles=800, sink=stream)
        watchdog.bind(network)
        network.run(4000)
        stream.close()
        events = read_run_log(sink.getvalue().splitlines())
        assert validate_run_log(events) == len(events)
        stalls = [e for e in events if e["event"] == "watchdog.stall"]
        assert len(stalls) == 1
        assert stalls[0]["pending"] > 0
        assert stalls[0]["violations"]
        assert stalls[0]["violations"][0]["rule"] == "quiescence-leak"

    def test_idle_network_never_stalls(self):
        """An idle run never stalls: the quiet timer restarts instead."""
        network = figure1_network(seed=5, backend="events")
        watchdog = RunWatchdog(stall_cycles=500)
        watchdog.bind(network)
        network.run(3000)
        assert not watchdog.stalled
        assert watchdog.stalls == []
        # The idle-timer reset keeps the stall deadline ahead of the clock.
        assert network.engine.cycle - watchdog._last_progress_cycle <= 500

    def test_healthy_loaded_network_never_stalls(self):
        network = figure1_network(seed=5)
        _traffic(network)
        watchdog = attach_watchdog(network, stall_cycles=400)
        network.run(2000)
        assert not watchdog.stalled
        assert watchdog.delivered > 0

    def test_recovery_clears_the_stalled_flag(self):
        network = figure1_network(seed=5)
        _traffic(network)
        injector = _wedge(network, cycle=500)
        for stage, block, index in network.router_grid:
            if stage == 1:
                injector.revert_at(2500, DeadRouter(stage, block, index))
        watchdog = RunWatchdog(stall_cycles=800)
        watchdog.bind(network)
        network.run(5000)
        assert watchdog.stalls  # it did wedge...
        assert not watchdog.stalled  # ...and progress resumed


class TestHeartbeats:
    def test_heartbeat_file_round_trip(self, tmp_path):
        path = str(tmp_path / "hb.json")
        write_heartbeat(path, cycle=123, delivered=7, stalled=True)
        beat = read_heartbeat(path)
        assert beat["cycle"] == 123
        assert beat["delivered"] == 7
        assert beat["stalled"] is True
        assert read_heartbeat(str(tmp_path / "missing.json")) is None

    def test_watchdog_writes_periodic_heartbeats(self, tmp_path):
        path = str(tmp_path / "hb.json")
        network = figure1_network(seed=5)
        _traffic(network)
        watchdog = RunWatchdog(
            stall_cycles=5000, heartbeat_path=path, heartbeat_every=100
        )
        watchdog.bind(network)
        network.run(1000)
        beat = read_heartbeat(path)
        assert beat is not None
        assert beat["cycle"] >= 900
        assert beat["delivered"] > 0
        assert beat["stalled"] is False

    def test_heartbeat_path_defaults_from_env(self, tmp_path, monkeypatch):
        path = str(tmp_path / "hb.json")
        monkeypatch.setenv(HEARTBEAT_ENV, path)
        assert heartbeat_path_from_env() == path
        watchdog = RunWatchdog(stall_cycles=5000, heartbeat_every=200)
        assert watchdog.heartbeat_path == path
        monkeypatch.delenv(HEARTBEAT_ENV)
        assert heartbeat_path_from_env() is None

    def test_stall_is_reflected_in_the_heartbeat(self, tmp_path):
        path = str(tmp_path / "hb.json")
        network = figure1_network(seed=5)
        _traffic(network)
        _wedge(network, cycle=500)
        watchdog = RunWatchdog(
            stall_cycles=800, heartbeat_path=path, heartbeat_every=200
        )
        watchdog.bind(network)
        network.run(4000)
        assert watchdog.stalled
        beat = read_heartbeat(path)
        assert beat["stalled"] is True

    def test_heartbeat_survives_concurrent_readers(self, tmp_path):
        """Readers racing the writer never observe a torn heartbeat.

        The write is write-temp-then-rename, so a concurrent reader
        sees either the previous complete beat or the new one — never
        a partial JSON document.  Hammer the file from reader threads
        while the writer updates it and check every observation is a
        complete, known beat (None is allowed only before the first
        write lands).
        """
        import threading

        path = str(tmp_path / "hb.json")
        n_beats = 300
        bad = []
        seen = []
        stop = threading.Event()

        def reader():
            while not stop.is_set():
                beat = read_heartbeat(path)
                if beat is None:
                    continue
                if not {"cycle", "delivered", "stalled", "pid"} <= set(beat):
                    bad.append(beat)
                elif not (0 <= beat["cycle"] < n_beats
                          and beat["delivered"] == beat["cycle"] * 2):
                    bad.append(beat)
                else:
                    seen.append(beat["cycle"])

        readers = [threading.Thread(target=reader) for _ in range(3)]
        for thread in readers:
            thread.start()
        for cycle in range(n_beats):
            write_heartbeat(path, cycle=cycle, delivered=cycle * 2)
        stop.set()
        for thread in readers:
            thread.join()
        assert bad == []
        assert seen  # the readers really did observe beats mid-write
        final = read_heartbeat(path)
        assert final["cycle"] == n_beats - 1
