"""Run-health watchdog: stall detection and liveness heartbeats.

A long soak can wedge without crashing — a livelocked retry storm, a
partition that strands queued messages, a fault scenario that kills
every path while endpoints keep redialing.  From outside, a wedged run
and a healthy slow run look identical: the process is alive, the cycle
counter advances, nothing returns.  :class:`RunWatchdog` is an engine
observer that tells them apart *from inside* the simulation:

* **progress** — a cursor over the network's
  :class:`~repro.endpoint.messages.MessageLog` (which records only
  *finished* messages) counts completions; the watchdog remembers the
  last cycle any message finished.
* **stall** — if work is pending (an endpoint send FSM mid-protocol or
  a non-empty submission queue) and nothing has finished for
  ``stall_cycles``, the watchdog declares a stall.  It then runs
  :func:`repro.verify.oracle.leak_inventory` — the same leak audit
  ``Oracle.check_quiescent`` runs at the end of a run — to *diagnose*
  what is stuck, emits a ``watchdog.stall`` event to its sink (usually
  a :class:`~repro.telemetry.stream.TelemetryStream`), and records it on
  :attr:`RunWatchdog.stalls`.  Idle networks (no pending work) never
  stall, no matter how long they sit quiet.
* **heartbeats** — optionally, a small JSON file rewritten every
  ``heartbeat_every`` cycles with the current cycle, wall-clock time
  and delivered count.  Parallel trial workers point this at a
  per-trial path (via :data:`HEARTBEAT_ENV`), so when
  :class:`~repro.harness.parallel.TrialRunner` times a trial out it
  can report the last-known cycle instead of a silent
  ``trial_timeout``.
"""

import json
import os
import time

from repro.sim.component import Component

#: Environment variable naming the heartbeat file for the current
#: (sub)process.  Set per-trial by the parallel runner; read by
#: :func:`heartbeat_path_from_env` and by the timeout path in
#: :class:`~repro.harness.parallel.TrialRunner`.
HEARTBEAT_ENV = "REPRO_HEARTBEAT_FILE"


def heartbeat_path_from_env():
    """The heartbeat path requested via :data:`HEARTBEAT_ENV`, if any."""
    return os.environ.get(HEARTBEAT_ENV) or None


def write_heartbeat(path, cycle, delivered, stalled=False):
    """Atomically (write-then-rename) record a liveness heartbeat."""
    payload = {
        "cycle": cycle,
        "delivered": delivered,
        "stalled": bool(stalled),
        "time": time.time(),
        "pid": os.getpid(),
    }
    tmp = "{}.tmp".format(path)
    with open(tmp, "w") as handle:
        json.dump(payload, handle)
    os.replace(tmp, path)
    return payload


def read_heartbeat(path):
    """The last heartbeat written to ``path``, or None if absent/torn."""
    try:
        with open(path) as handle:
            return json.load(handle)
    except (OSError, ValueError):
        return None


class Stall(object):
    """One detected stall: when, how long, and what the audit found."""

    __slots__ = ("cycle", "stalled_cycles", "pending", "violations")

    def __init__(self, cycle, stalled_cycles, pending, violations):
        self.cycle = cycle
        self.stalled_cycles = stalled_cycles
        self.pending = pending
        self.violations = list(violations)

    def as_dict(self):
        return {
            "cycle": self.cycle,
            "stalled_cycles": self.stalled_cycles,
            "pending": self.pending,
            "violations": [
                {
                    "component": v.router,
                    "port": v.port,
                    "rule": v.rule,
                    "detail": v.detail,
                }
                for v in self.violations
            ],
        }

    def __repr__(self):
        return "<Stall @{} after {} quiet cycles, {} pending, {} leak(s)>".format(
            self.cycle, self.stalled_cycles, self.pending, len(self.violations)
        )


class RunWatchdog(Component):
    """Engine observer flagging stalled runs and writing heartbeats.

    :param stall_cycles: quiet cycles (pending work, zero completions)
        before a stall is declared.
    :param heartbeat_path: file to rewrite with liveness heartbeats;
        defaults to :data:`HEARTBEAT_ENV` from the environment, else
        no heartbeats.
    :param heartbeat_every: cycles between heartbeat writes.
    :param sink: object with ``emit(event, cycle=..., **fields)`` —
        typically a :class:`~repro.telemetry.stream.TelemetryStream` —
        receiving ``watchdog.stall`` / ``watchdog.progress`` events.

    Diagnosis stops after :attr:`stall_limit` stalls: the condition
    persists, and re-auditing every window just repeats the same
    inventory.

    The engine ticks the watchdog, so it holds no reference back to the
    network (that would make a dropped network cyclic garbage): it
    keeps the message log and the endpoint and router lists it reads.
    """

    enabled = True
    name = "run-watchdog"
    stall_limit = 5

    def __init__(
        self,
        stall_cycles=2000,
        heartbeat_path=None,
        heartbeat_every=500,
        sink=None,
    ):
        self.stall_cycles = int(stall_cycles)
        self.heartbeat_path = (
            heartbeat_path
            if heartbeat_path is not None
            else heartbeat_path_from_env()
        )
        self.heartbeat_every = int(heartbeat_every)
        self.sink = sink
        self._log = None
        self._endpoints = self._routers = None
        self.stalls = []
        self.delivered = 0
        self._msg_cursor = 0
        self._last_progress_cycle = 0
        self._next_heartbeat = None
        self._stalled = False

    def bind(self, network):
        """Start observing ``network``; returns self."""
        if self._log is not None:
            raise ValueError("watchdog is already bound to a network")
        self._log = network.log
        self._endpoints = network.endpoints
        self._routers = list(network.all_routers())
        cycle = network.engine.cycle
        self._msg_cursor = len(network.log.messages)
        self._last_progress_cycle = cycle
        if self.heartbeat_path:
            self._next_heartbeat = cycle
        network.engine.add_observer(self)
        return self

    # ------------------------------------------------------------------

    @property
    def stalled(self):
        """True while the run is in a declared, unrecovered stall."""
        return self._stalled

    def pending_work(self):
        """Count of in-progress message slots across live endpoints.

        Active send FSMs plus queued submissions — exactly the state
        ``check_quiescent`` audits.  Zero means an idle network, which
        by definition cannot stall.
        """
        pending = 0
        for endpoint in self._endpoints:
            if getattr(endpoint, "dead", False):
                continue
            pending += len(endpoint._sends) + len(endpoint._queue)
        return pending

    def tick(self, cycle):
        messages = self._log.messages
        if self._msg_cursor < len(messages):
            finished = len(messages) - self._msg_cursor
            self._msg_cursor = len(messages)
            self.delivered += finished
            self._last_progress_cycle = cycle
            if self._stalled:
                self._stalled = False
                if self.sink is not None:
                    self.sink.emit(
                        "watchdog.progress",
                        cycle=cycle,
                        finished=finished,
                        total_finished=self.delivered,
                    )
        elif (
            not self._stalled
            and cycle - self._last_progress_cycle >= self.stall_cycles
            and len(self.stalls) < self.stall_limit
        ):
            pending = self.pending_work()
            if pending:
                self._declare_stall(cycle, pending)
            else:
                # Idle, not stalled: restart the quiet timer so the
                # deadline stays ahead of the clock.
                self._last_progress_cycle = cycle
        if (
            self._next_heartbeat is not None
            and cycle >= self._next_heartbeat
        ):
            write_heartbeat(
                self.heartbeat_path, cycle, self.delivered, self._stalled
            )
            self._next_heartbeat = cycle + self.heartbeat_every

    def _declare_stall(self, cycle, pending):
        # Import here: verify -> telemetry would otherwise be a cycle.
        from repro.verify.oracle import leak_inventory

        violations = leak_inventory(self._routers, self._endpoints, cycle)
        stall = Stall(
            cycle, cycle - self._last_progress_cycle, pending, violations
        )
        self.stalls.append(stall)
        self._stalled = True
        if self.sink is not None:
            self.sink.emit("watchdog.stall", **stall.as_dict())
        if self.heartbeat_path:
            write_heartbeat(self.heartbeat_path, cycle, self.delivered, True)
        return stall


def attach_watchdog(network, **kwargs):
    """Create a :class:`RunWatchdog`, bind it to ``network``, return it."""
    return RunWatchdog(**kwargs).bind(network)
