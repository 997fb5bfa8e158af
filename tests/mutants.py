"""Seeded bugs: one way to show that a check can fail.

Every checker in this repository (the conformance Oracle, the backend
differ, the golden trace, the channel property, the workload, harness
and fault-manager tests) is shown to *fail* under a deliberate bug.  A
seeded bug is a source edit, made here and nowhere else: the code under
``src/`` carries no test-only branch.

``mutant({(owner, name): [(healthy, broken), ...]})`` takes the source
of ``owner.name`` (a method of a class, or a function of a module),
asserts that each ``healthy`` fragment occurs exactly once, replaces it
with ``broken``, compiles the edited copy in the owner module's
globals and patches it in for the ``with`` block; the original goes
back on exit.  A refactor that moves an anchor fails
``tests/test_mutants.py`` by the name of the bug, before any check
runs under it.

:data:`MUTANTS` names every seeded bug a test relies on, and
``seeded(name)`` applies one of them together with
:data:`DOUBLE_RELEASE`.  ``docs/testing.md`` has the same inventory
with the test that catches each bug.
"""

import ast
import inspect
import sys
import textwrap
from contextlib import contextmanager

from repro.core.crossbar import CrossbarAllocator
from repro.core.router import MetroRouter
from repro.endpoint.interface import Endpoint
from repro.endpoint.retry import UniformBackoff
from repro.endpoint.traffic import _BernoulliSource
from repro.faults import diagnosis
from repro.faults.manager import FaultManager
from repro.harness import spec
from repro.harness.journal import RunJournal
from repro.harness.parallel import TrialRunner
from repro.latency_model import equations
from repro.network import analysis, validate
from repro.scan.chain import ScanChain
from repro.scan.tap import TapController
from repro.sim import snapshot
from repro.sim.backends import EventEngine
from repro.sim.channel import Channel, ChannelEnd
from repro.telemetry import stream
from repro.telemetry.metrics import MetricsSnapshot
from repro.workloads.collective import CollectiveObserver


def _function(owner, name):
    function = vars(owner)[name]
    assert inspect.isfunction(function) and function.__closure__ is None, (
        "{}.{} is not a plain function".format(owner.__name__, name)
    )
    return function


def compile_mutant(owner, name, edits):
    """The function ``owner.name`` with each ``(healthy, broken)`` edit
    applied in order, compiled where the original was."""
    original = _function(owner, name)
    lines, first_line = inspect.getsourcelines(original)
    source = "".join(lines)
    for healthy, broken in edits:
        count = source.count(healthy)
        assert count == 1, "{}.{}: {!r} occurs {} times, not once".format(
            owner.__name__, name, healthy, count
        )
        source = source.replace(healthy, broken)
    tree = ast.parse(textwrap.dedent(source))
    ast.increment_lineno(tree, first_line - 1)  # tracebacks point home
    module = owner if inspect.ismodule(owner) else sys.modules[owner.__module__]
    namespace = {}
    exec(compile(tree, inspect.getsourcefile(original), "exec"),
         vars(module), namespace)
    return namespace[name]


@contextmanager
def mutant(edits):
    """Patch in the edited copy of every function ``edits`` names."""
    originals = {key: _function(*key) for key in edits}
    mutated = {key: compile_mutant(*key, pairs) for key, pairs in edits.items()}
    try:
        for (owner, name), function in mutated.items():
            setattr(owner, name, function)
        yield
    finally:
        for (owner, name), function in originals.items():
            setattr(owner, name, function)


#: A crosspoint a seeded bug already freed may be released again, so the
#: run lives long enough for the Oracle to report it; ``seeded`` adds
#: this to every bug (``oracle_violations.json`` was recorded under it).
#: Without it ``CrossbarAllocator.release`` raises on a double release.
DOUBLE_RELEASE = {
    (CrossbarAllocator, "release"): [
        ("raise ValueError(", "return  # tolerated: ValueError("),
    ],
    (MetroRouter, "_release_backward"): [(
        "        self.allocator.release(conn.bwd_port)\n",
        "        if not self.allocator.in_use(conn.bwd_port):\n"
        "            conn.bwd_port = None\n"
        "            return\n"
        "        self.allocator.release(conn.bwd_port)\n",
    )],
}

#: The METRO protocol: each must be caught by the conformance Oracle
#: (``tests/verify/test_mutations.py``, ``oracle_violations.json``).
PROTOCOL = {
    # The reversal proceeds without its STATUS word.
    "skip-status": {(MetroRouter, "_emit_status"): [(
        "end.send(W.status(False, checksum, conn.words_forwarded, self.name))",
        "pass",
    )]},
    # Every STATUS word reports a corrupted checksum.
    "corrupt-status-checksum": {(MetroRouter, "_emit_status"): [
        ("checksum = conn.checksum.value", "checksum = conn.checksum.value ^ 0xFF"),
    ]},
    # The crosspoint is unlocked the moment a DROP enters the router,
    # while the old stream is still flushing through it.
    "free-port-early": {(MetroRouter, "_begin_drain"): [(
        "_Connection(conn.fwd_port, self.params.dp)\n",
        "_Connection(conn.fwd_port, self.params.dp)\n"
        "        self.allocator.release(conn.bwd_port)\n"
        "        self._bwd_owner[conn.bwd_port] = None\n",
    )]},
    # A closing connection forgets its backward port without returning it.
    "leak-port-on-drop": {(MetroRouter, "_release_backward"): [
        ("self.allocator.release(conn.bwd_port)", "conn.bwd_port = None; return"),
    ]},
    # Arbitration ignores the IN-USE bits: two circuits share a port.
    "double-allocate": {(CrossbarAllocator, "allocate"): [(
        "candidates = self.free_ports(direction)",
        "candidates = [port for port in self.config.backward_group(direction)"
        " if self.config.port_enabled[self.config.backward_port_id(port)]]",
    )]},
    # Routing picks the next dilation group up, not the requested one.
    "wrong-direction": {(MetroRouter, "_route"): [(
        "conn.direction, decision_key",
        "(conn.direction + 1) % self.config.radix, decision_key",
    )]},
    # A BCB drop is propagated without freeing the local backward port.
    "skip-bcb-release": {(MetroRouter, "_service_backward_bcb"): [
        ("self._release_backward(conn)\n                self._draining",
         "self._draining"),
        ("self._release_backward(conn)\n            conn.reset()",
         "conn.reset()"),
    ]},
    # Backward-control-bit pulses are never answered.
    "ignore-bcb": {(MetroRouter, "_service_backward_bcb"): [
        ("if stage_count is None:", "if True:"),
    ]},
}

MUTANTS = {
    **PROTOCOL,
    # -- the events engine's live test (tests/sim/test_backends.py,
    # tests/verify/test_backend_mutations.py)
    # Only a wire a send marked True is advanced: once advance() has
    # recounted ``live`` as an int, a word in flight stops shifting.
    "events-live-is-true": {(EventEngine, "step"): [
        ("if channel.live:", "if channel.live is True:"),
    ]},
    # -- fast paths both engines run (test_channel.py,
    # test_fast_path_mutations.py, test_full_ticks.py)
    # A lone send_bcb leaves the wire marked silent: the pulse never shifts.
    "channel-stale-liveness": {(ChannelEnd, "send_bcb"): [
        ("self.channel.live = True", "pass"),
    ]},
    # A word leaving a pipe's last slot is not uncounted: the wire's
    # occupancy never falls back to zero, so it never reads as silent.
    "channel-advance-keeps-occupancy": {(Channel, "advance"): [
        ("pipe.occupied -= 1", "pass"),
    ]},
    # A collision leaves the process-wide total unmoved, so the Oracle
    # never sweeps the channel that counted it.
    "channel-collision-uncounted": {(Channel, "advance"): [
        ("Channel.collisions += 1", "pass"),
    ]},
    # A wire bumps its forward word counter for reverse words too.
    "channel-words-reverse-as-forward": {(Channel, "advance"): [
        ("words[1].value += 1", "words[0].value += 1"),
    ]},
    # The owned-port count misses every claim, so the router skips
    # _service_backward_bcb while a port is owned.
    "router-stale-owned-count": {(MetroRouter, "_route"): [
        ("self._count_owned()", "pass"),
    ]},
    # The BCB gate watches the pipes leaving the backward ports, not the
    # ones arriving there: a pulse never opens it.
    "router-bcb-gate-blind": {(MetroRouter, "tick"): [
        ("end._bcb_rx.slots for end in self.backward_ends",
         "end._bcb_tx.slots for end in self.backward_ends"),
    ]},
    # A router goes quiet while a closed connection still drains: the
    # quiet tick never flushes it, so its DROP never leaves.
    "router-quiet-ignores-draining": {(MetroRouter, "tick"): [
        ("quiet = not self._draining", "quiet = True"),
    ]},
    # The stage count a blocking router reports to the hub is 2 (the
    # pulse it sends still carries 1).
    "router-bcb-sent-reports-two": {(MetroRouter, "_block"): [
        ('self._record("bcb-sent", fp, 1)', 'self._record("bcb-sent", fp, 2)'),
    ]},
    # A propagating router reports the count it received plus two (the
    # pulse it sends on still carries plus one).
    "router-bcb-propagate-reports-plus-two": {
        (MetroRouter, "_service_backward_bcb"): [(
            "conn.fwd_port, stage_count + 1)",
            "conn.fwd_port, stage_count + 2)",
        )],
    },
    # MetroRouter's own dead-signal timeout default is 65 cycles.
    "router-timeout-default-65": {(MetroRouter, "__init__"): [
        ("signal_timeout=64,", "signal_timeout=65,"),
    ]},
    # A silent cycle in the setup state resets the connection at once.
    "router-setup-watchdog-negated": {(MetroRouter, "_handle_setup"): [
        ("if self._watchdog(conn):", "if not self._watchdog(conn):"),
    ]},
    # The BCB scan skips a backward port only when it is unwired *and*
    # silent: an owned port with no wire is read.
    "router-bcb-reads-unwired-port": {(MetroRouter, "_service_backward_bcb"): [
        ("if end is None or end._bcb_rx", "if end is None and end._bcb_rx"),
    ]},
    # -- the scan host's slot arithmetic (tests/scan/test_chain.py)
    # The target's image is padded on the wrong side: the routers
    # before it get the padding that belongs between it and TDO.
    "chain-pads-wrong-side": {(ScanChain, "_scan"): [
        ("[0] * after + list(bits) + [0] * sum(lengths[:slot])",
         "[0] * sum(lengths[:slot]) + list(bits) + [0] * after"),
    ]},
    # -- the collective DAG release rule (tests/workloads/test_mutations.py)
    # A delivery never reaches its op's first successor.
    "workload-drop-dep-edge": {(CollectiveObserver, "_release_successors"): [
        ("state.succs[op_id]", "state.succs[op_id][1:]"),
    ]},
    # A successor is released on its first satisfied dependency.
    "workload-premature-release": {
        (CollectiveObserver, "_release_successors"): [
            ("released = state.remaining[succ] == 0", "released = True"),
        ],
    },
    # -- the endpoint (tests/endpoint/test_fairness.py, test_retry.py,
    # tests/sim/test_full_ticks.py)
    # The drain order is queue position alone: a retry can be lapped.
    "endpoint-position-first": {(Endpoint, "_maybe_start_send"): [
        ("key = (candidate[1].queued_cycle, position)", "key = (position,)"),
    ]},
    # The retry wait is drawn from lo..hi-1: the longest wait never comes.
    "endpoint-backoff-never-max": {(UniformBackoff, "delay"): [
        ("rng.randint(self.lo, self.hi)", "rng.randint(self.lo, self.hi - 1)"),
    ]},
    # The receive phases leave the idle test: a destination whose
    # receive pipes fall silent mid-reply stops replying.
    "endpoint-idle-ignores-reply-phase": {(Endpoint, "_at_rest"): [(
        "        for state in self._recv_states:\n"
        "            if state.phase != _RX_IDLE:\n"
        "                return False\n",
        "",
    )]},
    # -- the at-rest skip (tests/endpoint/test_rest_skip.py)
    # skip(n) uses up n - 1 drawn values: a rest leaves a failed draw
    # unused, and the one-cycle rests on it (skip(1)) never use it.
    "source-skip-undercounts": {(_BernoulliSource, "skip"): [
        ("self._misses -= n", "self._misses -= n - 1"),
    ]},
    # A resting endpoint does not see its source replaced: it skips
    # the new source's calls until the old source's next message.
    "endpoint-skip-survives-new-source": {(Endpoint, "tick"): [
        (" and resting is self.traffic_source", ""),
    ]},
    # -- the harness (tests/harness/)
    # A dispatch that found its worker's pipe dead spends an attempt.
    "runner-dead-pipe-spends-attempt": {(TrialRunner, "_run_pool"): [
        ("ready.appendleft(trial)", "trial.attempt += 1; ready.appendleft(trial)"),
    ]},
    # A cache entry is served whatever content hash the journal recorded.
    "runner-ignores-result-hash": {(TrialRunner, "_lookup"): [
        ('if finished.get("result_hash") not in (None, digest):', "if False:"),
    ]},
    # ``run()`` hands back control without its last sync: ``sweep.end``
    # and the records before it since the last commit stay unsynced.
    "runner-skips-final-sync": {(TrialRunner, "run"): [
        ("self._sync()", "pass"),
    ]},
    # A record stays in the writer's buffer when ``record()`` returns.
    "journal-record-unflushed": {(RunJournal, "record"): [
        ("self._handle.flush()", "pass"),
    ]},
    # The trial fingerprint (cache key) leaves out the code version.
    "spec-drops-code-version": {(spec, "_digest"): [
        ("dict(structure, code=code)", "dict(structure)"),
    ]},
    # -- snapshots (tests/sim/test_snapshot_engine.py)
    # A restore keeps the capture backend whatever ``backend=`` asks for.
    "snapshot-restore-ignores-backend": {(snapshot, "restore"): [
        ("_transmute(engine, backend)", "_transmute(engine, snap.backend)"),
    ]},
    # -- telemetry (tests/telemetry/test_stream.py)
    # A delta carries every histogram bucket's running count, not its
    # change, so a fold of deltas over-counts the buckets.
    "metrics-delta-keeps-buckets": {(MetricsSnapshot, "delta_since"): [
        ('diff = count - old[1]["buckets"].get(index, 0)', "diff = count"),
    ]},
    # A series' run-log sort key is derived from its name alone, so the
    # series of one family keep registry order
    # (tests/telemetry/test_observer_pins.py).
    "stream-sort-key-by-name": {(stream, "_series_order"): [
        ("repr(item[0])", "repr(item[0][0])"),
    ]},
    # Merging two snapshots keeps the right-hand counter instead of the
    # sum (tests/telemetry/test_metrics.py).
    "metrics-merge-overwrites-counters": {(MetricsSnapshot, "merge"): [(
        "series[key] = (kind, _merge_entry(kind, mine[1], data))",
        "series[key] = (kind, data if kind == \"counter\" "
        "else _merge_entry(kind, mine[1], data))",
    )]},
    # -- the latency model (tests/latency_model/test_table3.py)
    # A stage's latency loses its on-chip pipeline term (t_clk * dp).
    "latency-stage-drops-pipeline": {(equations, "t_stg"): [
        ("t_on_chip(t_clk, dp) + ", ""),
    ]},
    # -- the scan TAP (tests/scan/test_tap.py)
    # Update-IR latches an opcode that selects no register instead of
    # falling back to BYPASS.
    "tap-latches-unknown-opcode": {(TapController, "step"): [
        ("opcode if opcode in self.registers else BYPASS", "opcode"),
    ]},
    # -- the measured window's conservation gate
    # (tests/harness/test_experiment.py): an abandoned message leaves
    # its endpoint without reaching the log.
    "endpoint-forgets-abandoned": {(Endpoint, "_finish_attempt"): [
        ("self.log.record(message)", "pass"),
    ]},
    # -- the network linter (tests/network/test_validate.py)
    # The turn-delay check reads only the source end of each wire.
    "validate-turn-delay-source-only": {(validate, "_check_turn_delays"): [
        ("((src_key, True), (dst_key, False))", "((src_key, True),)"),
    ]},
    # The reachability check counts a wire through a disabled port as
    # enabled.
    "validate-ignores-disabled-ports": {(validate, "_link_disabled"): [
        ("if not router.config.port_enabled[port_id]:", "if False:"),
    ]},
    # -- the route analysis (tests/network/)
    # A wire of any direction group may carry a connection to any
    # destination: only the final wire into the endpoint is checked.
    "analysis-ignores-dilation-group": {(analysis, "route_subgraph"): [
        ("\n        and (direction is None or direction == digits[u[1]])", ""),
    ]},
    # -- the fault manager (tests/faults/)
    # A failing wire gets its ports back and the mask lands on the
    # upstream router's neighbouring backward port instead.
    "diagnosis-masks-neighbour": {(diagnosis, "port_isolation_test"): [(
        "up_scan.configure(0, disable_port(up_port_id, drive=False))\n",
        "up_scan.configure(0, enable_port(up_port_id)); "
        "down_scan.configure(0, enable_port(down_port_id)); "
        "up_scan.configure(0, disable_port(upstream.config.backward_port_id("
        "(bwd_port + 1) % upstream.params.o), drive=False))\n",
    )]},
    # No post-repair window ever counts as a delivered-rate rebound.
    "manager-never-verifies": {(FaultManager, "_close_window"): [
        ("if self._window_count >= floor:", "if False:"),
    ]},
}


def edits_of(name):
    """The edits ``seeded(name)`` applies: the bug's, after
    :data:`DOUBLE_RELEASE`'s in any function both touch."""
    merged = {key: list(pairs) for key, pairs in DOUBLE_RELEASE.items()}
    for key, pairs in MUTANTS[name].items():
        merged.setdefault(key, []).extend(pairs)
    return merged


def seeded(name):
    """Context manager: the code runs with seeded bug ``name``."""
    return mutant(edits_of(name))
