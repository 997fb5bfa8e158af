"""Chaos soak harness: long faulty runs with self-healing on or off.

The paper claims the architecture "operates with any set of faults
short of those which disconnect endpoints" (Section 1); the fault
sweep measures *static* fault levels, and this harness measures the
*dynamic* story: transient faults (flaky wires, dying routers) strike
mid-run while the online :class:`~repro.faults.manager.FaultManager`
detects, localizes and masks them.  A soak reports service-level
numbers — availability (fraction of windows meeting the delivered-rate
SLO), MTTR (how long degraded episodes last), undeliverable count —
and the natural experiment is the same seed with self-healing ON
versus OFF.

Soaks are deterministic: every random choice derives from the trial
seed, so a soak is a pure function of its parameters and serial ==
parallel execution byte-identically (the
:class:`~repro.harness.parallel.TrialRunner` contract).

Long soaks can checkpoint themselves: ``snapshot_every=K`` writes an
engine snapshot (:mod:`repro.sim.snapshot`) every ``K`` windows into a
small on-disk ring, and running the same soak again (same parameters,
same ``snapshot_dir``: re-run the command) picks up its newest intact
checkpoint after a crash or host
restart and finishes — producing the *same* :class:`ChaosResult` an
uninterrupted run would have, because the result is a pure function
of the final message log and fault histories, all of which ride the
snapshot.
"""

import logging
import os
import random

from repro.core.random_source import derive_seed
from repro.faults.injector import FaultInjector, random_transient_scenario
from repro.faults.manager import FaultManager
from repro.faults.model import DeadRouter
from repro.harness.load_sweep import build_point_network, figure1_network, point_traffic
from repro.harness.spec import TrialSpec, trial_keys

logger = logging.getLogger(__name__)

#: A window meets the SLO when it delivers this fraction of the
#: fault-free baseline rate.
SLO_FRACTION = 0.75
#: Checkpoints a soak's snapshot ring holds; older ones are pruned.
SNAPSHOT_KEEP = 3


class ChaosResult:
    """Outcome of one chaos soak: windowed rates plus fault history.

    Carries only plain data (ints, strings, dicts of such), so results
    pickle byte-identically regardless of which process produced them.
    """

    #: MetricsSnapshot when the soak ran with telemetry, else None.
    #: Class attribute because only such a soak sets it; no pickle
    #: written by older code is ever read (``ExperimentResult.metrics``).
    metrics = None
    #: Stall diagnoses (plain dicts) when the soak ran with a
    #: watchdog, else empty (class attribute for the same reason).
    stalls = ()

    def __init__(
        self,
        label,
        seed,
        self_heal,
        window_cycles,
        warmup_windows,
        fault_start,
        slo_fraction,
        windows,
        undeliverable,
        attempt_failures,
        fault_events,
        mask_events,
        repairs,
        evidence_count,
        oracle_violations,
    ):
        self.label = label
        self.seed = seed
        self.self_heal = self_heal
        self.window_cycles = window_cycles
        self.warmup_windows = warmup_windows
        self.fault_start = fault_start
        self.slo_fraction = slo_fraction
        #: Delivered (acked) message count per completed window.
        self.windows = list(windows)
        self.undeliverable = undeliverable
        self.attempt_failures = dict(attempt_failures)
        #: ``(cycle, description, action)`` for every fault transition.
        self.fault_events = list(fault_events)
        #: Mask decisions the manager took (dicts; empty when off).
        self.mask_events = list(mask_events)
        self.repairs = list(repairs)
        self.evidence_count = evidence_count
        self.oracle_violations = oracle_violations

    # -- service-level numbers -------------------------------------------

    @property
    def baseline_rate(self):
        """Mean fault-free delivered rate (the warmup windows)."""
        head = self.windows[: self.warmup_windows]
        if not head:
            return 0.0
        return sum(head) / len(head)

    def _post_fault(self):
        return self.windows[self.fault_start // self.window_cycles:]

    def _slo_floor(self):
        return self.slo_fraction * self.baseline_rate

    @property
    def availability(self):
        """Fraction of post-fault windows meeting the delivered SLO."""
        post = self._post_fault()
        if not post:
            return 1.0
        floor = self._slo_floor()
        return sum(1 for count in post if count >= floor) / len(post)

    @property
    def degraded_windows(self):
        floor = self._slo_floor()
        return sum(1 for count in self._post_fault() if count < floor)

    @property
    def mttr_cycles(self):
        """Mean length of a degraded episode, in cycles.

        An episode is a maximal run of consecutive below-SLO windows;
        0.0 when the soak never went degraded.
        """
        floor = self._slo_floor()
        episodes = []
        run = 0
        for count in self._post_fault():
            if count < floor:
                run += 1
            elif run:
                episodes.append(run)
                run = 0
        if run:
            episodes.append(run)
        if not episodes:
            return 0.0
        return self.window_cycles * sum(episodes) / len(episodes)

    @property
    def recovered_rate(self):
        """Mean delivered rate over the soak's last three windows."""
        tail = self.windows[-3:]
        if not tail:
            return 0.0
        return sum(tail) / len(tail)

    def as_dict(self):
        return {
            "label": self.label,
            "seed": self.seed,
            "self_heal": self.self_heal,
            "windows": list(self.windows),
            "baseline_rate": self.baseline_rate,
            "recovered_rate": self.recovered_rate,
            "availability": self.availability,
            "degraded_windows": self.degraded_windows,
            "mttr_cycles": self.mttr_cycles,
            "undeliverable": self.undeliverable,
            "masked_wires": len(self.mask_events),
            "fault_events": [list(e) for e in self.fault_events],
            "oracle_violations": self.oracle_violations,
            "stalls": len(self.stalls),
        }

    def __repr__(self):
        return (
            "<ChaosResult {} heal={} avail={:.2f} mttr={:.0f} "
            "masked={}>".format(
                self.label,
                "on" if self.self_heal else "off",
                self.availability,
                self.mttr_cycles,
                len(self.mask_events),
            )
        )


def run_chaos_point(
    seed=0,
    self_heal=True,
    n_windows=30,
    window_cycles=400,
    warmup_windows=5,
    n_flaky_links=1,
    n_dead_routers=1,
    mtbf=1500,
    mttr=600,
    rate=0.02,
    message_words=12,
    max_attempts=60,
    network_factory=figure1_network,
    metrics=False,
    oracle=False,
    backend="reference",
    snapshot_every=None,
    snapshot_dir=None,
    stream_path=None,
    stall_cycles=None,
):
    """One chaos soak: seeded transient + hard faults, optional healing.

    The soak warms up fault-free for ``warmup_windows`` windows, then
    ``n_dead_routers`` middle-stage routers die for good while
    ``n_flaky_links`` wires begin transient duty cycles (seeded
    MTBF/MTTR).  With ``self_heal`` a
    :class:`~repro.faults.manager.FaultManager` watches the failure
    evidence and masks localized faults online; without it the
    endpoints' retry discipline is the only defence.  ``oracle=True``
    attaches the protocol conformance oracle for the whole soak
    (violations are counted on the result, not raised).

    Endpoints verify stage checksums (the manager's best evidence) and
    run a finite ``max_attempts`` so unreachable destinations surface
    as ``undeliverable`` instead of infinite retry.

    ``snapshot_every=K`` (with ``snapshot_dir``) checkpoints the live
    network every ``K`` completed windows into a ring of at most
    :data:`SNAPSHOT_KEEP` files, and makes the soak idempotent: it first
    looks in ``snapshot_dir`` for the newest intact checkpoint *it*
    wrote and continues from there, so calling it again after a crash
    finishes the soak instead of restarting it.  "It" is an identity
    stamped into every checkpoint: the fingerprint of every parameter
    here that can change the :class:`ChaosResult`, plus the code
    version — everything but ``backend`` (snapshots restore across
    backends) and where the ring and run log live.  An entry that is
    corrupt or carries another identity is skipped with a warning and
    removed (so pruning by cycle can never evict this soak's own
    checkpoints in favour of stale higher-numbered ones); with no
    usable entry the soak starts at cycle 0.  Checkpointing never
    changes the result: snapshot capture does not perturb the live
    graph, and run-boundary placement is proven transparent by
    :mod:`repro.verify.resume_diff`.

    ``stream_path`` attaches a
    :class:`~repro.telemetry.stream.TelemetryStream` writing the
    soak's live JSONL run log (metric deltas when ``metrics=True``,
    window stats, fault transitions, snapshot-ring writes, stall
    diagnoses) — see ``docs/observability.md``.  The log is appended,
    never truncated, so the legs of a resumed soak form one log.
    ``stall_cycles`` attaches a
    :class:`~repro.telemetry.watchdog.RunWatchdog` (also attached
    implicitly when streaming, with a default window of five soak
    windows, or when the parallel runner requests heartbeats via
    ``REPRO_HEARTBEAT_FILE``).  Neither observer perturbs the
    simulation — a streamed soak's :class:`ChaosResult` scores
    byte-identically to an unstreamed one.
    """
    # Every argument with its default resolved, before any other local
    # exists: what a checkpoint's identity is computed over.
    params = dict(locals())
    fault_start = warmup_windows * window_cycles
    meta = dict(
        seed=seed,
        self_heal=self_heal,
        n_windows=n_windows,
        window_cycles=window_cycles,
        warmup_windows=warmup_windows,
        fault_start=fault_start,
        slo_fraction=SLO_FRACTION,
        snapshot_every=snapshot_every,
        snapshot_keep=SNAPSHOT_KEEP,
    )
    run = dict(
        snapshot_dir=snapshot_dir,
        stream_path=stream_path,
        stall_cycles=stall_cycles,
    )
    if snapshot_every:
        if snapshot_dir is None:
            raise ValueError("snapshot_every requires snapshot_dir")
        meta["identity"] = _soak_identity(params)
        restored = _restore_own_checkpoint(
            snapshot_dir, meta["identity"], backend
        )
        if restored is not None:
            extras = restored.extras
            return _finish_soak(
                restored.network,
                extras["injector"],
                extras["manager"],
                extras["watcher"],
                extras["telemetry"],
                meta,
                **run
            )
    network, telemetry = build_point_network(
        network_factory, seed, backend=backend, metrics=metrics,
        endpoint_kwargs={
            "verify_stage_checksums": True,
            "max_attempts": max_attempts,
        },
    )

    watcher = None
    if oracle:
        from repro.verify.oracle import attach_oracle

        watcher = attach_oracle(network)

    injector = FaultInjector(network)
    rng = random.Random(derive_seed(seed, "chaos-faults"))
    last = network.plan.n_stages - 1
    middle = [
        key for key in network.router_grid if 0 < key[0] < last
    ]
    rng.shuffle(middle)
    for stage, block, index in middle[:n_dead_routers]:
        injector.at(fault_start, DeadRouter(stage, block, index))
    for fault in random_transient_scenario(
        network,
        n_flaky_links=n_flaky_links,
        mtbf=mtbf,
        mttr=mttr,
        seed=derive_seed(seed, "chaos-transients"),
        start=fault_start,
    ):
        injector.transient(fault)

    manager = None
    if self_heal:
        manager = FaultManager(network, rate_window=window_cycles)

    point_traffic(network, rate, message_words, seed).attach(network)
    return _finish_soak(
        network, injector, manager, watcher, telemetry, meta, **run
    )


def _finish_soak(
    network,
    injector,
    manager,
    watcher,
    telemetry,
    meta,
    snapshot_dir=None,
    stream_path=None,
    stall_cycles=None,
):
    """Run a (possibly restored) soak to completion and score it.

    Scoring is a pure function of the final message log and fault
    histories, so a soak continued from a checkpoint produces exactly
    the uninterrupted soak's :class:`ChaosResult`.
    """
    window_cycles = meta["window_cycles"]
    snapshot_every = meta.get("snapshot_every")
    engine = network.engine
    target = meta["n_windows"] * window_cycles

    stream = None
    if stream_path is not None:
        from repro.telemetry.stream import TelemetryStream

        stream = TelemetryStream(
            stream_path,
            flush_every=window_cycles,
            window_cycles=window_cycles,
            meta=dict(meta),
        )
        stream.bind(network, injector=injector)
    from repro.telemetry.watchdog import RunWatchdog, heartbeat_path_from_env

    # A resumed soak restores its previous watchdog with the engine
    # observers; reuse it rather than stacking a second one.
    watchdog = next(
        (o for o in engine.observers if isinstance(o, RunWatchdog)), None
    )
    if watchdog is not None:
        if stream is not None:
            watchdog.sink = stream
    elif stall_cycles is not None or stream is not None or heartbeat_path_from_env():
        watchdog = RunWatchdog(
            stall_cycles=stall_cycles or 5 * window_cycles,
            heartbeat_every=window_cycles,
            sink=stream,
        )
        watchdog.bind(network)

    span = None
    next_snap = None
    if snapshot_every:
        span = snapshot_every * window_cycles
        next_snap = (engine.cycle // span + 1) * span
    while engine.cycle < target:
        stop = target if next_snap is None else min(target, next_snap)
        network.run(stop - engine.cycle)
        if manager is not None and manager.repairs_due():
            manager.service()
        if next_snap is not None and engine.cycle >= next_snap:
            if engine.cycle < target:
                path = _write_ring_snapshot(
                    network,
                    injector,
                    manager,
                    watcher,
                    telemetry,
                    meta,
                    snapshot_dir,
                )
                if stream is not None:
                    stream.notify_snapshot(path, cycle=engine.cycle)
            next_snap = (engine.cycle // span + 1) * span

    from repro.endpoint import messages as M

    counts = {}
    for message in network.log.messages:
        if message.outcome == M.DELIVERED:
            window = message.done_cycle // window_cycles
            counts[window] = counts.get(window, 0) + 1
    n_complete = engine.cycle // window_cycles
    windows = [counts.get(i, 0) for i in range(n_complete)]

    seed = meta["seed"]
    self_heal = meta["self_heal"]
    result = ChaosResult(
        label="seed={} heal={}".format(seed, "on" if self_heal else "off"),
        seed=seed,
        self_heal=self_heal,
        window_cycles=window_cycles,
        warmup_windows=meta["warmup_windows"],
        fault_start=meta["fault_start"],
        slo_fraction=meta["slo_fraction"],
        windows=windows,
        undeliverable=len(network.log.abandoned()),
        attempt_failures=network.log.attempt_failures,
        fault_events=[
            (entry.cycle, entry.fault.describe(), entry.action)
            for entry in injector.applied
        ],
        mask_events=manager.mask_events if manager is not None else [],
        repairs=(
            [dict(r) for r in manager.repairs] if manager is not None else []
        ),
        evidence_count=manager.evidence_count if manager is not None else 0,
        oracle_violations=(
            len(watcher.violations) if watcher is not None else 0
        ),
    )
    if telemetry is not None:
        registry = telemetry.registry
        registry.gauge("chaos.availability").set(result.availability)
        registry.gauge("chaos.mttr_cycles").set(result.mttr_cycles)
        registry.gauge("chaos.degraded_windows").set(result.degraded_windows)
        registry.gauge("chaos.masked_wires").set(len(result.mask_events))
        result.metrics = telemetry.snapshot()
    if watchdog is not None:
        result.stalls = [stall.as_dict() for stall in watchdog.stalls]
    if stream is not None:
        # Closed after the final gauges above, so the run log's merged
        # deltas reproduce ``result.metrics`` exactly.
        stream.close(
            summary={
                "label": result.label,
                "availability": result.availability,
                "mttr_cycles": result.mttr_cycles,
                "undeliverable": result.undeliverable,
                "masked_wires": len(result.mask_events),
                "windows": len(result.windows),
                "stalls": len(result.stalls),
            }
        )
    return result


# ---------------------------------------------------------------------------
# Crash-safe checkpointing (the snapshot ring)
# ---------------------------------------------------------------------------

_RING_PREFIX = "chaos-"
_RING_SUFFIX = ".snap"


def _ring_files(snapshot_dir):
    """Ring entries as ``(cycle, path)``, oldest first."""
    entries = []
    try:
        names = os.listdir(snapshot_dir)
    except OSError:
        return entries
    for name in names:
        if not (name.startswith(_RING_PREFIX) and name.endswith(_RING_SUFFIX)):
            continue
        stem = name[len(_RING_PREFIX):-len(_RING_SUFFIX)]
        try:
            cycle = int(stem)
        except ValueError:
            continue
        entries.append((cycle, os.path.join(snapshot_dir, name)))
    entries.sort()
    return entries


def _write_ring_snapshot(
    network, injector, manager, watcher, telemetry, meta, snapshot_dir
):
    """Checkpoint the live soak; prune the ring to :data:`SNAPSHOT_KEEP`."""
    from repro.sim.snapshot import snapshot_network

    os.makedirs(snapshot_dir, exist_ok=True)
    snap = snapshot_network(
        network,
        extras={
            "injector": injector,
            "manager": manager,
            "watcher": watcher,
            "telemetry": telemetry,
        },
        meta=dict(meta),
    )
    path = os.path.join(
        snapshot_dir,
        "{}{:012d}{}".format(_RING_PREFIX, network.engine.cycle, _RING_SUFFIX),
    )
    # Write-then-rename so a crash mid-write never corrupts the newest
    # ring entry a resume would pick.
    tmp = path + ".tmp"
    snap.save(tmp)
    os.replace(tmp, path)
    for _cycle, old in _ring_files(snapshot_dir)[:-SNAPSHOT_KEEP]:
        try:
            os.remove(old)
        except OSError:
            pass
    return path


def _soak_identity(params):
    """What makes a ring entry *this* soak's checkpoint.

    The trial-cache fingerprint (:meth:`TrialSpec.fingerprint`: runner,
    parameters, seed, code version) over :func:`run_chaos_point`'s
    arguments less ``backend`` (a checkpoint restores under either
    engine) and where the ring and the run log live.  None when a
    parameter has no stable identity (a lambda factory): such a soak
    checkpoints but never resumes.
    """
    params = dict(params)
    seed = params.pop("seed")
    for key in ("backend", "snapshot_dir", "stream_path"):
        del params[key]
    spec = TrialSpec(
        "repro.harness.chaos:run_chaos_point", params=params, seed=seed
    )
    return trial_keys(spec)[1]


def _restore_own_checkpoint(snapshot_dir, identity, backend):
    """Restore the newest intact ring entry stamped ``identity``, or None.

    Walks the ring newest-first.  The identity is compared on
    ``snap.meta`` before anything is restored; an entry that is
    corrupt, from an incompatible snapshot format or another soak's is
    skipped with a warning and removed, so every entry left behind is
    this soak's and older than the one restored.  None means a fresh
    start (warned when the ring was not simply empty): an unusable
    ring costs the soak's time, never an exception and never another
    run's answer.
    """
    from repro.sim.snapshot import Snapshot, restore_network

    entries = _ring_files(snapshot_dir)
    for cycle, path in reversed(entries):
        unusable = "checkpoint of a different soak or code version"
        try:
            snap = Snapshot.load(path)
            if identity is not None and snap.meta.get("identity") == identity:
                restored = restore_network(snap, backend=backend)
                unusable = None
        except Exception as error:  # corrupt entry: anything can raise
            unusable = error
        if unusable is None:
            logger.info(
                "chaos ring %s: continuing from cycle %d", snapshot_dir, cycle
            )
            return restored
        logger.warning(
            "chaos ring %s: skipping and removing %s (%s)",
            snapshot_dir, os.path.basename(path), unusable,
        )
        try:
            os.remove(path)
        except OSError:
            pass
    if entries:
        logger.warning(
            "chaos ring %s: no usable checkpoint; starting the soak at "
            "cycle 0", snapshot_dir,
        )
    return None


def chaos_trial_specs(
    seeds=4,
    seed=0,
    self_heal=(True,),
    **kwargs
):
    """One :class:`TrialSpec` per (soak index, healing mode).

    The seed path is ``("chaos", index, heal)`` so a soak's randomness
    is unchanged when more soaks or the other healing mode are added.
    ``self_heal=(True, False)`` produces the paired ON/OFF experiment.

    When checkpointing (``snapshot_dir`` in ``kwargs``), each soak
    gets its own ring subdirectory (``soak<i>-heal<on|off>/``) so
    concurrent soaks never clobber each other's checkpoints, and
    running the same specs again continues every unfinished soak from
    its own subdirectory.  Likewise ``stream_dir`` gives each soak its
    own run log (``soak<i>-heal<on|off>.jsonl``).  Note that run logs
    and checkpoints are side effects outside the trial-cache key's
    view of a result: a cache-hit trial returns its cached
    :class:`ChaosResult` without re-writing them.
    """
    snapshot_dir = kwargs.pop("snapshot_dir", None)
    stream_dir = kwargs.pop("stream_dir", None)
    if stream_dir is not None:
        os.makedirs(stream_dir, exist_ok=True)
    specs = []
    for index in range(seeds):
        for heal in self_heal:
            mode = "on" if heal else "off"
            params = dict(self_heal=heal, **kwargs)
            if snapshot_dir is not None:
                params["snapshot_dir"] = os.path.join(
                    snapshot_dir, "soak{}-heal{}".format(index, mode)
                )
            if stream_dir is not None:
                params["stream_path"] = os.path.join(
                    stream_dir, "soak{}-heal{}.jsonl".format(index, mode)
                )
            specs.append(
                TrialSpec(
                    runner="repro.harness.chaos:run_chaos_point",
                    params=params,
                    seed=derive_seed(seed, "chaos", index, heal),
                    label="chaos[{}] heal={}".format(index, mode),
                )
            )
    return specs


def chaos_slo_failures(
    results,
    min_availability=None,
    max_undeliverable=None,
    max_mttr_cycles=None,
):
    """Soaks violating the service-level bounds.

    Returns ``(result, reason)`` pairs; empty when every soak is
    within bounds.  The CLI turns a non-empty return into a nonzero
    exit status (the chaos-smoke CI gate).
    """
    failures = []
    for result in results:
        if (
            min_availability is not None
            and result.availability < min_availability
        ):
            failures.append(
                (
                    result,
                    "availability {:.3f} < {:.3f}".format(
                        result.availability, min_availability
                    ),
                )
            )
        if (
            max_undeliverable is not None
            and result.undeliverable > max_undeliverable
        ):
            failures.append(
                (
                    result,
                    "undeliverable {} > {}".format(
                        result.undeliverable, max_undeliverable
                    ),
                )
            )
        if (
            max_mttr_cycles is not None
            and result.mttr_cycles > max_mttr_cycles
        ):
            failures.append(
                (
                    result,
                    "MTTR {:.0f} cycles > {:.0f}".format(
                        result.mttr_cycles, max_mttr_cycles
                    ),
                )
            )
    return failures
