"""The five benchmark workloads.

Each workload turns ``--seed`` into inputs through public ``repro``
constructors, and hands the timing loop a *run*: an object that does
one deterministic chunk of work per ``step()`` until ``done``, says how
far it has got (``progress()``, compared across rounds), and describes
what it produced (``outcome()``, compared across backends and checked).

Every network starts empty, so simulated statistics cover the whole run
from an empty fabric.  All loops are closed: an endpoint has one
message outstanding, a collective op is released by a delivery, a batch
returns before the next is submitted.

Sizes are set so that one round over every timed backend takes about
two seconds, which lets a run of ``run_seconds`` make at least five
rounds, and so that a chunk takes 5-30 ms of host time.
"""

import contextlib
import hashlib
import json
import os
import shutil
import tempfile

from repro.core.random_source import derive_seed
from repro.endpoint.traffic import UniformRandomTraffic
from repro.harness import TrialRunner, is_quarantined
from repro.harness import journal, load_sweep, parallel
from repro.harness.load_sweep import figure1_network, figure3_network, load_trial_specs
from repro.sim.backends import BACKENDS
from repro.telemetry import TelemetryHub, TelemetryStream, attach_watchdog
from repro.verify import attach_oracle
from repro.verify.backend_diff import message_fingerprint
from repro.workloads import CollectiveSchedule, CollectiveWorkload, finish_collective

from bench import layers
from bench.trace import instrument_network

#: What ``build_network()`` and the CLI give when no backend is named.
DEFAULT_BACKEND = "reference"

#: Scratch space for ``sweep_small``; inside the checkout, git-ignored.
WORK_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), ".work")

N_ENDPOINTS = 64
WORD_BITS = 8
MESSAGE_WORDS = 20


def _span(tracer, name):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


def _digest(value):
    blob = json.dumps(value, sort_keys=True, default=list)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class _CountingSink:
    """Forwards a run-log stream to ``os.devnull`` and counts its size."""

    def __init__(self):
        self.handle = open(os.devnull, "w")
        self.chars = 0

    def write(self, text):
        self.chars += len(text)
        return self.handle.write(text)

    def flush(self):
        self.handle.flush()


# ---------------------------------------------------------------------------
# Engine workloads: one network, driven chunk by chunk
# ---------------------------------------------------------------------------


class _EngineRun:
    """A Figure 3 network carrying traffic, advanced ``chunk`` cycles a step."""

    def __init__(self, network, source, chunk, cycles, tracer):
        self.network = network
        self.source = source  # counts what it generated: the submissions
        self.chunk = chunk
        self.cycles = cycles
        self.tracer = tracer
        self.done = False
        self.hub = None
        self.oracle = None
        self.stream = None
        self.sink = None

    def step(self):
        with _span(self.tracer, "sim.run"):
            self.network.run(self.chunk)
        self.done = self.network.engine.cycle >= self.cycles

    def progress(self):
        return len(self.network.log.messages)

    def close(self):
        if self.stream is not None:
            self.stream.close()
            self.sink.handle.close()

    def outcome(self):
        network = self.network
        log = network.log
        delivered = log.delivered()
        abandoned = len(log.abandoned())
        in_flight = sum(ep.pending_count() for ep in network.endpoints)
        submitted = self.source.generated
        conserved = submitted == len(log.messages) + in_flight
        problems = []
        if not conserved:
            problems.append(
                "conservation: {} submitted != {} delivered + {} abandoned "
                "+ {} in flight".format(
                    submitted, len(delivered), abandoned, in_flight
                )
            )
        if abandoned:
            problems.append("{} messages abandoned".format(abandoned))
        if log.receiver_checksum_failures:
            problems.append(
                "{} receiver checksum failures".format(
                    log.receiver_checksum_failures
                )
            )
        violations = len(self.oracle.violations) if self.oracle else 0
        if violations:
            problems.append("{} Oracle violations".format(violations))
        cycles = network.engine.cycle
        latencies = [m.total_latency for m in delivered]
        return {
            "digest": _digest(message_fingerprint(log)),
            "attempted": submitted,
            "failed": (
                abandoned + log.receiver_checksum_failures + violations
                + (0 if conserved else 1)
            ),
            "problems": problems,
            "cycles": cycles,
            "compressed_cycles": getattr(
                network.engine, "compressed_cycles", 0
            ),
            "delivered": len(delivered),
            "sim": {
                "sim_latency_mean_cyc": sum(latencies) / len(latencies),
                "sim_msgs_per_kcyc": 1000.0 * len(delivered) / cycles,
                "sim_attempts_mean": (
                    sum(m.attempts for m in delivered) / len(delivered)
                ),
            },
        }


class _Workload:
    """What the timing loop needs of a workload, with the usual answers."""

    #: Backends timed in every round of a ``--trace 0`` run.
    backends = (DEFAULT_BACKEND,)
    #: Backends that must all deliver the same messages; those not timed
    #: are run once for the comparison (and timed in a traced run).
    compared = tuple(BACKENDS)
    #: The span opened around each chunk of a traced round.
    root_span = "sim.run"
    #: Extra ``start`` options for traced rounds.
    trace_options = {}

    def tracing(self, tracer):
        """Context in which traced rounds are made."""
        return contextlib.nullcontext()

    def verify(self, seed, outcome):
        """Cross-checks made once per run; returns what they found wrong."""
        return []


class Fig3Workload(_Workload):
    """Uniform random closed-loop traffic on the Figure 3 multibutterfly.

    64 clients, one outstanding message each; an idle client starts a
    message with probability ``rate`` per cycle.  ``observers`` names
    what watches the run: ``metrics`` (a ``TelemetryHub`` without
    spans), ``spans`` (a hub with them), ``stream`` (a run-log stream
    to ``os.devnull``), ``oracle`` and ``watchdog``.
    """

    def __init__(self, name, rate, cycles, chunk, observers=(),
                 backends=(DEFAULT_BACKEND,), check_model=False):
        self.name = name
        self.rate = rate
        self.cycles = cycles
        self.chunk = chunk
        self.observers = frozenset(observers)
        self.backends = tuple(backends)
        self.check_model = check_model

    def verify(self, seed, outcome):
        if not self.check_model:
            return []
        error = layers.model_error(seed)
        if error:
            return ["simulator is {} cycles off the Table 4 model".format(error)]
        return []

    def layer_metrics(self, seed, run, chunk_floors, traced):
        """Layer numbers read off a finished default-backend ``run``.

        ``chunk_floors`` are the untraced per-chunk minima and ``traced``
        the metrics of the traced rounds, for what is derived from them.
        """
        metrics = _engine_layer_metrics(run)
        if run.oracle is not None:
            metrics["verify.oracle.violations"] = len(run.oracle.violations)
            metrics.update(layers.probe_observers(self, seed, DEFAULT_BACKEND))
        return metrics

    def start(self, seed, backend, tracer=None, observers=None):
        observers = self.observers if observers is None else frozenset(observers)
        hub = None
        if observers & {"metrics", "spans", "stream"}:
            hub = TelemetryHub(spans="spans" in observers)
        with _span(tracer, "network.build_network"):
            network = figure3_network(seed=seed, backend=backend, telemetry=hub)
        with _span(tracer, "workload.attach"):
            traffic = UniformRandomTraffic(
                N_ENDPOINTS, WORD_BITS, rate=self.rate,
                message_words=MESSAGE_WORDS, seed=seed + 1,
            ).attach(network)
            run = _EngineRun(network, traffic, self.chunk, self.cycles, tracer)
            run.hub = hub
            if "stream" in observers:
                run.sink = _CountingSink()
                run.stream = TelemetryStream(
                    run.sink, flush_every=100, window_cycles=200
                ).bind(network)
            if "oracle" in observers:
                run.oracle = attach_oracle(network)
            if "watchdog" in observers:
                attach_watchdog(network)
        if tracer is not None:
            instrument_network(tracer, network)
        return run


def _engine_layer_metrics(run):
    metrics = layers.from_log(run.network.log)
    metrics.update(layers.probe_snapshot(run))
    return metrics


class _RingRun(_EngineRun):
    """Runs until the collective's last op completes, then drains."""

    def step(self):
        with _span(self.tracer, "sim.run"):
            self.network.run(self.chunk)
            if self.source.finished:
                self.result = finish_collective(self.network, self.source)
                self.done = True
            elif self.network.engine.cycle >= self.cycles:
                # A stuck DAG must end the round, not hang it.
                self.result = self.source.result(self.network)
                self.done = True

    def outcome(self):
        outcome = _EngineRun.outcome(self)
        result = self.result
        missing = result.n_ops - result.completed_ops
        if missing or result.failed_ops:
            outcome["problems"].append(
                "{} of {} collective ops incomplete, {} failed".format(
                    missing, result.n_ops, result.failed_ops
                )
            )
        outcome["attempted"] = result.n_ops
        outcome["failed"] += missing + result.failed_ops
        outcome["digest"] = _digest([outcome["digest"], result.content_hash()])
        return outcome


class RingAllReduceWorkload(_Workload):
    """Ring all-reduce over every other endpoint of the Figure 3 network.

    32 ranks, ``2 * 31`` steps of 32 one-word neighbour transfers (1984
    ops); each send is released by the delivery of the previous step's
    message from the rank's predecessor.
    """

    name = "ring_allreduce"
    ranks = tuple(range(0, N_ENDPOINTS, 2))
    chunk = 32
    cycle_limit = 20000

    def layer_metrics(self, seed, run, chunk_floors, traced):
        metrics = _engine_layer_metrics(run)
        released = run.source.state.released_cycle
        metrics.update({
            "workloads.collective.release_per_kcyc": (
                1000.0 * sum(1 for cycle in released if cycle is not None)
                / run.network.engine.cycle
            ),
            "workloads.collective.max_step_skew_cyc": (
                run.result.max_step_skew()
            ),
            "workloads.collective.completion_cyc": run.result.total_cycles,
        })
        return metrics

    def start(self, seed, backend, tracer=None):
        with _span(tracer, "network.build_network"):
            network = figure3_network(seed=seed, backend=backend)
        with _span(tracer, "workload.attach"):
            schedule = CollectiveSchedule.ring_all_reduce(
                N_ENDPOINTS, words_per_rank=MESSAGE_WORDS, ranks=self.ranks
            )
            workload = CollectiveWorkload(
                schedule, w=WORD_BITS, seed=seed + 1
            ).attach(network)
        if tracer is not None:
            instrument_network(tracer, network)
        return _RingRun(network, workload, self.chunk, self.cycle_limit, tracer)


# ---------------------------------------------------------------------------
# The harness workload: many tiny trials through the parallel runner
# ---------------------------------------------------------------------------


def _result_hashes(results):
    return [result.content_hash() for result in results]


class _SweepRun:
    """Each batch cold, then the same batch warm from the trial cache."""

    def __init__(self, workload, seed, workers, tracer):
        self.workload = workload
        self.workers = workers
        self.tracer = tracer
        os.makedirs(WORK_DIR, exist_ok=True)
        self.directory = tempfile.mkdtemp(prefix="sweep-", dir=WORK_DIR)
        self.batches = [
            load_trial_specs(
                network_factory=figure1_network,
                warmup_cycles=0,
                measure_cycles=workload.measure_cycles,
                seed=derive_seed(seed, "sweep_small", batch),
            )
            for batch in range(workload.n_batches)
        ]
        self.steps = [
            (batch, phase)
            for batch in range(workload.n_batches)
            for phase in ("cold", "warm")
        ]
        self.results = {}
        self.done = False

    def step(self):
        batch, phase = self.steps[len(self.results)]
        with _span(self.tracer, "harness.runner.run"):
            runner = TrialRunner(
                workers=self.workers,
                cache_dir=os.path.join(self.directory, "cache"),
                journal=os.path.join(
                    self.directory, "journal-{}.jsonl".format(batch)
                ),
            )
            try:
                self.results[batch, phase] = runner.run(self.batches[batch])
            finally:
                runner.journal.close()
        self.done = len(self.results) == len(self.steps)

    def progress(self):
        return sum(
            getattr(result, "delivered_count", 0)
            for results in self.results.values()
            for result in results
        )

    def close(self):
        shutil.rmtree(self.directory, ignore_errors=True)

    def outcome(self):
        cold = [r for b in range(len(self.batches)) for r in self.results[b, "cold"]]
        warm = [r for b in range(len(self.batches)) for r in self.results[b, "warm"]]
        quarantined = sum(1 for r in cold + warm if is_quarantined(r))
        good = [r for r in cold if not is_quarantined(r)]
        cold_hashes = _result_hashes(cold)
        stale = sum(
            1 for a, b in zip(cold_hashes, _result_hashes(warm)) if a != b
        )
        problems = []
        if quarantined:
            problems.append("{} trials quarantined".format(quarantined))
        if stale:
            problems.append(
                "{} warm results differ from their cold run".format(stale)
            )
        abandoned = sum(r.abandoned_count for r in good)
        if abandoned:
            problems.append("{} messages abandoned".format(abandoned))
        delivered = sum(r.delivered_count for r in good)
        cycles = sum(r.measure_cycles for r in good)
        # Trial results carry statistics, not samples: weight each
        # trial's mean by the messages it delivered.
        busy = [r for r in good if r.delivered_count]

        def weighted(value):
            return sum(value(r) * r.delivered_count for r in busy) / delivered

        return {
            "digest": _digest(cold_hashes),
            "hashes": cold_hashes,
            "attempted": len(cold) + len(warm),
            "failed": quarantined + stale + abandoned,
            "problems": problems,
            "cycles": cycles,
            "delivered": delivered,
            "sim": {
                "sim_latency_mean_cyc": weighted(lambda r: r.mean_latency),
                "sim_msgs_per_kcyc": 1000.0 * delivered / cycles,
                "sim_attempts_mean": weighted(lambda r: r.mean_attempts),
            },
        }


@contextlib.contextmanager
def _traced_harness(tracer):
    """Open spans around the harness's own calls into lower layers.

    ``sweep_small`` trials run inside ``TrialRunner``, out of the
    benchmark's reach, so while tracing (serially: a pool's children
    are other processes, whose spans this one cannot record) the names
    the harness calls are rebound to span-opening wrappers.
    """

    def spanned(name, function):
        def call(*args, **kwargs):
            with tracer.span(name):
                return function(*args, **kwargs)

        return call

    build = load_sweep.build_network

    def traced_build(*args, **kwargs):
        with tracer.span("network.build_network"):
            network = build(*args, **kwargs)
        instrument_network(tracer, network)
        return network

    targets = [
        (load_sweep, "build_network", traced_build),
        (parallel, "execute_trial",
         spanned("harness.execute_trial", parallel.execute_trial)),
        (journal.RunJournal, "record",
         spanned("harness.journal.record", journal.RunJournal.record)),
        (parallel.TrialCache, "get",
         spanned("harness.cache.get", parallel.TrialCache.get)),
        (parallel.TrialCache, "put",
         spanned("harness.cache.put", parallel.TrialCache.put)),
    ]
    saved = [(owner, name, getattr(owner, name)) for owner, name, _ in targets]
    for owner, name, replacement in targets:
        setattr(owner, name, replacement)
    try:
        yield
    finally:
        for owner, name, original in saved:
            setattr(owner, name, original)


class SweepSmallWorkload(_Workload):
    """16 batches of 8 sixteen-cycle Figure 1 load points, 2 workers.

    Every batch goes through a fresh ``TrialRunner`` with a trial cache
    and a fsynced run journal on a real directory, cold and then warm.
    The engine backend is not a dimension here (a trial simulates some 70
    cycles of a 16-endpoint network), so only the default is timed.
    """

    name = "sweep_small"
    compared = (DEFAULT_BACKEND,)
    root_span = "harness.runner.run"
    #: A pool's children are other processes, whose spans this one
    #: cannot record, so the traced rounds run serially.
    trace_options = {"workers": 1}
    n_batches = 16
    measure_cycles = 16
    workers = 2
    #: Batches re-run with ``workers=1`` for the serial == parallel check.
    serial_check_batches = 4

    def verify(self, seed, outcome):
        run = self.start(seed, DEFAULT_BACKEND)
        try:
            serial = [
                result.content_hash()
                for batch in run.batches[:self.serial_check_batches]
                for result in TrialRunner(workers=1).run(batch)
            ]
        finally:
            run.close()
        if serial != outcome["hashes"][:len(serial)]:
            return ["workers=1 results differ from the pool's"]
        return []

    def layer_metrics(self, seed, run, chunk_floors, traced):
        probe = self.start(seed, DEFAULT_BACKEND)
        try:
            metrics = layers.probe_harness(probe)
        finally:
            probe.close()
        metrics["harness.cold_batch_ms"] = (
            1e3 * sum(chunk_floors[0::2]) / self.n_batches
        )
        metrics["harness.warm_batch_ms"] = (
            1e3 * sum(chunk_floors[1::2]) / self.n_batches
        )
        # Ticks and advances on the pooled round's critical path: their
        # traced share of a trial, times the untraced trials each of
        # the pool's workers runs, over the round.
        trials = self.n_batches * len(run.batches[0])
        metrics["harness.ticks_share_of_round_pct"] = (
            traced["sim.ticks_share_pct"]
            * (1e-3 * metrics["harness.execute_trial_ms"] * trials / self.workers)
            / sum(chunk_floors)
        )
        return metrics

    def tracing(self, tracer):
        return _traced_harness(tracer)

    def start(self, seed, backend, tracer=None, workers=None):
        with _span(tracer, "workload.attach"):
            return _SweepRun(
                self, seed, self.workers if workers is None else workers, tracer
            )


WORKLOADS = {
    workload.name: workload
    for workload in (
        # Why each exists is recorded in BENCHMARK.json and README.md.
        Fig3Workload(
            "fig3_light",
            rate=0.002, cycles=2400, chunk=50, backends=BACKENDS,
            check_model=True,
        ),
        Fig3Workload(
            "fig3_saturated",
            rate=0.32, cycles=640, chunk=10, backends=BACKENDS,
        ),
        Fig3Workload(
            "fig3_checked",
            rate=0.02, cycles=360, chunk=10,
            observers=("metrics", "stream", "oracle", "watchdog"),
        ),
        RingAllReduceWorkload(),
        SweepSmallWorkload(),
    )
}
