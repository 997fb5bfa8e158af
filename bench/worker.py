"""One workload, measured in one fresh interpreter.

``python -m bench.worker (setup|measure) --workload NAME --seed N ...``
is started by ``bench/run.py`` with ``PYTHONHASHSEED=0`` and
``REPRO_JIT`` unset; it prints one JSON object on its last line.

``setup`` takes one sample of what a user pays before cycle 0 (import
``repro.cli``, build the network, attach traffic and observers) and
exits.  ``measure`` takes the same sample, then times rounds of the
workload for the given number of seconds; with ``--trace 1`` it spends
part of that time on traced rounds and layer probes.

The garbage collector stays enabled: users pay for it.
"""

import time

_STARTED = time.perf_counter()

import repro.cli  # noqa: E402,F401  (timed: the import is part of set-up)

IMPORT_S = time.perf_counter() - _STARTED

import argparse  # noqa: E402
import collections  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import numpy  # noqa: E402

from bench import calibrate, estimator, layers, trace  # noqa: E402
from bench.workloads import DEFAULT_BACKEND, WORKLOADS  # noqa: E402

#: A floor is a minimum over rounds; fewer than this and it is not one.
MIN_ROUNDS = 3

#: Speed-reference samples a set-up takes (the timing loop takes one
#: after every chunk, hundreds a run).
SETUP_KERNEL_SAMPLES = 60

#: What ``time_rounds`` hands back: per backend the chunk times of every
#: round and the last outcome, what broke the estimator's premise (work
#: that differed between rounds), and the host's slowdown over the run.
Timing = collections.namedtuple(
    "Timing", ["times", "outcomes", "problems", "slowdown"]
)

#: Shares of ``--seconds`` a traced run gives to untraced rounds (the
#: per-backend floors) and to traced rounds; probes take the rest.
TRACE_SHARES = (0.4, 0.25)


class GcWatch:
    """Counts collections and the time they take, via ``gc.callbacks``."""

    def __init__(self):
        self.seconds = 0.0
        self.collections = 0
        self._started = None

    def __call__(self, phase, info):
        if phase == "start":
            self._started = time.perf_counter()
        elif self._started is not None:
            self.seconds += time.perf_counter() - self._started
            self.collections += 1
            self._started = None

    def __enter__(self):
        gc.callbacks.append(self)
        return self

    def __exit__(self, *_exc):
        gc.callbacks.remove(self)


def setup_sample(workload, seed):
    """Seconds from interpreter start to a workload ready at cycle 0."""
    start = time.perf_counter()
    workload.start(seed, DEFAULT_BACKEND).close()
    start_s = time.perf_counter() - start
    kernel = [calibrate.sample() for _ in range(SETUP_KERNEL_SAMPLES)]
    return {
        "import_s": IMPORT_S, "start_s": start_s,
        "slowdown": calibrate.slowdown(kernel),
    }


def run_once(workload, seed, backend, kernel=None, **start_options):
    """One round on one backend: chunk times, progress marks, outcome.

    A speed-reference sample taken after every chunk goes to ``kernel``.
    """
    run = workload.start(seed, backend, **start_options)
    chunks = []
    marks = []
    try:
        while not run.done:
            start = time.perf_counter()
            run.step()
            chunks.append(time.perf_counter() - start)
            marks.append(run.progress())
            if kernel is not None:
                kernel.append(calibrate.sample())
        outcome = run.outcome()
    finally:
        run.close()
    return chunks, marks, outcome, run


def time_rounds(workload, seed, seconds, backends, min_rounds=MIN_ROUNDS,
                **start_options):
    """Rounds over ``backends``, interleaved, for ``seconds``."""
    times = {backend: [] for backend in backends}
    marks = {}
    outcomes = {}
    problems = []
    kernel = []
    began = time.perf_counter()
    rounds = 0
    while True:
        for backend in backends:
            chunks, progress, outcome, _run = run_once(
                workload, seed, backend, kernel, **start_options
            )
            times[backend].append(chunks)
            first = marks.setdefault(backend, (progress, outcome["digest"]))
            if first != (progress, outcome["digest"]):
                problems.append(
                    "round {} on {} did different work than round 1".format(
                        rounds + 1, backend
                    )
                )
            outcomes[backend] = outcome
        rounds += 1
        elapsed = time.perf_counter() - began
        if rounds >= min_rounds and elapsed + 0.5 * elapsed / rounds > seconds:
            return Timing(
                times, outcomes, problems, calibrate.slowdown(kernel)
            )


def floors_of(timing):
    """Per backend, the floor of a round in reference-host seconds
    (see :mod:`bench.calibrate`)."""
    return {
        backend: estimator.sigma_min(rounds) / timing.slowdown
        for backend, rounds in timing.times.items()
    }


def end_to_end(timing):
    """The host-time and simulated metrics a user of the simulator sees."""
    floors = floors_of(timing)
    outcome = timing.outcomes[DEFAULT_BACKEND]
    round_s = floors[DEFAULT_BACKEND]
    usage = max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    )
    metrics = {
        "round_s": round_s,
        "best_backend_round_s": min(floors.values()),
        "host_cycles_per_s": outcome["cycles"] / round_s,
        "host_us_per_msg": 1e6 * round_s / outcome["delivered"],
        "peak_rss_mb": usage / 1024.0,
    }
    metrics.update(outcome["sim"])
    return metrics


def host_context(timing, floors, gc_watch, loadavg):
    """Per-backend floors and what surrounds them on this host."""
    times = timing.times
    cycles = timing.outcomes[DEFAULT_BACKEND]["cycles"]
    metrics = {}
    for backend, floor in floors.items():
        metrics["sim.{}.round_s".format(backend)] = floor
        metrics["sim.{}.us_per_cycle".format(backend)] = 1e6 * floor / cycles
    events = timing.outcomes.get("events")
    if events is not None:
        metrics["sim.events.compressed_cycle_share"] = (
            events["compressed_cycles"] / events["cycles"]
        )
    totals = [sum(chunks) for chunks in times[DEFAULT_BACKEND]]
    q1, median, q3 = estimator.quartiles(totals)
    rounds = len(totals)
    metrics.update({
        "host.round_s_median": median,
        "host.round_s_q1": q1,
        "host.round_s_q3": q3,
        "host.rounds": rounds,
        "host.gc_s": gc_watch.seconds / rounds,
        "host.gc_collections": gc_watch.collections / rounds,
        "host.loadavg_start": loadavg,
        "host.slowdown": timing.slowdown,
        "cli.import_s": IMPORT_S,
    })
    return metrics


def traced_rounds(workload, seed, seconds, out_dir):
    """Traced rounds on the default backend; spans go to ``out_dir``."""
    tracer = trace.Tracer(workload.name)
    with workload.tracing(tracer):
        timing = time_rounds(
            workload, seed, seconds, (DEFAULT_BACKEND,), min_rounds=2,
            tracer=tracer, **workload.trace_options
        )
    os.makedirs(out_dir, exist_ok=True)
    tracer.write(os.path.join(out_dir, "trace-{}.json".format(workload.name)))
    rounds = timing.times[DEFAULT_BACKEND]
    metrics = layers.from_trace(
        trace.layer_totals(tracer.spans, trace.wrapper_cost()),
        workload.root_span,
        len(rounds) * timing.outcomes[DEFAULT_BACKEND]["cycles"],
    )
    return metrics, estimator.sigma_min(rounds) / timing.slowdown


def per_layer(workload, seed, seconds, out_dir):
    """The ``--trace 1`` run: floors per backend, a trace, then probes."""
    loadavg = os.getloadavg()[0]
    untraced_s, traced_s = (share * seconds for share in TRACE_SHARES)
    with GcWatch() as gc_watch:
        timing = time_rounds(workload, seed, untraced_s, workload.compared)
    floors = floors_of(timing)
    metrics = host_context(timing, floors, gc_watch, loadavg)
    traced, traced_floor = traced_rounds(workload, seed, traced_s, out_dir)
    metrics.update(traced)
    if not workload.trace_options:
        # Otherwise the traced rounds ran differently (serially, for
        # sweep_small) and the difference is not the tracer's cost.
        metrics["trace.overhead_pct"] = 100.0 * (
            traced_floor / floors[DEFAULT_BACKEND] - 1.0
        )
    metrics.update(layers.probe_common(seed))
    gc.collect()
    blocks = sys.getallocatedblocks()
    _chunks, _marks, outcome, run = run_once(workload, seed, DEFAULT_BACKEND)
    metrics["host.alloc_blocks_per_cycle"] = (
        (sys.getallocatedblocks() - blocks) / outcome["cycles"]
    )
    chunk_floors = [
        min(column) for column in zip(*timing.times[DEFAULT_BACKEND])
    ]
    metrics.update(workload.layer_metrics(seed, run, chunk_floors, traced))
    return metrics, timing


def check(workload, seed, outcomes, problems):
    """Fold every correctness miss into ``(attempted, failed, problems)``.

    Operations that failed inside the workload are already counted by
    its outcome; each further miss (rounds that differed, backends that
    disagree, a failed cross-check) counts as one more.
    """
    reference = outcomes[DEFAULT_BACKEND]
    problems = list(problems)
    for backend in workload.compared:
        outcome = outcomes.get(backend)
        if outcome is None:  # not timed: one run, for its fingerprint
            outcome = run_once(workload, seed, backend)[2]
        if outcome["digest"] != reference["digest"]:
            problems.append(
                "{} and {} disagree on what was delivered".format(
                    backend, DEFAULT_BACKEND
                )
            )
    problems.extend(workload.verify(seed, reference))
    return (
        reference["attempted"],
        reference["failed"] + len(problems),
        problems + reference["problems"],
    )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "measure"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--out", default=os.path.join(os.path.dirname(__file__), "out")
    )
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    report = {
        "setup": setup_sample(workload, args.seed),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    if args.mode == "measure":
        if args.trace:
            metrics, timing = per_layer(
                workload, args.seed, args.seconds, args.out
            )
        else:
            timing = time_rounds(
                workload, args.seed, args.seconds, workload.backends
            )
            metrics = end_to_end(timing)
        report["rounds"] = len(timing.times[DEFAULT_BACKEND])
        report["slowdown"] = timing.slowdown
        attempted, failed, problems = check(
            workload, args.seed, timing.outcomes, timing.problems
        )
        report.update(
            metrics=metrics, attempted=attempted, failed=failed,
            problems=problems,
        )
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
