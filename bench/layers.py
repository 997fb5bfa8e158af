"""Per-layer metrics, every one taken from outside the layer it names.

Three sources, all from ``bench/``: the span trace of a few traced
rounds (host time and call counts per layer), the message log of a
finished run (what the modelled routers and endpoints did), and direct
probes (timed calls into one public function, or an A/B of the same run
with and without one observer).

A layer a workload does not exercise reports 0: no calls, no time.
"""

import contextlib
import io
import pickle
import time

from repro.harness import RunJournal, TrialRunner, TrialSpec, journal_trial_key
from repro.harness.load_sweep import figure1_network, figure3_network
from repro.harness.parallel import TrialCache, execute_trial
from repro.sim.snapshot import restore_network, snapshot_network
from repro.verify.differential import compare
from repro.verify.scenario import random_scenario

from bench.estimator import percentile, sigma_min
from bench.trace import ADVANCE_LAYER

#: ``fig3_checked`` observers, each measured against the run without it.
OBSERVER_AB = {
    "telemetry.metrics": (("metrics",), ()),
    "telemetry.stream": (("metrics", "stream"), ("metrics",)),
    "telemetry.spans": (("spans",), ("metrics",)),
    "telemetry.watchdog": (("watchdog",), ()),
    "verify.oracle": (("oracle",), ()),
}


def best_of(function, repeats=5):
    """Minimum wall time of ``function()`` over ``repeats`` calls, and
    the last call's return value."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        value = function()
        best = min(best, time.perf_counter() - start)
    return best, value


# ---------------------------------------------------------------------------
# From the span trace
# ---------------------------------------------------------------------------


def from_trace(totals, root, cycles):
    """Host time per layer out of ``trace.layer_totals``.

    ``root`` names the span opened around each chunk, whose summed
    duration is the traced round time shares are taken of; ``cycles``
    is the number of simulated cycles the traced rounds covered.
    """
    blank = {"calls": 0, "busy": 0.0, "self": 0.0}
    round_total = totals[root]["busy"]

    def layer(name):
        return totals.get(name, blank)

    def tick(prefix, name):
        entry = layer(name)
        return {
            prefix + ".tick_us": 1e6 * entry["busy"] / max(1, entry["calls"]),
            prefix + ".us_per_cycle": 1e6 * entry["busy"] / cycles,
            prefix + ".share_pct": 100.0 * entry["busy"] / round_total,
        }

    advance = layer(ADVANCE_LAYER)
    oracle = layer("verify.oracle.tick")
    ticks = sum(
        entry["busy"] for name, entry in totals.items()
        if name.endswith(".tick")
    )
    # Ticks run under sim.run, or under execute_trial inside a sweep.
    trials = layer("harness.execute_trial")
    metrics = {
        "sim.ticks_share_pct": 100.0 * (ticks + advance["busy"]) / (
            trials["busy"] if trials["calls"] else round_total
        ),
        "sim.engine.self_us_per_cycle": 1e6 * layer("sim.run")["self"] / cycles,
        "sim.channel.advance_us_per_cycle": 1e6 * advance["busy"] / cycles,
        "sim.channel.advance_calls_per_cycle": advance["calls"] / cycles,
        "sim.channel.share_pct": 100.0 * advance["busy"] / round_total,
        "workloads.collective_observer.us_per_cycle": (
            1e6 * layer("workloads.collective_observer.tick")["busy"] / cycles
        ),
        "verify.oracle.tick_us": (
            1e6 * oracle["busy"] / max(1, oracle["calls"])
        ),
        "observers.share_pct": 100.0 * sum(
            layer(name)["busy"]
            for name in (
                "verify.oracle.tick", "telemetry.hub.tick",
                "telemetry.stream.tick", "telemetry.watchdog.tick",
            )
        ) / round_total,
    }
    metrics.update(tick("core.router", "core.router.tick"))
    metrics.update(tick("endpoint", "endpoint.tick"))
    records = layer("harness.journal.record")
    if trials["calls"]:
        runner = layer("harness.runner.run")
        metrics.update({
            "harness.serial_overhead_ms_per_trial": (
                1e3 * (runner["busy"] - trials["busy"]) / trials["calls"]
            ),
            "harness.journal_append_ms": (
                1e3 * records["busy"] / max(1, records["calls"])
            ),
            "harness.journal_records_per_trial": (
                records["calls"] / trials["calls"]
            ),
            "harness.build_network_share_pct": (
                100.0 * layer("network.build_network")["busy"] / round_total
            ),
        })
    return metrics


# ---------------------------------------------------------------------------
# From the message log
# ---------------------------------------------------------------------------


def from_log(log):
    """What the modelled routers and endpoints did, per message."""
    delivered = log.delivered()
    if not delivered:
        return {}
    attempts = sum(m.attempts for m in log.messages)
    # ``blocked_stages`` counts from 1; routers are named from stage 0.
    blocks = [0, 0, 0]
    for message in log.messages:
        for stage in message.blocked_stages:
            blocks[stage - 1] += 1
    latencies = sorted(m.total_latency for m in delivered)
    metrics = {
        # The highest percentile with ten samples beyond it on every
        # workload (fig3_light delivers under 300 messages) is the 95th.
        "sim.latency_p50_cyc": percentile(latencies, 50),
        "sim.latency_p95_cyc": percentile(latencies, 95),
        "endpoint.retries_per_msg": (
            sum(m.attempts - 1 for m in delivered) / len(delivered)
        ),
        "endpoint.delivery_per_attempt": len(delivered) / attempts,
        "endpoint.queue_wait_cyc_mean": (
            sum(m.start_cycle - m.queued_cycle for m in delivered)
            / len(delivered)
        ),
        "endpoint.abandoned": len(log.abandoned()),
    }
    for stage, count in enumerate(blocks):
        metrics["core.router.blocks_stage{}_per_kmsg".format(stage)] = (
            1000.0 * count / len(delivered)
        )
    return metrics


# ---------------------------------------------------------------------------
# Probes
# ---------------------------------------------------------------------------


def model_error(seed, scenarios=16):
    """Largest |simulated - (Table 4 equation + stated slack)|, in cycles.

    The simulator's error against the repository's reference model,
    over random unloaded scenarios drawn from ``seed``.  A scenario the
    simulator fails to deliver is billed its whole slack.
    """
    reports = [
        compare(random_scenario(seed * 1000 + index))
        for index in range(scenarios)
    ]
    return max(
        abs(r["delta"] - r["slack"]) if r["delta"] is not None else r["slack"]
        for r in reports
    )


def probe_common(seed):
    """Costs every workload pays before cycle 0, and the model error."""
    import repro.cli

    def table3():
        with contextlib.redirect_stdout(io.StringIO()):
            repro.cli.main(["table3"])

    return {
        "network.build_fig3_ms": 1e3 * best_of(
            lambda: figure3_network(seed=seed))[0],
        "network.build_fig1_ms": 1e3 * best_of(
            lambda: figure1_network(seed=seed))[0],
        "cli.table3_ms": 1e3 * best_of(table3, repeats=3)[0],
        "verify.model_err_cyc": model_error(seed),
    }


def probe_snapshot(run):
    """Capture and restore ``run``'s network as it stands."""
    capture_s, snap = best_of(lambda: snapshot_network(run.network), repeats=3)
    restore_s, _network = best_of(lambda: restore_network(snap), repeats=3)
    return {
        "sim.snapshot.capture_ms": 1e3 * capture_s,
        "sim.snapshot.restore_ms": 1e3 * restore_s,
        "sim.snapshot.bytes": len(snap.blob),
    }


def probe_observers(workload, seed, backend, rounds=3):
    """A/B each ``fig3_checked`` observer, chunks interleaved per round."""
    configs = sorted({c for pair in OBSERVER_AB.values() for c in pair})
    times = {config: [] for config in configs}
    counts = {}
    for _ in range(rounds):
        for config in configs:
            run = workload.start(seed, backend, observers=config)
            chunks = []
            try:
                while not run.done:
                    start = time.perf_counter()
                    run.step()
                    chunks.append(time.perf_counter() - start)
            finally:
                run.close()
            times[config].append(chunks)
            if run.sink is not None:
                counts["telemetry.stream.bytes_per_kcyc"] = (
                    1000.0 * run.sink.chars / workload.cycles
                )
            if run.hub is not None and run.hub.spans is not None:
                counts["telemetry.spans.count_per_kcyc"] = (
                    1000.0 * len(run.hub.spans.completed) / workload.cycles
                )
    floor = {config: sigma_min(times[config]) for config in configs}
    metrics = dict(counts)
    for name, (with_it, without) in OBSERVER_AB.items():
        cost = floor[with_it] - floor[without]
        metrics[name + ".us_per_cycle"] = 1e6 * cost / workload.cycles
        metrics[name + ".overhead_pct"] = 100.0 * cost / floor[without]
    return metrics


def noop_trial(seed):
    """A trial that costs nothing, so a batch of them times the pool."""
    return seed


def probe_harness(run):
    """Direct calls into the harness pieces ``sweep_small`` goes through."""
    specs = run.batches[0]
    spec = specs[0]
    trial_s, _results = best_of(
        lambda: [execute_trial(each)[0] for each in specs]
    )
    result = execute_trial(spec)[0]
    cache = TrialCache(run.directory + "/probe-cache")
    key = spec.fingerprint()
    log = RunJournal(run.directory + "/probe-journal.jsonl")
    try:
        append_s = best_of(lambda: log.record("probe", index=0), repeats=20)[0]
    finally:
        log.close()

    def pool(trials):
        noops = [
            TrialSpec("bench.layers:noop_trial", seed=index)
            for index in range(trials)
        ]
        return best_of(lambda: TrialRunner(workers=2).run(noops), repeats=3)[0]

    few, many = pool(2), pool(34)
    return {
        "harness.execute_trial_ms": 1e3 * trial_s / len(specs),
        "harness.cache_put_ms": 1e3 * best_of(
            lambda: cache.put(key, result), repeats=20)[0],
        "harness.cache_hit_ms": 1e3 * best_of(
            lambda: cache.get(key), repeats=20)[0],
        "harness.journal_fsync_ms": 1e3 * append_s,
        "harness.spec_hash_us": 1e6 * best_of(
            lambda: journal_trial_key(spec), repeats=20)[0],
        "harness.result_pickle_bytes": len(
            pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
        ),
        "harness.pool_spawn_ms": 1e3 * few,
        "harness.pool_dispatch_ms_per_trial": 1e3 * (many - few) / 32,
    }
