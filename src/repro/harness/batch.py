"""Batch experiment grids with CSV output.

Research use of this library means running grids: (network variant x
load x seed) and aggregating.  :class:`ExperimentGrid` runs the cross
product, keeps every :class:`~repro.harness.experiment.ExperimentResult`,
aggregates across seeds, and writes plain CSV (no pandas dependency —
the files load anywhere).

Every (variant, rate, seed) cell run is an independent
:class:`~repro.harness.parallel.TrialSpec`, so grids parallelize and
cache like the other sweeps.  Parallel/cached execution needs the
network factories to be module-level callables (lambdas still work for
serial, uncached runs).
"""

import csv
import io
import itertools

from repro.endpoint.traffic import UniformRandomTraffic
from repro.harness.experiment import run_experiment
from repro.harness.load_sweep import point_traffic
from repro.harness.parallel import TrialSpec, run_trials


def run_grid_trial(
    factory,
    rate,
    seed=0,
    message_words=20,
    warmup_cycles=800,
    measure_cycles=3000,
    traffic_class=UniformRandomTraffic,
    label="",
):
    """One grid cell run: module-level so worker pools can import it."""
    network = factory(seed)
    return run_experiment(
        network,
        point_traffic(network, rate, message_words, seed, traffic_class),
        warmup_cycles=warmup_cycles,
        measure_cycles=measure_cycles,
        label=label,
    )


class GridCell:
    """All seeds' results for one parameter combination."""

    def __init__(self, params, results):
        self.params = dict(params)
        self.results = list(results)

    def mean(self, metric):
        values = [getattr(r, metric) for r in self.results]
        values = [v for v in values if v == v]  # drop NaN
        return sum(values) / len(values) if values else float("nan")

    def spread(self, metric):
        values = [getattr(r, metric) for r in self.results if getattr(r, metric) == getattr(r, metric)]
        if len(values) < 2:
            return 0.0
        mean = sum(values) / len(values)
        return (sum((v - mean) ** 2 for v in values) / (len(values) - 1)) ** 0.5


class ExperimentGrid:
    """Run a (factory x rate x seed) grid of load experiments.

    :param factories: mapping variant-name -> network factory
        ``f(seed) -> MetroNetwork``.
    :param rates: injection rates to sweep.
    :param seeds: seeds to replicate over (aggregated per cell).  The
        grid honors these seeds verbatim — replicate seeds are an
        explicit experimental axis here, unlike the sweep modules'
        derived per-trial seed streams — so paired-seed comparisons
        across variants keep working.
    """

    def __init__(
        self,
        factories,
        rates,
        seeds=(0,),
        message_words=20,
        warmup_cycles=800,
        measure_cycles=3000,
        traffic_class=UniformRandomTraffic,
    ):
        self.factories = dict(factories)
        self.rates = tuple(rates)
        self.seeds = tuple(seeds)
        self.message_words = message_words
        self.warmup_cycles = warmup_cycles
        self.measure_cycles = measure_cycles
        self.traffic_class = traffic_class
        self.cells = []

    def trial_specs(self):
        """Every (variant, rate, seed) run as a :class:`TrialSpec`."""
        specs = []
        for name, rate in itertools.product(self.factories, self.rates):
            for seed in self.seeds:
                specs.append(
                    TrialSpec(
                        runner="repro.harness.batch:run_grid_trial",
                        params=dict(
                            factory=self.factories[name],
                            rate=rate,
                            message_words=self.message_words,
                            warmup_cycles=self.warmup_cycles,
                            measure_cycles=self.measure_cycles,
                            traffic_class=self.traffic_class,
                            label="{}@{}".format(name, rate),
                        ),
                        seed=seed,
                        label="{}@{} seed={}".format(name, rate, seed),
                    )
                )
        return specs

    def run(self, progress=None, workers=1, cache_dir=None, runner=None):
        """Execute the grid; returns the list of :class:`GridCell`.

        ``progress`` keeps its original signature
        ``f(name, rate, seed, result)``; with a worker pool it fires as
        ordered results are collected rather than at completion time.
        """
        self.cells = []
        specs = self.trial_specs()
        flat = run_trials(specs, workers=workers, cache_dir=cache_dir, runner=runner)

        per_seed = len(self.seeds)
        for combo_index, (name, rate) in enumerate(
            itertools.product(self.factories, self.rates)
        ):
            results = flat[combo_index * per_seed : (combo_index + 1) * per_seed]
            if progress is not None:
                for seed, result in zip(self.seeds, results):
                    progress(name, rate, seed, result)
            self.cells.append(
                GridCell({"variant": name, "rate": rate}, results)
            )
        return self.cells

    METRICS = ("delivered_load", "mean_latency", "mean_attempts")

    def to_csv(self, path=None):
        """Aggregated CSV (one row per cell); returns the CSV text."""
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        header = ["variant", "rate", "seeds"]
        for metric in self.METRICS:
            header.extend([metric + "_mean", metric + "_std"])
        writer.writerow(header)
        for cell in self.cells:
            row = [cell.params["variant"], cell.params["rate"], len(cell.results)]
            for metric in self.METRICS:
                row.append("{:.6g}".format(cell.mean(metric)))
                row.append("{:.6g}".format(cell.spread(metric)))
            writer.writerow(row)
        text = buffer.getvalue()
        if path is not None:
            with open(path, "w", newline="") as handle:
                handle.write(text)
        return text

    def raw_csv(self, path=None):
        """Per-run CSV (one row per seed per cell)."""
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(
            ["variant", "rate", "seed_index", "delivered", "delivered_load",
             "mean_latency", "p95_latency", "mean_attempts"]
        )
        for cell in self.cells:
            for index, result in enumerate(cell.results):
                writer.writerow(
                    [
                        cell.params["variant"],
                        cell.params["rate"],
                        index,
                        result.delivered_count,
                        "{:.6g}".format(result.delivered_load),
                        "{:.6g}".format(result.mean_latency),
                        "{:.6g}".format(result.latency_percentile(95)),
                        "{:.6g}".format(result.mean_attempts),
                    ]
                )
        text = buffer.getvalue()
        if path is not None:
            with open(path, "w", newline="") as handle:
                handle.write(text)
        return text
