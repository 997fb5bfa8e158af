"""Measured-window experiments for the wormhole baseline.

Mirrors :mod:`repro.harness.experiment` closely enough that results
from both switching disciplines drop into the same report tables.
"""

import random

import numpy as np

from repro.baseline.builder import build_wormhole_network


class WormholeResult:
    """Statistics over one measured window of wormhole traffic."""

    def __init__(self, label, packets, measure_cycles, n_endpoints, message_words):
        self.label = label
        self.delivered_count = len(packets)
        self.measure_cycles = measure_cycles
        self.n_endpoints = n_endpoints
        self.message_words = message_words
        self._latencies = np.array(
            [p.total_latency for p in packets], dtype=float
        )

    @property
    def mean_latency(self):
        return float(self._latencies.mean()) if self.delivered_count else float("nan")

    @property
    def median_latency(self):
        return float(np.median(self._latencies)) if self.delivered_count else float("nan")

    def latency_percentile(self, q):
        return (
            float(np.percentile(self._latencies, q))
            if self.delivered_count
            else float("nan")
        )

    @property
    def delivered_load(self):
        total_words = self.delivered_count * self.message_words
        return total_words / (self.measure_cycles * self.n_endpoints)

    def as_dict(self):
        return {
            "label": self.label,
            "delivered": self.delivered_count,
            "mean_latency": self.mean_latency,
            "median_latency": self.median_latency,
            "p95_latency": self.latency_percentile(95),
            "delivered_load": self.delivered_load,
        }


def closed_loop_traffic(n_endpoints, w, rate, message_words, seed):
    """Per-source closed-loop Bernoulli generator for wormhole sources.

    Returns ``source_for(index) -> f(cycle) -> (dest, payload) | None``.
    """
    def source_for(index):
        rng = random.Random((seed << 18) ^ (index * 6367 + 5))
        mask = (1 << w) - 1

        def source(cycle):
            if rng.random() >= rate:
                return None
            dest = rng.randrange(n_endpoints)
            while dest == index:
                dest = rng.randrange(n_endpoints)
            payload = [rng.getrandbits(16) & mask for _ in range(message_words)]
            return dest, payload

        return source

    return source_for


def run_wormhole_point(
    plan,
    rate,
    seed=0,
    message_words=20,
    buffer_depth=4,
    warmup_cycles=1500,
    measure_cycles=6000,
    store_and_forward=False,
):
    """One latency/load point for the wormhole (or S&F) network."""
    network = build_wormhole_network(
        plan,
        seed=seed,
        buffer_depth=buffer_depth,
        store_and_forward=store_and_forward,
    )
    source_for = closed_loop_traffic(
        plan.n_endpoints, network.codec.w, rate, message_words, seed + 1
    )
    for source in network.sources:
        source.traffic_source = source_for(source.index)
    network.run(warmup_cycles)
    start = network.engine.cycle
    network.run(measure_cycles)
    end = network.engine.cycle
    for source in network.sources:
        source.traffic_source = None
    network.run_until_quiet(max_cycles=measure_cycles * 4)
    window = [
        p
        for p in network.delivered
        if p.queued_cycle is not None and start <= p.queued_cycle < end
    ]
    return WormholeResult(
        "rate={}".format(rate),
        window,
        measure_cycles,
        plan.n_endpoints,
        message_words,
    )
