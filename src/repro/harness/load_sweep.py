"""The Figure 3 experiment: latency versus network loading.

The paper's Figure 3 plots effective message latency against network
load for a 3-stage, 64-endpoint, radix-4 multibutterfly (dilation
2/2/1, 8-bit datapaths) carrying randomly-addressed 20-byte messages,
with processors stalling until each message completes and each
endpoint using one network input at a time.  The unloaded latency is
28 clock cycles from injection to acknowledgment receipt.

:func:`figure3_sweep` regenerates the curve: one
:func:`~repro.harness.experiment.run_experiment` per injection rate.
Each rate is an independent :class:`~repro.harness.parallel.TrialSpec`
(seeded from the root seed via
:func:`~repro.core.random_source.derive_seed`) executed by a shared
:class:`~repro.harness.parallel.TrialRunner`, so the sweep can fan out
across worker processes and reuse cached points while remaining
bit-identical to a serial run.
"""

from repro.core.random_source import derive_seed
from repro.endpoint.traffic import UniformRandomTraffic
from repro.harness.experiment import run_experiment
from repro.harness.parallel import run_trials
from repro.harness.spec import TrialSpec
from repro.network.builder import build_network
from repro.network.topology import figure1_plan, figure3_plan

#: Injection probabilities swept by default: idle-endpoint start
#: probability per cycle, from nearly unloaded to saturation.
DEFAULT_RATES = (0.002, 0.005, 0.01, 0.02, 0.04, 0.08, 0.16, 0.32)


def figure3_network(seed=0, fast_reclaim=True, **overrides):
    """The Figure 3 network, ready for traffic.

    Fast path reclamation is on by default: Figure 3's loaded points
    depend on blocked connections being reclaimed quickly (Section
    5.1 pairs "fast block recovery" with "fast stochastic path
    search").
    """
    return build_network(
        figure3_plan(), seed=seed, fast_reclaim=fast_reclaim, **overrides
    )


def figure1_network(seed=0, fast_reclaim=True, **overrides):
    """The small Figure 1 network (16 endpoints): quick sweeps/tests.

    Module-level (rather than a lambda in each caller) so trial specs
    that reference it stay picklable and cacheable.
    """
    return build_network(
        figure1_plan(), seed=seed, fast_reclaim=fast_reclaim, **overrides
    )


def build_point_network(network_factory, seed, backend="reference",
                        metrics=False, endpoint_kwargs=None):
    """One sweep point's network; returns ``(network, telemetry)``.

    ``metrics=True`` binds a metrics-only
    :class:`~repro.telemetry.TelemetryHub` (spans stay off — a sweep
    point generates far too many to keep); ``telemetry`` is None
    otherwise.  ``backend``, the hub and ``endpoint_kwargs`` are
    forwarded to ``network_factory`` only when set: that is the one
    reason sweeps leave defaults out of what they pass down — custom
    factories written without those parameters
    (``tests/harness/test_saturation.py::_small_factory``) keep
    working.  It is not about cache keys: a
    :meth:`~repro.harness.parallel.TrialSpec.fingerprint` hashes the
    whole source tree, so any edit moves every key anyway.
    """
    kwargs = {}
    if backend != "reference":
        kwargs["backend"] = backend
    if endpoint_kwargs:
        kwargs["endpoint_kwargs"] = endpoint_kwargs
    telemetry = None
    if metrics:
        from repro.telemetry import TelemetryHub

        telemetry = kwargs["telemetry"] = TelemetryHub(spans=False)
    return network_factory(seed=seed, **kwargs), telemetry


def point_traffic(network, rate, message_words, seed):
    """The uniform random workload a sweep point drives, sized to ``network``.

    Seeded ``seed + 1``: the traffic stream never shares a seed with
    the network's own randomness (wiring, arbitration).
    """
    return UniformRandomTraffic(
        n_endpoints=network.plan.n_endpoints,
        w=network.codec.w,
        rate=rate,
        message_words=message_words,
        seed=seed + 1,
    )


def run_load_point(
    rate,
    seed=0,
    message_words=20,
    warmup_cycles=1500,
    measure_cycles=6000,
    network_factory=figure3_network,
    metrics=False,
    backend="reference",
):
    """One point of the latency/load curve.

    ``metrics=True`` attaches a metrics-only telemetry snapshot to the
    result (``result.metrics``, picklable).  ``backend`` selects the
    engine backend (see :mod:`repro.sim.backends`); results are
    identical either way, the ``"events"`` backend is just faster at
    low load.  Both reach ``network_factory`` through
    :func:`build_point_network`.
    """
    network, telemetry = build_point_network(
        network_factory, seed, backend=backend, metrics=metrics
    )
    result = run_experiment(
        network,
        point_traffic(network, rate, message_words, seed),
        warmup_cycles=warmup_cycles,
        measure_cycles=measure_cycles,
        label="rate={}".format(rate),
        telemetry=telemetry,
    )
    return result


def load_trial_specs(rates=DEFAULT_RATES, seed=0, **kwargs):
    """The sweep as :class:`TrialSpec` objects, one per rate.

    Each trial's seed is ``derive_seed(seed, "load", rate)``: a pure
    function of the root seed and the rate, independent of the trial's
    position in the sweep and of which process executes it.
    """
    return [
        TrialSpec(
            runner="repro.harness.load_sweep:run_load_point",
            params=dict(rate=rate, **kwargs),
            seed=derive_seed(seed, "load", rate),
            label="rate={}".format(rate),
        )
        for rate in rates
    ]


def figure3_sweep(
    rates=DEFAULT_RATES,
    seed=0,
    workers=1,
    cache_dir=None,
    progress=None,
    runner=None,
    **kwargs
):
    """The full latency-vs-load series, one result per rate.

    ``workers`` > 1 fans the rates out across a process pool;
    ``cache_dir`` enables the on-disk trial cache.  Pass a prebuilt
    :class:`TrialRunner` as ``runner`` to share one cache/stats object
    across several sweeps (it overrides the other execution knobs).
    """
    specs = load_trial_specs(rates=rates, seed=seed, **kwargs)
    return run_trials(
        specs, workers=workers, cache_dir=cache_dir, progress=progress, runner=runner
    )


def unloaded_latency(seed=0, samples=24, network_factory=figure3_network,
                     message_words=20):
    """Mean unloaded (single message at a time) delivery latency.

    The paper's reference point: 28 cycles for 20-byte messages on the
    Figure 3 network.
    """
    from repro.endpoint.messages import Message
    import random

    network = network_factory(seed=seed)
    rng = random.Random(seed ^ 0x55AA)
    latencies = []
    for _ in range(samples):
        src = rng.randrange(network.plan.n_endpoints)
        dest = rng.randrange(network.plan.n_endpoints)
        if dest == src:
            dest = (dest + 1) % network.plan.n_endpoints
        payload = [rng.getrandbits(8) for _ in range(message_words)]
        message = network.send(src, Message(dest=dest, payload=payload))
        if not network.run_until_quiet(max_cycles=20000):
            raise RuntimeError("network failed to drain")
        if message.latency is not None:
            latencies.append(message.latency)
    return sum(latencies) / len(latencies)
