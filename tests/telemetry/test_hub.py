"""TelemetryHub: binding, metrics, span trees, sweep integration."""

import collections

import pytest

from repro.endpoint.messages import DELIVERED, Message
from repro.endpoint.traffic import HotspotTraffic, UniformRandomTraffic
from repro.harness.load_sweep import figure1_network, figure3_sweep
from repro.harness.reporting import router_utilization
from repro.network.builder import build_network
from repro.network.topology import figure1_plan
from repro.telemetry import (
    MetricsSnapshot,
    TelemetryHub,
    validate_trace_events,
)

from tests.mutants import seeded


def _bound_network(seed=3, **hub_kwargs):
    hub = TelemetryHub(**hub_kwargs)
    network = build_network(
        figure1_plan(), seed=seed, fast_reclaim=True, telemetry=hub
    )
    return network, hub


# -- binding -------------------------------------------------------------


def test_bind_wires_every_component():
    network, hub = _bound_network()
    assert network.telemetry is hub
    assert all(r.telemetry is hub for r in network.all_routers())
    assert all(ep.telemetry is hub for ep in network.endpoints)
    # A wire holds its link group's (fwd, rev) word counters, not the hub.
    counters = {
        id(counter) for _kind, counter in hub.registry._metrics.values()
    }
    for channel in network.channels.values():
        fwd, rev = channel.telemetry
        assert fwd is not rev and {id(fwd), id(rev)} <= counters


def test_hub_binds_exactly_once():
    network, hub = _bound_network()
    with pytest.raises(ValueError):
        hub.bind(network)


# -- one sink: each event is reported once ------------------------------


class _CountingHub(TelemetryHub):
    """A hub that tallies every reporting call components make to it."""

    def __init__(self):
        super().__init__()
        self.calls = collections.Counter()

    def router_event(self, cycle, router, kind, port, detail):
        self.calls[kind] += 1
        super().router_event(cycle, router, kind, port, detail)

    def attempt_started(self, *args, **kwargs):
        self.calls["attempt_started"] += 1
        super().attempt_started(*args, **kwargs)

    def attempt_finished(self, *args, **kwargs):
        self.calls["attempt_finished"] += 1
        super().attempt_finished(*args, **kwargs)

    def message_received(self, *args, **kwargs):
        self.calls["message_received"] += 1
        super().message_received(*args, **kwargs)


def test_each_protocol_event_reaches_the_hub_exactly_once():
    """The pinned ``send 2 9`` run (tests/fixtures/cli_golden/
    send_verbose.json): one attempt that crosses three routers and
    turns twice.  Each occurrence is one call into the hub — and one
    line of its timeline — no more."""
    hub = _CountingHub()
    network = build_network(figure1_plan(), seed=0, telemetry=hub)
    message = network.send(2, Message(dest=9, payload=[1, 2, 3, 4]))
    assert network.run_until_quiet(max_cycles=5000)
    assert (message.outcome, message.attempts) == (DELIVERED, 1)
    assert hub.calls == {
        "attempt_started": 1,
        "attempt_finished": 1,
        "message_received": 1,
        "conn-open": 3,
        "conn-turn": 6,
        "conn-close-accepted": 3,
        "conn-drop": 3,
    }
    on_timeline = collections.Counter(
        span.name for span in hub.spans.completed
    )
    assert on_timeline["attempt"] == on_timeline["deliver"] == 1
    for kind in ("conn-open", "conn-turn", "conn-close-accepted", "conn-drop"):
        assert on_timeline[kind] == hub.calls[kind]


# -- metrics from one delivery ------------------------------------------


def test_single_delivery_metrics():
    network, hub = _bound_network()
    message = network.send(2, Message(dest=11, payload=[1, 2, 3]))
    assert network.run_until_quiet(max_cycles=5000)
    assert message.outcome == DELIVERED

    snapshot = hub.snapshot()
    assert snapshot.value("endpoint.send.attempts", endpoint=2) == 1
    assert snapshot.value("endpoint.send.delivered", endpoint=2) == 1
    assert snapshot.value("endpoint.recv.messages", endpoint=11) == 1
    assert snapshot.total("router.conn.opened") >= 3  # one per stage
    latency = snapshot.histogram("message.latency.cycles")
    assert latency.count == 1
    assert latency.low == message.latency
    # Channel word counters saw the header go in and the payload out.
    assert snapshot.total("channel.words") > 0


def test_telemetry_does_not_change_behavior():
    plain = build_network(figure1_plan(), seed=9, fast_reclaim=True)
    message_a = plain.send(0, Message(dest=7, payload=[5, 6]))
    plain.run_until_quiet(max_cycles=5000)
    observed, _hub = _bound_network(seed=9)
    message_b = observed.send(0, Message(dest=7, payload=[5, 6]))
    observed.run_until_quiet(max_cycles=5000)
    assert message_a.outcome == message_b.outcome
    assert message_a.latency == message_b.latency
    assert message_a.attempts == message_b.attempts


def test_occupancy_sampling_period():
    network, hub = _bound_network(sample_period=10)
    network.run(100)
    assert hub.snapshot().value("router.util.samples") == 10


# -- router utilization: where is the network busy? ----------------------


def _stage_utilization(traffic_class, **traffic_kwargs):
    """stage -> {router label: utilization} after a loaded run, read
    off the hub's ``router.util.*`` series."""
    network, hub = _bound_network(seed=91, spans=False, sample_period=2)
    traffic_class(
        16, 4, message_words=8, seed=91, **traffic_kwargs
    ).attach(network)
    network.run(3000)
    stages = {}
    for (stage, router), value in router_utilization(hub.snapshot()).items():
        stages.setdefault(stage, {})[router] = value
    return stages


def _imbalance(utilization):
    """max/mean utilization within one stage (1.0 = flat)."""
    values = list(utilization.values())
    return max(values) / (sum(values) / len(values))


def test_uniform_load_is_balanced():
    """Random output selection keeps utilization flat within a stage."""
    stages = _stage_utilization(UniformRandomTraffic, rate=0.05)
    assert sorted(stages) == [0, 1, 2]
    for utilization in stages.values():
        assert all(value > 0 for value in utilization.values())
        assert _imbalance(utilization) < 1.6


def test_hotspot_shows_up_in_final_stage():
    """Everyone hammering endpoint 0 must make the final-stage routers
    serving endpoint 0 the hottest in their stage."""
    stages = _stage_utilization(
        HotspotTraffic, rate=0.08, hotspot=0, fraction=0.7
    )
    everywhere = {
        router: value
        for utilization in stages.values()
        for router, value in utilization.items()
    }
    hottest = sorted(everywhere, key=everywhere.get, reverse=True)[:4]
    # Endpoint 0 lives in final-stage block 0; its two routers are
    # 2.0.0 and 2.0.1.
    assert set(hottest) & {"2.0.0", "2.0.1"}
    assert _imbalance(stages[2]) > 1.5


# -- span trees ----------------------------------------------------------


def test_delivered_message_span_tree():
    network, hub = _bound_network()
    message = network.send(5, Message(dest=15, payload=[1, 2, 3, 4]))
    assert network.run_until_quiet(max_cycles=5000)
    assert message.outcome == DELIVERED

    (attempt,) = hub.spans.spans(name="attempt")
    assert attempt.track.startswith("ep5/p")
    assert attempt.args["dest"] == 15
    assert attempt.args["outcome"] == "delivered"
    children = [
        span
        for span in hub.spans.spans()
        if span.track == attempt.track and span.depth == 1
    ]
    assert [span.name for span in children] == ["setup", "stream", "reply"]
    assert children[0].begin == attempt.begin
    assert children[-1].end == attempt.end
    (deliver,) = hub.spans.spans(name="deliver")
    assert deliver.track == "ep15/rx"


def test_blocked_then_retried_message_shows_bcb_drop():
    """Contended traffic must produce the paper's retry shape on some
    track: a setup span, a bcb-drop instant (fast path reclamation),
    and a later attempt that ends delivered."""
    network, hub = _bound_network(seed=6)
    traffic = HotspotTraffic(
        16, 4, rate=0.2, hotspot=0, fraction=0.9, message_words=12, seed=13
    )
    traffic.attach(network)
    network.run(1500)

    drops = hub.spans.spans(name="bcb-drop")
    assert drops, "no fast-reclaim drop was ever recorded"
    delivered = [
        span
        for span in hub.spans.spans(name="attempt")
        if span.args.get("outcome") == "delivered"
        and span.args.get("attempt", 0) > 0
    ]
    assert any(
        span.track == drop.track and span.begin >= drop.end
        for drop in drops
        for span in delivered
    ), "no blocked track ever retried to delivery"
    # Metrics agree that the fast path fired.
    snapshot = hub.snapshot()
    assert snapshot.total("router.bcb.sent") > 0
    assert snapshot.total("endpoint.send.failures") > 0


def test_bcb_instants_carry_the_stage_count():
    """Fast reclamation at saturation: a blocking router sends a BCB
    count of 1, and each router above it propagates the count its
    downstream router sent plus one (Section 5.1), so the source learns
    which stage blocked.  Every ``bcb-sent`` / ``bcb-propagate`` instant
    carries that count; on Figure 1's one-cycle wires the pulse reaches
    the upstream router one cycle after it was sent."""
    network, hub = _bound_network(seed=5)
    UniformRandomTraffic(
        16, network.codec.w, rate=0.5, message_words=8, seed=6
    ).attach(network)
    network.run(1500)

    names = {key: router.name for key, router in network.router_grid.items()}
    downstream = collections.defaultdict(set)
    for link in network.links:
        if link.src.kind == "router" and link.dst.kind == "router":
            src = (link.src.stage, link.src.block, link.src.index)
            dst = (link.dst.stage, link.dst.block, link.dst.index)
            downstream[names[src]].add(names[dst])
    kinds = ("bcb-sent", "bcb-propagate")
    instants = [s for s in hub.spans.completed if s.name in kinds]
    counts = collections.defaultdict(list)  # (router, cycle) -> counts
    for span in instants:
        counts[(span.track, span.begin)].append(int(span.args["detail"]))

    sent = [s for s in instants if s.name == "bcb-sent"]
    propagated = [s for s in instants if s.name == "bcb-propagate"]
    assert len(sent) > 100 and len(propagated) > 100
    assert {s.args["detail"] for s in sent} == {"1"}
    for span in propagated:
        below = [
            count
            for router in downstream[span.track]
            for count in counts.get((router, span.begin - 1), ())
        ]
        assert int(span.args["detail"]) - 1 in below, (span, below)
    # Figure 1 has three stages: a stage-0 router propagates a stage-2
    # block as 3.
    assert {s.args["detail"] for s in propagated} == {"2", "3"}


@pytest.mark.parametrize(
    "bug",
    ["router-bcb-sent-reports-two", "router-bcb-propagate-reports-plus-two"],
)
def test_the_stage_count_test_catches_a_wrong_count(bug):
    """Seeded router bugs (``docs/testing.md``): the count a router
    reports to the hub is off by one while the pulse itself is right."""
    with seeded(bug):
        with pytest.raises(AssertionError):
            test_bcb_instants_carry_the_stage_count()


def test_export_trace_validates(tmp_path):
    network, hub = _bound_network()
    network.send(1, Message(dest=9, payload=[7]))
    network.run_until_quiet(max_cycles=5000)
    path = tmp_path / "out.json"
    document = hub.export_trace(str(path))
    assert path.exists()
    assert validate_trace_events(document) == len(document["traceEvents"])


def test_metrics_only_hub_rejects_trace_export():
    network, hub = _bound_network(spans=False)
    with pytest.raises(ValueError):
        hub.export_trace("/tmp/never-written.json")


# -- sweep integration ---------------------------------------------------


def _sweep(workers):
    return figure3_sweep(
        rates=(0.02, 0.06),
        seed=11,
        workers=workers,
        metrics=True,
        network_factory=figure1_network,
        warmup_cycles=200,
        measure_cycles=600,
    )


def test_sweep_metrics_serial_equals_parallel():
    serial = _sweep(workers=1)
    parallel = _sweep(workers=2)
    assert all(r.metrics is not None for r in serial)
    merged_serial = MetricsSnapshot.merge_all(r.metrics for r in serial)
    merged_parallel = MetricsSnapshot.merge_all(r.metrics for r in parallel)
    assert merged_serial == merged_parallel
    # The hub sees every delivery (warmup and drain included), so its
    # count can only exceed the measured-window statistics.
    assert merged_serial.histogram("message.latency.cycles").count >= sum(
        r.delivered_count for r in serial
    )


def test_sweep_without_metrics_has_none():
    results = figure3_sweep(
        rates=(0.02,),
        seed=11,
        network_factory=figure1_network,
        warmup_cycles=100,
        measure_cycles=300,
    )
    assert results[0].metrics is None
