"""Congestion analysis: find the hot routers under a skewed workload.

Binds a metrics-only telemetry hub to the Figure 3 network, drives a
hotspot workload (a fraction of all traffic targets one endpoint), and
prints per-stage utilization plus the hottest routers from the hub's
``router.util.*`` samples — then shows the measured latency penalty
the hotspot victims pay versus bystanders.

Run:  python examples/hotspot_analysis.py
"""

from repro.endpoint.traffic import HotspotTraffic
from repro.harness.load_sweep import figure3_network
from repro.harness.reporting import (
    format_stage_heatmap,
    format_table,
    router_utilization,
)
from repro.telemetry import TelemetryHub

HOT = 0
FRACTION = 0.5
RATE = 0.05


def main():
    hub = TelemetryHub(spans=False, sample_period=2)
    network = figure3_network(seed=77, telemetry=hub)
    traffic = HotspotTraffic(
        64, 8, rate=RATE, hotspot=HOT, fraction=FRACTION,
        message_words=20, seed=78,
    )
    traffic.attach(network)
    network.run(6000)
    snapshot = hub.snapshot()

    print("Workload: {}% of traffic to endpoint {} (rate {})\n".format(
        int(FRACTION * 100), HOT, RATE))

    print(format_stage_heatmap(
        snapshot, title="Per-stage backward-port utilization"))

    print()
    utilization = router_utilization(snapshot)
    hottest = sorted(utilization, key=utilization.get, reverse=True)[:6]
    print(format_table(
        [{"router": "r" + router, "utilization": utilization[stage, router]}
         for stage, router in hottest],
        title="Hottest routers (expect the final-stage routers of "
        "endpoint {}'s block)".format(HOT),
        floatfmt="{:.3f}",
    ))

    # Latency split: messages to the hotspot vs everyone else.
    to_hot = [m.latency for m in network.log.delivered() if m.dest == HOT]
    to_rest = [m.latency for m in network.log.delivered() if m.dest != HOT]
    print()
    print("Delivered to hotspot: {} msgs, mean latency {:.1f} cycles".format(
        len(to_hot), sum(to_hot) / len(to_hot)))
    print("Delivered elsewhere:  {} msgs, mean latency {:.1f} cycles".format(
        len(to_rest), sum(to_rest) / len(to_rest)))
    print("\nStochastic selection keeps the early stages balanced; the "
          "pain concentrates exactly where the paper says it must — on "
          "the hot endpoint's own final-stage ports, where retries queue.")


if __name__ == "__main__":
    main()
