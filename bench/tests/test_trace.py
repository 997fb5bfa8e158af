"""Span bookkeeping: parents, folded calls and self time."""

import time

from bench.trace import Tracer, instrument_network, layer_totals, self_times


def _span(name, parent, busy, calls=1):
    return {"name": name, "start": 0.0, "end": busy, "parent": parent,
            "workload": "t", "calls": calls, "busy": busy,
            "folded": calls > 1}


def test_self_time_is_busy_minus_direct_children():
    spans = [
        _span("root", None, 10.0),
        _span("child", 0, 4.0),
        _span("folded", 0, 3.0, calls=100),
        _span("grandchild", 1, 1.5),
    ]
    assert self_times(spans) == [3.0, 2.5, 3.0, 1.5]
    totals = layer_totals(spans + [_span("root", None, 2.0)])
    assert totals["root"] == {"calls": 2, "busy": 12.0, "self": 5.0}
    assert totals["folded"] == {"calls": 100, "busy": 3.0, "self": 3.0}
    # Self times partition the roots' time: nothing counted twice.
    assert sum(entry["self"] for entry in totals.values()) == 12.0


def test_tracer_nests_spans_and_folds_timed_calls():
    tracer = Tracer("t")
    work = tracer.timed("layer.tick", lambda: time.sleep(0.001))
    with tracer.span("outer"):
        work()
        with tracer.span("inner"):
            work()
            work()
        work()
    names = [(s["name"], s["parent"], s["calls"]) for s in tracer.spans]
    assert ("outer", None, 1) in names
    assert ("inner", 0, 1) in names
    # Two calls fold under inner, the other two under outer.
    assert ("layer.tick", 1, 2) in names
    assert ("layer.tick", 0, 2) in names
    own = dict(zip([(s["name"], s["parent"]) for s in tracer.spans],
                   self_times(tracer.spans)))
    assert all(value >= 0.0 for value in own.values())
    outer = tracer.spans[0]
    assert outer["busy"] >= sum(
        s["busy"] for s in tracer.spans if s["parent"] == 0
    )
    assert all(s["workload"] == "t" for s in tracer.spans)


def test_instrument_network_bills_ticks_and_advances_to_layers():
    from repro.endpoint.traffic import UniformRandomTraffic
    from repro.harness.load_sweep import figure1_network

    network = figure1_network(seed=3)
    UniformRandomTraffic(16, 8, rate=0.1, seed=4).attach(network)
    tracer = Tracer("t")
    instrument_network(tracer, network)
    with tracer.span("sim.run"):
        network.run(60)
    totals = layer_totals(tracer.spans)
    routers = sum(1 for _ in network.all_routers())
    assert totals["core.router.tick"]["calls"] == 60 * routers
    assert totals["endpoint.tick"]["calls"] == 60 * len(network.endpoints)
    assert totals["sim.channel.advance"]["calls"] == 60 * len(network.channels)
    assert totals["sim.run"]["self"] > 0.0
    assert len(network.log.messages) > 0
