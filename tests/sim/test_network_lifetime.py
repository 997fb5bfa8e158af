"""A dropped network is freed by reference counting alone.

A network owns its engine and the engine owns everything it ticks or
hooks, so an observer or hook that held its network strongly would
make the whole network cyclic garbage, freed only by a gen-2
collection.  None does: each holds the leaves it reads or a weak
:class:`~repro.sim.component.BackReference` (DESIGN.md, "Nothing the
engine ticks holds its network").  Each case below builds a network,
runs it, drops it, and requires that the cyclic collector then finds
nothing to free.
"""

import collections
import gc
import io

import pytest

from repro.harness.load_sweep import (
    figure1_network,
    figure3_network,
    point_traffic,
)
from repro.scan.netconfig import NetworkScanFabric
from repro.telemetry import TelemetryHub, TelemetryStream, attach_watchdog
from repro.verify import attach_oracle
from repro.verify.families import FAMILIES


def _cyclic_garbage():
    """What one full collection frees, counted by type name."""
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        gc.collect()
        found = collections.Counter(type(obj).__name__ for obj in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.collect()
    return found


OBSERVERS = {
    "hub": lambda network: TelemetryHub(spans=False).bind(network),
    "hub-spans": lambda network: TelemetryHub(spans=True).bind(network),
    "stream": lambda network: TelemetryStream(
        io.StringIO(), flush_every=25, window_cycles=50
    ).bind(network),
    "watchdog": lambda network: attach_watchdog(network, stall_cycles=20),
    "oracle": attach_oracle,
}

ALL_TOGETHER = ("hub-spans", "stream", "watchdog", "oracle")


def _run_figure3(observers):
    network = figure3_network(seed=3)
    for name in observers:
        OBSERVERS[name](network)
    point_traffic(network, rate=0.02, message_words=8, seed=3).attach(network)
    network.run(100)
    assert network.log.messages  # the traffic ran


@pytest.mark.parametrize(
    "observers",
    [(name,) for name in OBSERVERS] + [ALL_TOGETHER],
    ids=list(OBSERVERS) + ["all"],
)
def test_an_observed_figure3_network_is_freed_when_dropped(observers):
    _cyclic_garbage()
    _run_figure3(observers)
    found = _cyclic_garbage()
    assert not found, found.most_common(8)


@pytest.mark.parametrize("kind", list(FAMILIES))
def test_a_family_run_is_freed_when_dropped(kind):
    row = FAMILIES[kind]
    _cyclic_garbage()
    state = row.finish(row.start(1, "reference"))
    del state
    found = _cyclic_garbage()
    assert not found, found.most_common(8)


def test_a_scanned_network_is_freed_when_dropped():
    """Scan registers reach their router weakly (``scan/registers.py``):
    the router holds its MultiTAP."""
    _cyclic_garbage()
    network = figure1_network(seed=1)
    fabric = NetworkScanFabric(network)
    fabric.configure_stage(0, lambda config: None)
    assert all(hasattr(r, "multitap") for r in network.all_routers())
    del network, fabric
    found = _cyclic_garbage()
    assert not found, found.most_common(8)
