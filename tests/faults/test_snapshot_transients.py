"""Snapshot/restore under an *active* transient fault: a FlakyLink
captured mid-outage must resume dead, with the same remaining-MTTR
schedule, and keep taking the exact transitions the uninterrupted run
takes."""

import pickle

import pytest

from repro.endpoint.traffic import UniformRandomTraffic
from repro.faults.injector import FaultInjector
from repro.faults.model import FlakyLink
from repro.harness.load_sweep import figure1_network
from repro.sim.snapshot import restore_network, snapshot_network


def _roundtrip(snap):
    return pickle.loads(pickle.dumps(snap, protocol=pickle.HIGHEST_PROTOCOL))


def _flaky_soak(backend):
    network = figure1_network(seed=11, backend=backend)
    injector = FaultInjector(network)
    src_key, dst_key = sorted(network.channels)[3]
    fault = injector.transient(
        FlakyLink(
            src_key=src_key,
            dst_key=dst_key,
            mtbf=120,
            mttr=90,
            seed=7,
            start=20,
        )
    )
    UniformRandomTraffic(
        n_endpoints=network.plan.n_endpoints,
        w=network.codec.w,
        rate=0.02,
        message_words=8,
        seed=12,
    ).attach(network)
    return network, injector, fault


def _run_to_mid_outage(network, fault, max_cycles=6000):
    while network.engine.cycle < max_cycles:
        network.run(10)
        if fault.down:
            return
    raise AssertionError("flaky link never went down")


def _transitions(injector):
    return [
        (entry.cycle, entry.fault.describe(), entry.action)
        for entry in injector.applied
    ]


def _schedule_state(fault):
    return {
        "down": fault.down,
        "next_change": fault._next_change,
        "rng": fault._rng.getstate(),
    }


@pytest.mark.parametrize("backend", ["reference", "events"])
def test_mid_outage_snapshot_resumes_same_mttr_schedule(backend):
    reference_net, reference_inj, reference_fault = _flaky_soak(backend)
    network, injector, fault = _flaky_soak(backend)
    for net, f in ((reference_net, reference_fault), (network, fault)):
        _run_to_mid_outage(net, f)
    assert network.engine.cycle == reference_net.engine.cycle

    snap = _roundtrip(snapshot_network(network, extras={"injector": injector}))
    restored = restore_network(snap)
    rinj = restored.extras["injector"]
    (rfault,) = rinj._transients

    # The outage state — including the drawn-but-unreached recovery
    # cycle and the RNG stream for every future draw — survives.
    assert _schedule_state(rfault) == _schedule_state(fault)
    assert rfault.down
    rchannel = restored.network.channels[(fault.src_key, fault.dst_key)]
    assert rchannel.dead, "restored link should still be mid-outage"
    assert _transitions(rinj) == _transitions(injector)

    # Run long enough for the outage to end and the next one to start:
    # every copy must take identical transitions at identical cycles.
    for net in (reference_net, network, restored.network):
        net.run(800)
    reference_transitions = _transitions(reference_inj)
    assert _transitions(injector) == reference_transitions
    assert _transitions(rinj) == reference_transitions
    actions = [action for _, _, action in reference_transitions]
    assert "revert" in actions, "outage never ended on schedule"
    assert actions.count("apply") >= 2, "next outage never arrived"

    # And the link itself agrees with the schedule on every copy.
    assert rfault.down == fault.down == reference_fault.down
    assert rchannel.dead == rfault.down
