"""Direct tests for the rules no seeded mutation reaches on its own.

test_mutations.py proves the oracle loud on eight router bugs, but
none of them fires ``data-on-unlocked-channel``, ``turn-stall`` or
``half-duplex`` as its expected rule.  These tests put the offending
state on the wire by hand and pin exactly what the oracle reports:
one violation, on the right cycle, router and port.
"""

import pytest

from repro.core import words as W
from repro.core.router import FORWARD_STATE
from repro.endpoint.messages import Message
from repro.network.builder import build_network
from repro.network.topology import figure1_plan
from repro.sim.backends import BACKENDS
from repro.verify import attach_oracle
from repro.verify.oracle import (
    RULE_HALF_DUPLEX,
    RULE_TURN_STALL,
    RULE_UNLOCKED_DATA,
)

backends = pytest.mark.parametrize("backend", sorted(BACKENDS))


def _rows(violations):
    return [(v.cycle, v.router, v.port, v.rule) for v in violations]


def _collide_on_cycle_0(network):
    """Stage DATA both ways on one wire and run the cycle; returns the
    channel.  An injection wire: its upstream end is an endpoint, so
    the DATA staged there trips no router-side rule."""
    channel = next(
        ch for ch in network.channels.values() if ch.name.startswith("ep")
    )
    channel.a.send(W.data(1))
    channel.b.send(W.data(2))
    network.run(1)
    return channel


@backends
def test_data_on_an_unowned_backward_port_is_flagged(backend):
    network = build_network(figure1_plan(), seed=3, backend=backend)
    oracle = attach_oracle(network)
    router, q = next(iter(network.all_routers())), 1
    assert router._bwd_owner[q] is None
    router.backward_ends[q].send(W.data(5))
    network.run(1)
    assert _rows(oracle.violations) == [
        (0, router.name, q, RULE_UNLOCKED_DATA)
    ]


@backends
def test_status_pending_past_the_bound_is_a_turn_stall(backend):
    network = build_network(figure1_plan(), seed=3, backend=backend)
    oracle = attach_oracle(network)
    network.send(2, Message(dest=13, payload=[7] * 40))
    held = None
    while held is None:
        network.run(1)
        for router in network.all_routers():
            for conn in router._conns:
                if conn.state == FORWARD_STATE:
                    held = (router, conn)
    router, conn = held
    # A reversal whose STATUS never goes out: masking the forward port
    # keeps the router from servicing the connection at all.
    conn.status_pending = True
    router.config.port_enabled[conn.fwd_port] = False
    start = network.engine.cycle
    network.run(2)
    assert oracle.ok  # pending for 2 observed cycles is within the bound
    network.run(4)
    assert _rows(oracle.violations) == [
        (start + 2, router.name, conn.fwd_port, RULE_TURN_STALL)
    ]


@backends
def test_bidirectional_data_is_a_half_duplex_violation(backend):
    network = build_network(figure1_plan(), seed=3, backend=backend)
    oracle = attach_oracle(network)
    channel = _collide_on_cycle_0(network)
    # The channel counts the collision as it advances, after the
    # observers of cycle 0 have ticked: the report lags one cycle.
    assert channel.half_duplex_violations == 1
    assert oracle.ok
    network.run(1)
    assert _rows(oracle.violations) == [
        (1, channel.name, None, RULE_HALF_DUPLEX)
    ]


@backends
def test_half_duplex_on_the_last_cycle_is_swept_at_quiescence(backend):
    """A run that ends on the colliding cycle never ticks the oracle
    again; ``check_quiescent`` reads the channel counters once more."""
    network = build_network(figure1_plan(), seed=3, backend=backend)
    oracle = attach_oracle(network)
    channel = _collide_on_cycle_0(network)
    found = oracle.check_quiescent(network.engine.cycle)
    assert (1, channel.name, None, RULE_HALF_DUPLEX) in _rows(found)
    assert (1, channel.name, None, RULE_HALF_DUPLEX) in _rows(
        oracle.violations
    )
    # Swept once: neither the next tick nor a second audit repeats it.
    network.run(1)
    oracle.check_quiescent(network.engine.cycle)
    assert [v.rule for v in oracle.violations].count(RULE_HALF_DUPLEX) == 1
