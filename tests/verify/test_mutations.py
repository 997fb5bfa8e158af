"""Mutation smoke test: the oracle catches deliberately broken routers.

Each case seeds one protocol bug of ``tests/mutants.py`` (a source edit
of the router or its allocator), replays a workload that exercises the
broken path, and asserts the conformance oracle flags it with the
expected rule.  Together with test_oracle.py (zero violations on the
unedited code) this bounds the oracle from both sides: it is silent on
correct routers and loud on each known way to break the protocol.
"""

import pytest

from repro.endpoint.messages import Message
from repro.network.builder import build_network
from repro.network.topology import figure1_plan
from repro.verify import attach_oracle

from tests.mutants import PROTOCOL, seeded


def _uniform_run(max_cycles=6000, backend="reference"):
    """Unloaded all-to-all traffic: exercises routing, TURN, STATUS."""
    network = build_network(figure1_plan(), seed=3, backend=backend)
    oracle = attach_oracle(network)
    for src in range(12):
        network.send(src, Message(dest=(src + 7) % 16, payload=[src % 16] * 6))
    network.run_until_quiet(max_cycles=max_cycles)
    return oracle


def _converging_run(max_cycles=6000, backend="reference"):
    """Everyone to endpoint 15 with fast reclaim: heavy blocking, so
    DROPs, drains and the backward-channel-busy path all fire."""
    network = build_network(
        figure1_plan(), seed=3, fast_reclaim=True, backend=backend
    )
    oracle = attach_oracle(network)
    for src in range(15):
        network.send(src, Message(dest=15, payload=[src % 16] * 6))
    network.run_until_quiet(max_cycles=max_cycles)
    return oracle


#: protocol bug -> (workload that exercises it, rule the oracle reports)
CATCHES = {
    "skip-status": (_uniform_run, "missing-status"),
    "corrupt-status-checksum": (_uniform_run, "status-checksum-mismatch"),
    "wrong-direction": (_uniform_run, "wrong-dilation-group"),
    "free-port-early": (_converging_run, "ownership"),
    "leak-port-on-drop": (_converging_run, "ownership"),
    "double-allocate": (_converging_run, "ownership"),
    "skip-bcb-release": (_converging_run, "ownership"),
    "ignore-bcb": (_converging_run, "bcb-ignored"),
}

CASES = [(name, *CATCHES[name]) for name in PROTOCOL]


def test_every_known_mutation_is_covered():
    assert set(CATCHES) == set(PROTOCOL)


@pytest.mark.parametrize("name,run,expected_rule",
                         CASES, ids=[c[0] for c in CASES])
def test_oracle_catches_mutation(name, run, expected_rule):
    with seeded(name):
        oracle = run()
    assert not oracle.ok, "oracle missed mutation {!r}".format(name)
    assert expected_rule in oracle.violation_rules(), (
        name, oracle.violation_rules())


@pytest.mark.parametrize("run", [_uniform_run, _converging_run],
                         ids=["uniform", "converging"])
def test_workloads_are_clean_without_mutations(run):
    oracle = run(max_cycles=50000)
    oracle.assert_clean()
