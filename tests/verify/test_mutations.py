"""Mutation smoke test: the oracle catches deliberately broken routers.

Each case enables one protocol bug behind the test-only hooks in
:mod:`repro.core.mutation`, replays a workload that exercises the
broken path, and asserts the conformance oracle flags it with the
expected rule.  Together with test_oracle.py (zero violations when the
hooks are off) this bounds the oracle from both sides: it is silent on
correct routers and loud on each known way to break the protocol.
"""

import pytest

from repro.core import mutation
from repro.endpoint.messages import Message
from repro.network.builder import build_network
from repro.network.topology import figure1_plan
from repro.verify import attach_oracle


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


CASES = [
    (mutation.SKIP_STATUS, _uniform_run, "missing-status"),
    (mutation.CORRUPT_STATUS_CHECKSUM, _uniform_run, "status-checksum-mismatch"),
    (mutation.WRONG_DIRECTION, _uniform_run, "wrong-dilation-group"),
    (mutation.FREE_PORT_EARLY, _converging_run, "ownership"),
    (mutation.LEAK_PORT_ON_DROP, _converging_run, "ownership"),
    (mutation.DOUBLE_ALLOCATE, _converging_run, "ownership"),
    (mutation.SKIP_BCB_RELEASE, _converging_run, "ownership"),
    (mutation.IGNORE_BCB, _converging_run, "bcb-ignored"),
]


def test_every_known_mutation_is_covered():
    assert {name for name, _, _ in CASES} == set(mutation.ALL_MUTATIONS)


@pytest.mark.parametrize("name,run,expected_rule",
                         CASES, ids=[c[0] for c in CASES])
def test_oracle_catches_mutation(name, run, expected_rule):
    with mutation.seeded(name):
        oracle = run()
    assert not oracle.ok, "oracle missed mutation {!r}".format(name)
    assert expected_rule in oracle.violation_rules(), (
        name, oracle.violation_rules())


@pytest.mark.parametrize("run", [_uniform_run, _converging_run],
                         ids=["uniform", "converging"])
def test_workloads_are_clean_without_mutations(run):
    oracle = run(max_cycles=50000)
    oracle.assert_clean()


def test_seeded_restores_previous_state():
    assert mutation.ACTIVE == frozenset()
    with mutation.seeded(mutation.SKIP_STATUS):
        assert mutation.enabled(mutation.SKIP_STATUS)
        assert not mutation.enabled(mutation.DOUBLE_ALLOCATE)
    assert mutation.ACTIVE == frozenset()


def test_seeded_rejects_unknown_names():
    with pytest.raises(ValueError):
        with mutation.seeded("no-such-bug"):
            pass
