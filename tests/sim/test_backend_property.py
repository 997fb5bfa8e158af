"""Property tests over the backend matrix.

Two claims, both over *random* scenarios rather than curated seeds:

* every registered backend walks a random workload to the identical
  observable trajectory (message fingerprints, outcomes, oracle
  verdicts); and
* a mid-run snapshot taken under any backend restores and finishes
  under any backend (the full capture x restore matrix) to exactly the
  trajectory of the matching uninterrupted run.

The seeded equivalence families in ``repro.verify.backend_diff`` pin
curated workloads byte-for-byte; this module lets hypothesis hunt the
scenario space between them.  The restore matrix is slow-marked.
"""

import pickle

import pytest

from repro.sim.backends import BACKENDS
from repro.sim.snapshot import restore_network, snapshot_network
from repro.verify.backend_diff import message_fingerprint
from repro.verify.resume_diff import _finish_scenario, _start_scenario
from repro.verify.scenario import random_scenario

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


def _full_run(scenario, backend):
    network, oracle, sent = _start_scenario(scenario, backend)
    result = _finish_scenario(network, oracle, sent)
    result["messages"] = message_fingerprint(network.log)
    result["cycle_quiet"] = network.engine.cycle
    return result


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**20))
def test_random_scenarios_identical_across_backends(seed):
    scenario = random_scenario(seed=seed, n_messages=2)
    reference = _full_run(scenario, "reference")
    for backend in BACKENDS:
        assert _full_run(scenario, backend) == reference, backend


@pytest.mark.slow
@settings(max_examples=6, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**20),
    split=st.integers(min_value=0, max_value=60),
)
def test_snapshot_restore_full_backend_matrix(seed, split):
    scenario = random_scenario(seed=seed, n_messages=2)
    reference = _full_run(scenario, "reference")
    # First-quiet detection shifts by a cycle when a run() boundary
    # lands after quiescence (see _finish_scenario); every remaining
    # field is event-stamped, so the trajectory stays exactly pinned.
    del reference["cycle_quiet"]

    for capture_backend in BACKENDS:
        network, oracle, sent = _start_scenario(scenario, capture_backend)
        network.run(split)
        at_capture = message_fingerprint(network.log)
        snap = pickle.loads(
            pickle.dumps(
                snapshot_network(
                    network, extras={"oracle": oracle, "sent": sent}
                ),
                protocol=pickle.HIGHEST_PROTOCOL,
            )
        )
        for restore_backend in BACKENDS:
            restored = restore_network(snap, backend=restore_backend)
            assert restored.network.engine.cycle == split
            assert (
                message_fingerprint(restored.network.log) == at_capture
            ), (capture_backend, restore_backend)
            resumed = _finish_scenario(
                restored.network,
                restored.extras["oracle"],
                restored.extras["sent"],
            )
            resumed["messages"] = message_fingerprint(restored.network.log)
            assert resumed == reference, (capture_backend, restore_backend)
        # The capture itself must not perturb the original run.
        original = _finish_scenario(network, oracle, sent)
        original["messages"] = message_fingerprint(network.log)
        assert original == reference, capture_backend
