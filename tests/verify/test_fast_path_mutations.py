"""Seeded bugs in the fast paths both engines share.

``MetroRouter.tick`` skips ``_service_backward_bcb`` while its
owned-port count is zero.  Both backends run that tick, so
``verify --backend-diff`` compares a stale count with itself and sees
nothing; the checks that do see it are the protocol Oracle (a BCB pulse
presented to an owned port and not answered is ``bcb-ignored``) and the
golden trace, which runs under fast reclamation (clean controls:
``test_mutations.py::test_workloads_are_clean_without_mutations`` and
the golden-trace test itself).  The channel's
companion mutation, ``channel-stale-liveness``, is caught by the
property test in ``tests/sim/test_channel.py``.
"""

import json

from repro.core import mutation
from repro.verify.oracle import RULE_BCB_IGNORED

from tests.test_golden_trace import GOLDEN_PATH, _golden_state
from tests.verify.test_mutations import _converging_run


def test_fast_path_mutations_are_registered_but_separate():
    assert mutation.FAST_PATH_MUTATIONS == {
        mutation.CHANNEL_STALE_LIVENESS,
        mutation.STALE_OWNED_COUNT,
    }
    assert mutation.FAST_PATH_MUTATIONS <= mutation.KNOWN_MUTATIONS
    # oracle_violations.json and test_mutations.py's census enumerate
    # ALL_MUTATIONS exactly; these stay out of it.
    assert not (mutation.FAST_PATH_MUTATIONS & mutation.ALL_MUTATIONS)


def test_oracle_catches_a_stale_owned_count():
    with mutation.seeded(mutation.STALE_OWNED_COUNT):
        oracle = _converging_run()
    assert RULE_BCB_IGNORED in oracle.violation_rules(), (
        oracle.violation_rules()
    )


def test_golden_trace_catches_a_stale_owned_count():
    with open(GOLDEN_PATH) as handle:
        golden = json.load(handle)
    with mutation.seeded(mutation.STALE_OWNED_COUNT):
        state = _golden_state()
    assert state["deliveries"] != golden["deliveries"]
    assert state["waveform_sha256"] != golden["waveform_sha256"]
