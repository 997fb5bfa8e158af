"""Seeded bugs in the fast paths both engines share.

``MetroRouter.tick`` skips ``_service_backward_bcb`` while its
owned-port count is zero.  Both backends run that tick, so
``verify --backend-diff`` compares a stale count with itself and sees
nothing; the checks that do see it are the protocol Oracle (a BCB pulse
presented to an owned port and not answered is ``bcb-ignored``) and the
golden trace, which runs under fast reclamation (clean controls:
``test_mutations.py::test_workloads_are_clean_without_mutations`` and
the golden-trace test itself).  The seeded bug,
``router-stale-owned-count``, is an edit of ``MetroRouter._route``
(``tests/mutants.py``); the channel's companion,
``channel-stale-liveness``, is caught by the property test in
``tests/sim/test_channel.py``.  The tick also skips that scan while no
BCB pulse sits on any backward wire (one comparison against an
all-``None`` template); ``router-bcb-gate-blind`` builds the gate from
the outgoing pulse pipes, so no pulse ever opens it, and the Oracle
reports the unanswered pulses the same way.
"""

import json

from repro.verify.oracle import RULE_BCB_IGNORED

from tests.mutants import seeded
from tests.test_golden_trace import GOLDEN_PATH, _golden_state
from tests.verify.test_mutations import _converging_run


def test_oracle_catches_a_stale_owned_count():
    with seeded("router-stale-owned-count"):
        oracle = _converging_run()
    assert RULE_BCB_IGNORED in oracle.violation_rules(), (
        oracle.violation_rules()
    )


def test_golden_trace_catches_a_stale_owned_count():
    with open(GOLDEN_PATH) as handle:
        golden = json.load(handle)
    with seeded("router-stale-owned-count"):
        state = _golden_state()
    assert state["deliveries"] != golden["deliveries"]
    assert state["waveform_sha256"] != golden["waveform_sha256"]


def test_oracle_catches_a_blind_bcb_gate():
    with seeded("router-bcb-gate-blind"):
        oracle = _converging_run()
    assert RULE_BCB_IGNORED in oracle.violation_rules(), (
        oracle.violation_rules()
    )
