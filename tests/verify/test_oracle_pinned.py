"""Pinned Oracle output: every violation of every seeded-bug run.

``tests/fixtures/oracle_violations.json`` records, for each protocol
mutation of test_mutations.py, the ``events-skip-wake`` backend
mutation and the masked-port run of test_oracle.py, the complete list
of violations the conformance oracle reports — ``[cycle, router, port,
rule]`` rows in report order, plus a digest that also covers each
violation's detail text.  The fixture was generated from the Oracle as
it stood *before* its per-cycle core was reworked for speed, so this
test is the proof that the rework dropped no rule, moved no violation
to another cycle or port, and reordered nothing.

The mutation workloads run here with a 1000-cycle budget (a mutated
network never goes quiet, and every case has reported its last
violation — or hit the oracle's 1000-violation cap — by cycle 514).

If a change to a *rule* is intentional, regenerate with::

    PYTHONPATH=src python -m tests.verify.test_oracle_pinned --regen

and review the fixture diff like any other code change.
"""

import contextlib
import hashlib
import json
import os
import sys

import pytest

from repro.core import mutation
from repro.sim.backends import BACKENDS

from tests.verify import test_backend_mutations, test_mutations
from tests.verify.test_oracle import _masked_port_run

FIXTURE_PATH = os.path.join(
    os.path.dirname(__file__), os.pardir, "fixtures", "oracle_violations.json"
)

#: case -> (mutation to seed or None, run(backend) -> Oracle, backends)
CASES = {
    name: (
        name,
        lambda backend, run=run: run(max_cycles=1000, backend=backend),
        sorted(BACKENDS),
    )
    for name, run, _rule in test_mutations.CASES
}
# The skipped wake exists only in the events engine's scheduler.
CASES[mutation.EVENTS_SKIP_WAKE] = (
    mutation.EVENTS_SKIP_WAKE,
    lambda backend: test_backend_mutations._scenario_oracle_run(),
    ["events"],
)
CASES["masked-port"] = (None, _masked_port_run, sorted(BACKENDS))


def _observed(case, backend):
    seeded, run, _backends = CASES[case]
    context = (
        mutation.seeded(seeded) if seeded else contextlib.nullcontext()
    )
    with context:
        oracle = run(backend)
    digest = hashlib.sha256()
    for v in oracle.violations:
        digest.update(
            repr((v.cycle, v.router, v.port, v.rule, v.detail)).encode()
        )
    return {
        "violations": [
            [v.cycle, v.router, v.port, v.rule] for v in oracle.violations
        ],
        "detail_sha256": digest.hexdigest(),
    }


@pytest.fixture(scope="module")
def pinned():
    with open(FIXTURE_PATH) as handle:
        return json.load(handle)


def test_fixture_covers_every_case(pinned):
    assert set(pinned) == set(CASES)


@pytest.mark.parametrize(
    "case,backend",
    [
        (case, backend)
        for case in sorted(CASES)
        for backend in CASES[case][2]
    ],
)
def test_oracle_reproduces_pinned_violations(pinned, case, backend):
    observed = _observed(case, backend)
    assert observed["violations"] == pinned[case]["violations"]
    assert observed["detail_sha256"] == pinned[case]["detail_sha256"]


def _regen():
    state = {}
    for case, (_seeded, _run, backends) in sorted(CASES.items()):
        state[case] = _observed(case, backends[0])
        for backend in backends[1:]:
            assert _observed(case, backend) == state[case], (case, backend)
    with open(FIXTURE_PATH, "w") as handle:
        # One case per line: rows are data, not prose.
        handle.write("{\n")
        handle.write(
            ",\n".join(
                "{}: {}".format(json.dumps(case), json.dumps(state[case]))
                for case in sorted(state)
            )
        )
        handle.write("\n}\n")
    print("wrote {} ({})".format(
        FIXTURE_PATH,
        ", ".join(
            "{}: {}".format(case, len(state[case]["violations"]))
            for case in sorted(state)
        ),
    ))


if __name__ == "__main__":
    if "--regen" in sys.argv:
        _regen()
    else:
        print(__doc__)
