"""Property tests over the backend matrix.

Two claims, both over *random* scenarios rather than curated seeds:

* every registered backend walks a random workload to the identical
  observable trajectory (message fingerprints, outcomes, oracle
  verdicts); and
* a mid-run snapshot taken under any backend restores and finishes
  under any backend (the full capture x restore matrix) to exactly the
  trajectory of the matching uninterrupted run.

Both are calls to the provers in ``repro.verify``, whose ``scenario``
family draws the scenario from the seed; this module lets hypothesis
hunt the seed and split space between the curated trials.  The restore
matrix is slow-marked.
"""

import pytest

from repro.sim.backends import BACKENDS
from repro.verify.backend_diff import diff_point
from repro.verify.resume_diff import resume_at

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**20))
def test_random_scenarios_identical_across_backends(seed):
    for backend in BACKENDS:
        if backend != "reference":
            report = diff_point("scenario", seed, backend=backend)
            assert report.ok, (backend, report.mismatches)


@pytest.mark.slow
@settings(max_examples=6, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**20),
    split=st.integers(min_value=0, max_value=60),
)
def test_snapshot_restore_full_backend_matrix(seed, split):
    for capture_backend in BACKENDS:
        for restore_backend in BACKENDS:
            assert not resume_at(
                "scenario", seed, split, capture_backend, restore_backend
            ), (capture_backend, restore_backend)
