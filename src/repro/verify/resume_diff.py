"""Deterministic-resume proof for engine snapshots.

:mod:`repro.sim.snapshot` claims that a restored simulation is
indistinguishable from one that never stopped.  This module is the
proof harness, the snapshot counterpart of
:mod:`repro.verify.backend_diff`, over the same table of workload
families (:data:`repro.verify.families.FAMILIES`, which also says what
each family's fingerprint holds).  :func:`resume_at` runs one seeded
workload three ways —

* **reference**: start to finish, never interrupted;
* **original**: to the split cycle, snapshot, then on to the finish —
  held to the reference's fingerprint, proving the capture itself
  perturbs nothing;
* **resumed**: the snapshot, pickled and loaded back (the process
  boundary a real checkpoint crosses), restored — at the split cycle
  and with the fingerprint the original had there — and finished,
  possibly on the other backend: a snapshot captured under the dense
  reference engine must resume byte-identically under the events
  engine and vice versa.

``chaos`` keeps a leg of its own: :func:`~repro.harness.chaos.run_chaos_point`
owns its loop, and a soak resumes by being run again on its on-disk
snapshot ring, so that second call *is* the claim.

Comparisons are structural (field-by-field ``==``), never pickle-bytes
equality: objects that rode a snapshot carry non-interned strings, so
re-pickling a resumed result encodes the same values with different
memoization — a serialization artifact, not a behavioural difference.

Every resume point is a pure function of ``(kind, seed, backend,
restore_backend)``, so sweeps are reproducible and fan out across a
:class:`~repro.harness.parallel.TrialRunner` worker pool.
"""

import logging
import pickle
import random
import tempfile
from collections import namedtuple

from repro.core.random_source import derive_seed
from repro.harness import chaos
from repro.sim.snapshot import restore_network, snapshot_network
from repro.verify.backend_diff import _compare
from repro.verify.families import family, run_family

#: (capture backend, restore backend) pairs swept by default: both
#: same-backend resumes plus both cross-backend directions.
DEFAULT_PAIRS = (
    ("reference", "reference"),
    ("events", "events"),
    ("reference", "events"),
    ("events", "reference"),
)

#: Outcome of one resume point.  ``mismatches`` is a list of
#: human-readable field descriptions (empty when the resumed run is
#: indistinguishable from the uninterrupted one).
ResumeReport = namedtuple(
    "ResumeReport",
    ["kind", "seed", "backend", "restore_backend", "ok", "mismatches"],
)


def resume_at(kind, seed, split, backend, restore_backend):
    """The proof for one seeded workload snapshotted at cycle ``split``.

    Returns the mismatch descriptions, empty when the original and the
    resumed run are both indistinguishable from the uninterrupted one.
    """
    row = family(kind)
    mismatches = []
    reference = run_family(kind, seed, backend)

    network, riders = row.start(seed, backend)
    network.run(split)
    at_capture = row.fingerprint((network, riders))
    # Pickled and loaded back: the process boundary a real checkpoint
    # crosses (worker hand-off, host restart).
    snap = pickle.loads(
        pickle.dumps(
            snapshot_network(network, extras=riders),
            protocol=pickle.HIGHEST_PROTOCOL,
        )
    )
    original = row.fingerprint(row.finish((network, riders)))
    _compare((reference, original), mismatches, prefix="original:")

    restored = restore_network(snap, backend=restore_backend)
    state = (restored.network, restored.extras)
    _compare(
        (
            dict(at_capture, cycle=split),
            dict(row.fingerprint(state), cycle=restored.network.engine.cycle),
        ),
        mismatches,
        prefix="restored:",
    )
    resumed = row.fingerprint(row.finish(state))
    _compare((reference, resumed), mismatches, prefix="resumed:")
    return mismatches


def _resume_soak(seed, backend, restore_backend):
    """The ``chaos`` leg: the soak is run again on its own ring."""
    row = family("chaos")
    kwargs = row.start(seed, backend)
    mismatches = []
    reference = row.fingerprint(row.finish(kwargs))
    with tempfile.TemporaryDirectory() as ring:
        kwargs.update(snapshot_every=3, snapshot_dir=ring)
        # The ring-writing soak must score identically to the plain one
        # (writing a checkpoint is observation, not perturbation) ...
        ringed = row.fingerprint(row.finish(kwargs))
        _compare((reference, ringed), mismatches, prefix="ringed:")
        # ... and running it again (a simulated host restart) must
        # continue from its newest on-disk snapshot and land on the
        # same verdicts.  A ring warning means it started over instead,
        # which would make the comparison vacuous.
        warnings = logging.Handler(level=logging.WARNING)
        warnings.emit = lambda record: mismatches.append(
            "resumed: " + record.getMessage()
        )
        chaos.logger.addHandler(warnings)
        try:
            resumed = row.fingerprint(
                row.finish(dict(kwargs, backend=restore_backend))
            )
        finally:
            chaos.logger.removeHandler(warnings)
        _compare((reference, resumed), mismatches, prefix="resumed:")
    return mismatches


def resume_point(kind, seed, backend="reference", restore_backend=None):
    """Run one resume trial; returns a :class:`ResumeReport`.

    The split cycle is the family's rule applied to the seed;
    ``restore_backend`` None restores under the capture backend.
    """
    if restore_backend is None:
        restore_backend = backend
    row = family(kind)
    if row.split is None:
        mismatches = _resume_soak(seed, backend, restore_backend)
    else:
        rng = random.Random(derive_seed(seed, "resume-diff", kind))
        mismatches = resume_at(
            kind, seed, row.split(rng), backend, restore_backend
        )
    return ResumeReport(
        kind=kind,
        seed=seed,
        backend=backend,
        restore_backend=restore_backend,
        ok=not mismatches,
        mismatches=mismatches,
    )


def run_resume_trial(seed=0, kind="scenario", backend="reference", restore_backend=None):
    """The ``resume-diff`` sweep's runner (a row of
    :data:`repro.harness.sweeps.SWEEPS`): :func:`resume_point`."""
    return resume_point(
        kind, seed, backend=backend, restore_backend=restore_backend
    )
