"""Differential equivalence proof between engine backends.

The events backend (:mod:`repro.sim.backends`) claims to be a
drop-in replacement for the reference engine: not statistically
similar — *byte-identical*.  This module is the proof harness.  Each
diff point runs one seeded workload of one family once per backend,
start to finish, and compares the two fingerprints key by key.

What a family builds, how it is driven and what its fingerprint holds
is written once, in the table both provers loop over
(:data:`repro.verify.families.FAMILIES`): always the full message log,
message by message — source, destination, payload words,
queue/start/completion cycles, attempt counts, outcomes, per-attempt
failure causes, blocked stages and reply payloads — with receiver-side
arrivals, delivery counts, checksum failures and attempt-failure
tallies, plus per family the quiescence flag and oracle violations,
the telemetry metrics snapshot, the applied-fault transition history,
the collective's per-step rows, the chaos verdicts, and the final
engine cycle where an interrupted run would end on the same one.

Every diff is a pure function of ``(kind, seed)``, so sweeps are
reproducible and can fan out across a
:class:`~repro.harness.parallel.TrialRunner` worker pool (the report
is picklable).
"""

import difflib
import pprint
from collections import namedtuple

# Lives beside MessageLog; bench/ and older callers import it from here.
from repro.endpoint.messages import message_fingerprint  # noqa: F401
from repro.verify.families import FAMILIES, run_family

#: Workload families diffed by default, in sweep order: the table's keys.
DEFAULT_KINDS = tuple(FAMILIES)

#: Outcome of one differential run.  ``mismatches`` is a list of
#: human-readable field descriptions (empty when the backends agree).
DiffReport = namedtuple("DiffReport", ["kind", "seed", "ok", "mismatches"])


#: Positions of the simulation cycle and the component id inside the
#: known sequence-valued fingerprint records (see
#: :func:`~repro.endpoint.messages.message_fingerprint` and the rows of
#: :mod:`repro.verify.families`).
_RECORD_FIELDS = {
    "messages": {"cycle": 3, "component": 0},  # queued_cycle, source
    "receiver_arrivals": {"cycle": 0},
    "applied": {"cycle": 0},
}


def _unified_diff(ref_value, other_value):
    """A unified diff of the two records' pretty-printed forms."""
    diff = difflib.unified_diff(
        pprint.pformat(ref_value, width=68).splitlines(),
        pprint.pformat(other_value, width=68).splitlines(),
        fromfile="reference",
        tofile="candidate",
        lineterm="",
    )
    return "\n".join(diff)


def _describe_key_divergence(prefix, key, ref_value, other_value):
    """One actionable description of how a fingerprint key diverged.

    For sequence-valued keys the description pinpoints the *first*
    divergent record — its index, the simulation cycle and the
    component id where the record carries them — followed by a unified
    diff of just that record pair.  Scalar and mapping keys get the
    unified diff of their whole values.
    """
    if isinstance(ref_value, list) and isinstance(other_value, list):
        limit = min(len(ref_value), len(other_value))
        index = limit
        for i in range(limit):
            if ref_value[i] != other_value[i]:
                index = i
                break
        ref_rec = ref_value[index] if index < len(ref_value) else "<absent>"
        other_rec = (
            other_value[index] if index < len(other_value) else "<absent>"
        )
        header = "{}{}: first divergence at record {} of {}/{}".format(
            prefix, key, index, len(ref_value), len(other_value)
        )
        fields = _RECORD_FIELDS.get(key, {})
        probe = ref_rec if ref_rec != "<absent>" else other_rec
        if isinstance(probe, tuple):
            position = fields.get("cycle")
            if position is not None and position < len(probe):
                header += ", cycle {}".format(probe[position])
            position = fields.get("component")
            if position is not None and position < len(probe):
                header += ", component {}".format(probe[position])
        return header + "\n" + _unified_diff(ref_rec, other_rec)
    return "{}{}:\n{}".format(
        prefix, key, _unified_diff(ref_value, other_value)
    )


def _compare(fingerprints, mismatches, prefix=""):
    """Append a description per differing key of two fingerprint dicts.

    Each description localizes the first divergence (record index,
    cycle and component id where available) and shows a unified diff
    of the divergent records, so an equivalence failure is actionable
    without re-running the trial under a debugger.
    """
    ref, other = fingerprints
    for key in ref:
        if ref[key] != other[key]:
            mismatches.append(
                _describe_key_divergence(prefix, key, ref[key], other[key])
            )


def diff_point(kind, seed, backend="events"):
    """Run one differential trial; returns a :class:`DiffReport`."""
    mismatches = []
    _compare(
        [run_family(kind, seed, be) for be in ("reference", backend)],
        mismatches,
    )
    return DiffReport(kind=kind, seed=seed, ok=not mismatches, mismatches=mismatches)


def run_diff_trial(seed=0, kind="scenario", backend="events"):
    """The ``backend-diff`` sweep's runner (a row of
    :data:`repro.harness.sweeps.SWEEPS`): :func:`diff_point`."""
    return diff_point(kind, seed, backend=backend)
