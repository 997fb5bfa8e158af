"""The backend differ's failure output must be actionable.

A bare "fingerprints differ" forces a debugger re-run; the report
format pins down the first divergent record — index, simulation cycle
and component id where the record carries them — plus a unified diff
of just that record pair, so an equivalence failure reads like a bug
report.  These tests exercise the formatting layer directly on
hand-built fingerprints; the end-to-end path (a seeded mutation
producing such a report from a real run) is covered by
``test_backend_mutations``.
"""

from repro.sim.backends import BACKENDS
from repro.verify.backend_diff import _compare, diff_point


def _mismatches(reference, candidate):
    out = []
    _compare([reference, candidate], out)
    return out


def test_list_divergence_reports_record_cycle_and_component():
    # "messages" records carry the source component at index 0 and the
    # queueing cycle at index 3 (see _RECORD_FIELDS).
    reference = {
        "messages": [
            (7, 2, "ok", 100, 5),
            (3, 9, "ok", 140, 5),
            (8, 1, "ok", 215, 5),
        ]
    }
    candidate = {
        "messages": [
            (7, 2, "ok", 100, 5),
            (3, 9, "blocked-fast", 141, 5),
            (8, 1, "ok", 215, 5),
        ]
    }
    (report,) = _mismatches(reference, candidate)
    header, _, diff = report.partition("\n")
    assert "messages: first divergence at record 1 of 3/3" in header
    assert "cycle 140" in header
    assert "component 3" in header
    assert "--- reference" in diff
    assert "+++ candidate" in diff
    assert "-(3, 9, 'ok', 140, 5)" in diff
    assert "+(3, 9, 'blocked-fast', 141, 5)" in diff


def test_length_mismatch_reports_absent_record():
    reference = {"receiver_arrivals": [(50, 1), (61, 2)]}
    candidate = {"receiver_arrivals": [(50, 1)]}
    (report,) = _mismatches(reference, candidate)
    assert "first divergence at record 1 of 2/1" in report
    assert "cycle 61" in report
    assert "'<absent>'" in report


def test_scalar_divergence_gets_whole_value_diff():
    (report,) = _mismatches(
        {"receiver_deliveries": 458}, {"receiver_deliveries": 392}
    )
    assert report.startswith("receiver_deliveries:")
    assert "-458" in report
    assert "+392" in report


def test_prefix_tags_every_description():
    out = []
    _compare([{"cycle": 100}, {"cycle": 90}], out, prefix="resumed:")
    (report,) = out
    assert report.startswith("resumed:cycle:")


def test_equal_fingerprints_report_nothing():
    fingerprint = {"messages": [(1, 2, "ok", 10, 3)], "cycle": 2400}
    assert _mismatches(fingerprint, dict(fingerprint)) == []


def test_diff_report_object_shape():
    for backend in BACKENDS:
        report = diff_point("scenario", 0, backend=backend)
        assert report.ok and report.kind == "scenario" and report.seed == 0
        assert report.mismatches == []
