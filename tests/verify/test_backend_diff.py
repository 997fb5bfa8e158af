"""The backend equivalence proof harness itself.

The full acceptance sweep (50+ trials across all workload families,
serial == parallel) runs in CI and via ``repro verify --backend-diff``;
here a trial per family keeps the proof wired into the default test
run, plus unit coverage of the harness API (the family table, kind
routing, spec derivation, what the scenario fingerprint can see).
"""

import os

import pytest

from repro.cli import build_parser
from repro.harness.parallel import run_trials
from repro.verify.backend_diff import (
    DEFAULT_KINDS,
    DiffReport,
    _compare,
    backend_diff_specs,
    diff_point,
    run_diff_trial,
)
from repro.verify.families import FAMILIES, run_family

DOCS = os.path.join(
    os.path.dirname(__file__), os.pardir, os.pardir, "docs", "testing.md"
)


@pytest.mark.parametrize("kind", DEFAULT_KINDS)
def test_one_trial_per_workload_family(kind):
    report = diff_point(kind, seed=7)
    assert report.ok, report.mismatches
    assert report.kind == kind
    assert report.seed == 7


def test_the_family_table_is_the_single_source():
    assert DEFAULT_KINDS == tuple(FAMILIES)
    # Appended, never reordered: trial index -> kind of the first four
    # is what the pinned ``--trials 4`` CLI fixtures ran.
    assert DEFAULT_KINDS == (
        "scenario", "traffic", "faults", "chaos", "collective", "service",
    )
    # The two places that spell the list out, held to the table: the
    # family table of docs/testing.md, and the ``verify`` help (a
    # literal, because building it from the table would import the
    # whole harness on every CLI start).
    with open(DOCS) as handle:
        rows = [line for line in handle if line.startswith("| `")]
    for kind in DEFAULT_KINDS:
        assert any(row.startswith("| `{}` ".format(kind)) for row in rows), kind
    verify = build_parser()._subparsers._group_actions[0].choices["verify"]
    for flag in ("--backend-diff", "--resume-diff"):
        (action,) = [a for a in verify._actions if flag in a.option_strings]
        assert "({})".format("/".join(DEFAULT_KINDS)) in action.help, flag


@pytest.mark.parametrize("kind", ["scenario", "collective", "service"])
def test_the_proof_is_not_vacuous(kind):
    # Equal fingerprints prove nothing if nothing happened: the run a
    # family's seed draws delivers messages (the service soak serves
    # requests, the collective completes every step of its DAG).
    fingerprint = run_family(kind, 7, "events")
    assert fingerprint["messages"]
    assert fingerprint["receiver_deliveries"] == len(fingerprint["messages"])
    for row in fingerprint.get("steps", ()):
        assert row["done"] is not None, row


def test_scenario_fingerprint_sees_a_completion_cycle():
    """The scenario family compares what the docstring says: every
    field of every message, not a hand-picked few.  One message's
    ``done_cycle`` off by one, on the candidate side only, is reported
    for that record."""
    reference = run_family("scenario", 7, "reference")
    candidate = run_family("scenario", 7, "events")
    assert reference == candidate
    last = len(candidate["messages"]) - 1
    record = list(candidate["messages"][last])
    record[5] += 1  # done_cycle
    candidate["messages"][last] = tuple(record)
    mismatches = []
    _compare([reference, candidate], mismatches)
    (report,) = mismatches
    assert report.startswith(
        "messages: first divergence at record {} of".format(last)
    ), report
    assert ", cycle {},".format(record[3]) in report.splitlines()[0], report


def test_unknown_kind_is_rejected():
    with pytest.raises(ValueError) as excinfo:
        diff_point("voltage", seed=0)
    assert "voltage" in str(excinfo.value)
    assert "scenario" in str(excinfo.value)


def test_specs_cycle_kinds_and_derive_seeds():
    specs = backend_diff_specs(n_trials=8, seed=3)
    assert [spec.params["kind"] for spec in specs] == [
        "scenario", "traffic", "faults", "chaos", "collective", "service",
        "scenario", "traffic",
    ]
    # Seeds are pure functions of (root seed, index): extending the
    # sweep never changes an existing trial's cache identity.
    assert len({spec.seed for spec in specs}) == 8
    prints = [spec.fingerprint(code_version="x") for spec in specs]
    assert prints[:4] == [
        spec.fingerprint(code_version="x")
        for spec in backend_diff_specs(n_trials=4, seed=3)
    ]
    assert prints != [
        spec.fingerprint(code_version="x")
        for spec in backend_diff_specs(n_trials=8, seed=4)
    ]


def test_sweep_reports_and_failure_filter():
    reports = run_trials(backend_diff_specs(n_trials=2, seed=1))
    assert [report.kind for report in reports] == list(DEFAULT_KINDS[:2])
    # ``ok`` is the whole failure filter: it is what the CLI gate reads.
    assert all(report.ok for report in reports)
    broken = DiffReport(
        kind="traffic", seed=9, ok=False, mismatches=["cycle: 5 != 6"]
    )
    assert [r for r in reports + [broken] if not r.ok] == [broken]


def test_run_diff_trial_matches_diff_point():
    assert run_diff_trial(seed=11, kind="scenario") == diff_point(
        "scenario", 11
    )


@pytest.mark.slow
def test_acceptance_sweep_54_trials():
    """The acceptance bar: >= 50 random workloads, every family nine
    times (transient faults included), byte-identical across backends."""
    reports = run_trials(backend_diff_specs(n_trials=54, seed=0), workers=4)
    assert len(reports) == 54
    failures = [report for report in reports if not report.ok]
    assert not failures, [
        (r.kind, r.seed, r.mismatches[:2]) for r in failures
    ]
