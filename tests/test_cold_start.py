"""Cold start: what a command loads before it runs, counted in modules.

Each check runs its code in a fresh interpreter and lists which of the
watched modules that interpreter then holds; nothing is timed, and
nothing another test imported counts.  The lists below are the cold
start budget (DESIGN.md, "Cold start"): networkx is for ``figure1``
and the topology checks, numpy for building and summarising
experiment results, the harness for sweeps, tables and ``tail``,
telemetry for a hub (``send --verbose``, ``--trace-export``,
``--metrics``), and ``pickle`` and ``hashlib`` for snapshots, trial
identities and seed derivation.  The harness brings the last three
with it (telemetry through ``harness/journal.py``, ``spec.py`` and
``pool.py``; pickle and hashlib through ``cache.py`` and ``spec.py``),
so a table or ``tail`` holds them too.
"""

import json

from repro.harness.journal import JOURNAL_FORMAT
from repro.telemetry.stream import STREAM_FORMAT

from tests.fresh import fresh_json

WATCHED = (
    "networkx",
    "numpy",
    "repro.harness",
    "repro.telemetry",
    "pickle",
    "hashlib",
)

#: What the harness package loads on its own today.
_HARNESS = {"repro.harness", "repro.telemetry", "pickle", "hashlib"}

_PROBE = """
import contextlib, io, json, sys
with contextlib.redirect_stdout(io.StringIO()):
{code}
print(json.dumps([name for name in {watched!r} if name in sys.modules]))
"""


def loaded(code):
    """The :data:`WATCHED` modules a fresh interpreter holds after
    running ``code`` (its stdout is swallowed)."""
    body = "\n".join("    " + line for line in code.splitlines())
    return set(fresh_json(_PROBE.format(code=body, watched=WATCHED)))


def _main(*argv):
    return "from repro.cli import main\nassert main({!r}) == 0".format(list(argv))


def _header_only(path, header, format_tag):
    path.write_text(
        json.dumps({"event": header, "format": format_tag, "cycle": 0}) + "\n"
    )
    return str(path)


def test_import_and_send_load_no_harness_numpy_or_networkx():
    """Nor telemetry, pickle or hashlib: none of ``WATCHED``."""
    assert loaded("import repro") == set()
    assert loaded("import repro.cli") == set()
    assert loaded(_main("send", "5", "15")) == set()


def test_a_trace_export_loads_telemetry(tmp_path):
    trace = str(tmp_path / "trace.json")
    send = _main("send", "5", "15", "--trace-export", trace)
    assert "repro.telemetry" in loaded(send)


def test_tail_loads_neither_numpy_nor_networkx(tmp_path):
    """Both renderers format through ``repro.harness.reporting``, and a
    journal's reader lives in the harness, so the harness loads, and
    with it telemetry, pickle and hashlib."""
    log = _header_only(tmp_path / "run.jsonl", "run.start", STREAM_FORMAT)
    journal = _header_only(tmp_path / "j.jsonl", "journal.start", JOURNAL_FORMAT)
    assert loaded(_main("tail", log)) == _HARNESS
    assert loaded(_main("tail", journal)) == _HARNESS


def test_a_table_loads_neither_numpy_nor_networkx():
    assert loaded(_main("table3")) == _HARNESS


def test_figure1_still_loads_networkx():
    assert "networkx" in loaded(_main("figure1"))


def test_the_gate_reports_networkx_when_the_topology_analysis_is_imported():
    """What the eager ``from repro.network import analysis`` in
    ``repro/network/__init__.py`` did to every command."""
    got = loaded("import repro.cli\nimport repro.network.analysis")
    assert got - {"hashlib"} == {"networkx"}  # networkx imports hashlib itself


def test_the_gate_reports_pickle_and_hashlib_when_snapshot_is_imported():
    """What the eager snapshot exports of ``repro/sim/__init__.py`` did
    to every command."""
    assert loaded("import repro.cli\nimport repro.sim.snapshot") == {
        "pickle",
        "hashlib",
    }
