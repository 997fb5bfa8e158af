"""Cold start: what a command loads before it runs, counted in modules.

Each check runs its code in a fresh interpreter and lists which of the
watched modules that interpreter then holds; nothing is timed, and
nothing another test imported counts.  The lists below are the cold
start budget (DESIGN.md, "Cold start"): the package imports neither
networkx nor numpy anywhere (both stay watched, so one that comes back
fails here), the harness is for sweeps, tables and ``tail``,
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
    """The route analysis walks the wire list itself: figure1 loads neither library."""
    assert loaded(_main("figure1")) & {"networkx", "numpy"} == set()


def test_the_gate_reports_networkx_when_the_topology_analysis_is_imported():
    """The gate still sees networkx, probed by importing a stub of it."""
    stub = "import sys, types\nsys.modules['networkx'] = types.ModuleType('networkx')"
    assert loaded("import repro.cli\n" + stub + "\nimport networkx") == {"networkx"}


_WITHOUT_LIBRARIES = """
import contextlib, io, json, sys
sys.modules["numpy"] = sys.modules["networkx"] = None  # any import raises
from repro.cli import main
with contextlib.redirect_stdout(io.StringIO()) as out:
    codes = [
        main(["figure1"]),
        main(["figure3", "--rates", "0.02", "--warmup", "50", "--measure", "200"]),
    ]
print(json.dumps([codes, "Unloaded latency: 40.0" in out.getvalue()]))
"""


def test_figure1_and_a_figure3_sweep_run_without_numpy_or_networkx():
    """The package needs only the standard library: with both libraries
    made unimportable, the route analysis and a measured sweep run."""
    assert fresh_json(_WITHOUT_LIBRARIES) == [[0, 0], True]


def test_the_gate_reports_pickle_and_hashlib_when_snapshot_is_imported():
    """What the eager snapshot exports of ``repro/sim/__init__.py`` did
    to every command."""
    assert loaded("import repro.cli\nimport repro.sim.snapshot") == {
        "pickle",
        "hashlib",
    }
