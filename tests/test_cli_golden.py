"""Golden CLI output: stdout, stderr and exit code for a fixed matrix.

Every sweep command (``figure3``, ``faults``, ``chaos``, ``workloads``,
``saturation``, the three ``verify`` sweeps), the quarantine exit
path, a journal resume and ``tail`` on a journal are run as real
``python -m repro.cli`` subprocesses in an empty working directory,
and what they print is compared with the committed fixtures under
``tests/fixtures/cli_golden/`` — one JSON file per case, one entry per
command, stdout/stderr as lists of lines so a diff names the line.

Only what differs between two runs of the *same* commit is masked
(:func:`_mask`): wall-clock seconds, process ids and the temporary
working directory.  Everything else — tables, ``FAIL:`` lines, retry
warnings, exit codes — is pinned byte for byte, so a refactor of the
command plumbing cannot change what a user sees without a fixture
diff to review.  If a change is *intentional*, regenerate with::

    PYTHONPATH=src python tests/test_cli_golden.py --regen [CASE...]

``tests/fixtures/cli_options.json`` pins the other half of the CLI
contract: every subcommand's options with their types and defaults,
read from ``build_parser()`` (argparse ``--help`` text differs between
Python 3.10 and 3.12; the parser's actions do not).
"""

import hashlib
import json
import os
import re
import subprocess
import sys
import tempfile

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN_DIR = os.path.join(ROOT, "tests", "fixtures", "cli_golden")
OPTIONS_PATH = os.path.join(ROOT, "tests", "fixtures", "cli_options.json")

_FIG3 = ["figure3", "--rates", "0.005,0.04", "--warmup", "150",
         "--measure", "400"]
_FAULTS = ["faults", "--rate", "0.04", "--warmup", "150", "--measure", "400"]
_CHAOS = ["chaos", "--seeds", "1", "--windows", "6", "--window-cycles",
          "200", "--warmup-windows", "2", "--mtbf", "400", "--mttr", "200"]

#: case name -> {"commands": [argv, ...], "env": {...}, "files": [...]}.
#: Commands of one case run in order in the same scratch directory;
#: ``files`` are outputs whose bytes are deterministic and pinned by
#: sha256 (journals carry timestamps and are pinned through ``tail``).
CASES = {
    "figure3_plain": {"commands": [_FIG3]},
    "figure3_metrics": {"commands": [_FIG3 + ["--metrics"]]},
    "figure3_workers2": {"commands": [["--workers", "2"] + _FIG3]},
    "figure3_events_export": {
        "commands": [
            _FIG3 + ["--backend", "events", "--metrics-export", "m.json"]
        ],
        "files": ["m.json"],
    },
    "figure3_journal_resume_tail": {
        "commands": [
            ["--cache-dir", "cache"] + _FIG3 + ["--journal", "run.jsonl"],
            ["tail", "run.jsonl"],
            ["--cache-dir", "cache"] + _FIG3 + ["--journal", "run.jsonl"],
            ["tail", "run.jsonl"],
        ],
    },
    "figure3_quarantined": {
        "commands": [
            ["--workers", "2"] + _FIG3 + ["--retries", "3", "--quarantine"],
        ],
        "env": {
            "REPRO_CHAOSMONKEY": "3:rate=0.04",
            "REPRO_CHAOSMONKEY_DIR": "ledger",
        },
    },
    # One trial, so the pool has one worker and the retry warnings
    # cannot interleave.
    "figure3_all_quarantined": {
        "commands": [
            ["--workers", "2", "figure3", "--rates", "0.04", "--warmup",
             "150", "--measure", "400", "--retries", "2", "--quarantine"],
        ],
        "env": {
            "REPRO_CHAOSMONKEY": "2:*",
            "REPRO_CHAOSMONKEY_DIR": "ledger",
        },
    },
    "faults_all_quarantined": {
        "commands": [
            ["--workers", "2"] + _FAULTS + ["--levels", "2:0", "--quarantine"],
        ],
        "env": {
            "REPRO_CHAOSMONKEY": "1:*",
            "REPRO_CHAOSMONKEY_DIR": "ledger",
        },
    },
    "chaos_all_quarantined": {
        "commands": [["--workers", "2"] + _CHAOS + ["--quarantine"]],
        "env": {
            "REPRO_CHAOSMONKEY": "1:*",
            "REPRO_CHAOSMONKEY_DIR": "ledger",
        },
    },
    "faults_point": {"commands": [_FAULTS + ["--links", "2"]]},
    "faults_point_metrics": {
        "commands": [_FAULTS + ["--links", "2", "--routers", "1",
                                "--metrics"]],
    },
    "faults_levels_max_degradation": {
        "commands": [
            _FAULTS + ["--levels", "0:0,8:4", "--max-degradation", "0.0"],
        ],
    },
    "faults_levels_max_undeliverable": {
        "commands": [
            _FAULTS + ["--levels", "0:0,8:4", "--max-attempts", "1",
                       "--max-undeliverable", "0"],
        ],
    },
    "chaos_compare_min_availability": {
        "commands": [_CHAOS + ["--compare", "--min-availability", "1.01"]],
    },
    "chaos_metrics_oracle": {
        "commands": [_CHAOS + ["--metrics", "--oracle"]],
    },
    "workloads_collective": {
        "commands": [
            ["workloads", "collective", "--fault-levels", "0:0,2:0",
             "--words", "6", "--slo-cycles", "50000",
             "--metrics-export", "wl.json"],
        ],
        "files": ["wl.json"],
    },
    "workloads_service_slo_p99": {
        "commands": [
            ["workloads", "service", "--rates", "0.002", "--measure",
             "2000", "--slo-p99", "50"],
        ],
    },
    "saturation": {"commands": [["saturation", "--measure", "300"]]},
    "saturation_workers2_metrics": {
        "commands": [
            ["--workers", "2", "saturation", "--measure", "300", "--metrics"],
        ],
    },
    "verify_plain": {"commands": [["verify", "--trials", "4"]]},
    "verify_backend_diff": {
        "commands": [["verify", "--backend-diff", "--trials", "4"]],
    },
    "verify_resume_diff": {
        "commands": [["verify", "--resume-diff", "--trials", "4"]],
    },
    "send_plain": {"commands": [["send", "5", "15"]]},
    "send_events": {"commands": [["send", "5", "15", "--backend", "events"]]},
    "send_fattree": {
        "commands": [["send", "1", "14", "--network", "fattree"]],
    },
    "send_verbose": {"commands": [["send", "2", "9", "--verbose"]]},
    "send_trace_export": {
        "commands": [["send", "5", "15", "--trace-export", "t.json"]],
        "files": ["t.json"],
    },
}

_SECONDS = re.compile(r"\d+\.\d+s\b")
_PID = re.compile(r"\bpid \d+")


def _mask(text, scratch):
    """Replace what legitimately differs between two runs of one commit."""
    text = text.replace(os.path.realpath(scratch), "<TMP>")
    text = text.replace(scratch, "<TMP>")
    text = _SECONDS.sub("…s", text)
    return _PID.sub("pid <PID>", text)


def _run_case(name):
    """Run one case's commands; returns the fixture-shaped document."""
    case = CASES[name]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["PYTHONHASHSEED"] = "0"
    for key in ("REPRO_CHAOSMONKEY", "REPRO_CHAOSMONKEY_DIR",
                "REPRO_CODE_VERSION", "REPRO_HEARTBEAT_FILE"):
        env.pop(key, None)
    env.update(case.get("env", {}))
    document = {"commands": []}
    with tempfile.TemporaryDirectory(prefix="cli-golden-") as scratch:
        for argv in case["commands"]:
            done = subprocess.run(
                [sys.executable, "-m", "repro.cli"] + argv,
                cwd=scratch, env=env, capture_output=True, text=True,
                timeout=600,
            )
            document["commands"].append({
                "argv": argv,
                "exit": done.returncode,
                "stdout": _mask(done.stdout, scratch).splitlines(),
                "stderr": _mask(done.stderr, scratch).splitlines(),
            })
        files = {}
        for relative in case.get("files", ()):
            with open(os.path.join(scratch, relative), "rb") as handle:
                files[relative] = hashlib.sha256(handle.read()).hexdigest()
        if files:
            document["files"] = files
    return document


def _fixture_path(name):
    return os.path.join(GOLDEN_DIR, name + ".json")


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_fixture(name):
    with open(_fixture_path(name)) as handle:
        golden = json.load(handle)
    actual = _run_case(name)
    for want, got in zip(golden["commands"], actual["commands"]):
        label = "repro " + " ".join(want["argv"])
        assert got["stdout"] == want["stdout"], label
        assert got["stderr"] == want["stderr"], label
        assert got["exit"] == want["exit"], label
    assert actual == golden


def test_every_fixture_has_a_case():
    on_disk = sorted(
        name[:-5] for name in os.listdir(GOLDEN_DIR) if name.endswith(".json")
    )
    assert on_disk == sorted(CASES)


def _jsonable(value):
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return repr(value)


def cli_options():
    """``{subcommand: {dest: {...}}}`` read off ``build_parser()``.

    ``"(global)"`` holds the options that precede the subcommand.
    Help text, metavars and usage strings are left out on purpose:
    they are wording, and argparse renders them differently across
    Python versions.
    """
    import argparse

    from repro.cli import build_parser

    def describe(parser):
        options = {}
        for action in parser._actions:
            if isinstance(
                action, (argparse._HelpAction, argparse._SubParsersAction)
            ):
                continue
            options[action.dest] = {
                "flags": list(action.option_strings),
                "action": type(action).__name__,
                "type": getattr(action.type, "__name__", None),
                "default": _jsonable(action.default),
                "choices": _jsonable(action.choices),
                "nargs": _jsonable(action.nargs),
                "required": bool(action.required),
            }
        return options

    parser = build_parser()
    inventory = {"(global)": describe(parser)}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                inventory[name] = describe(sub)
    return inventory


def test_cli_options_match_inventory():
    with open(OPTIONS_PATH) as handle:
        golden = json.load(handle)
    actual = cli_options()
    assert sorted(actual) == sorted(golden)
    for command in sorted(golden):
        assert actual[command] == golden[command], command


def _regen(names):
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for name in names or sorted(CASES):
        document = _run_case(name)
        with open(_fixture_path(name), "w") as handle:
            json.dump(document, handle, indent=1, sort_keys=True,
                      ensure_ascii=False)
            handle.write("\n")
        print("wrote {} (exit {})".format(
            _fixture_path(name),
            [command["exit"] for command in document["commands"]],
        ))
    if not names:
        with open(OPTIONS_PATH, "w") as handle:
            json.dump(cli_options(), handle, indent=1, sort_keys=True)
            handle.write("\n")
        print("wrote {}".format(OPTIONS_PATH))


if __name__ == "__main__":
    if "--regen" in sys.argv:
        _regen([arg for arg in sys.argv[1:] if arg != "--regen"])
    else:
        print(__doc__)
