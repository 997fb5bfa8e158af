"""Code budget: the sweep harness and CLI may not quietly grow back.

ROADMAP item 3 is shrinking ``repro.harness`` + ``cli.py`` without
changing a byte of output.  This is the ratchet: the count of lines
that hold code (``tools/code_lines.py``: not blank, not comment, not
docstring) must stay at or under :data:`BUDGET`.  A PR that needs more
raises the number here, deliberately, in its diff; a PR that removes
code should lower it.  :data:`SRC_BUDGET` holds all of ``src/repro`` to
the same rule, so lines moved out of the harness (ROADMAP items 3(d),
3(e)) still count somewhere.
"""

import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PATHS = ("src/repro/harness", "src/repro/cli.py")

#: 4931 before the sweep spine (PR 14); 4728 before the PR 8 benchmark
#: tracker and its subcommand went (PR 15); 4478 before the chaos ring's
#: second resume path, ``batch.py``, ``utilization.py`` and the
#: warm-start fault sweeps went (PR 16); 4051 before ``chaos_sweep``,
#: ``service_sweep`` and ``collective_fault_sweep``, wrappers only tests
#: called, went (PR 18); 4024 before ``format_histogram``,
#: ``run_fault_point(retry_policy=)``, two unused ``ExperimentResult``
#: properties and the hand-split comma lists in ``cli.py`` went (PR 19);
#: 3991 before PR 20 raised it by the ten lines of ``cli._at_least``, the
#: positive / non-negative integer ``type=`` every count and cycle flag
#: now takes (``--measure 0`` was a ZeroDivisionError traceback); 4001
#: before PR 21: ``parallel.py`` (897) became spec / cache / pool / runner
#: (122 + 98 + 196 + 473 = 889) around one per-trial record, ``journal.py``
#: lost 27 (the torn-tail trimmer moved to ``telemetry/stream.py``, where
#: ``SRC_BUDGET`` still counts it; ``RunJournal(fsync=)`` went), four
#: import headers cost 4 and the float ``type=`` helpers in ``cli.py`` 4.
BUDGET = 3974

#: 13880 before PR 16, the first PR to ratchet it; 13458 before the two
#: equivalence provers became loops over one table of workload families
#: (``verify/families.py``) and the ``verify`` sweep wrappers went (PR 18);
#: 13376 before the caller census reached the code outside the harness:
#: ``sim/trace.py`` folded into the telemetry hub, ``telemetry/profiler.py``,
#: ``network/dot.py``, two traffic generators and two retry policies went
#: (PR 19); 12864 before PR 20 spent 17 lines (10 of them ``cli._at_least``)
#: on making an idle visit cost one test in ``Channel.advance``,
#: ``MetroRouter.tick`` and ``Endpoint.tick``: a liveness summary, an
#: owned-port count, a receive-slot cache, their snapshot handling and
#: two seeded mutations, less ``_Pipe.advance`` / ``occupancy``,
#: ``Channel._ev_rec``, the side flag of ``attached_channels`` and
#: ``Endpoint._maybe_generate``; 12881 before PR 21, where the harness
#: split's savings (six containers, the 12-parameter call sites, three
#: lazy imports, ``run_trials``' copied option list, ``RunJournal(fsync=)``)
#: paid for three module headers, the re-export block, the stream's
#: torn-tail call with its logger, the float ``type=`` helpers and the
#: pool's lock-and-pipe replies, with three lines to spare.
SRC_BUDGET = 12878


def _code_lines():
    spec = importlib.util.spec_from_file_location(
        "code_lines", os.path.join(ROOT, "tools", "code_lines.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _assert_within(paths, budget, name):
    rows = _code_lines().count_paths([os.path.join(ROOT, p) for p in paths])
    total = sum(count for _path, count in rows)
    assert total <= budget, (
        "{} code lines in {}, budget {}: run `python tools/code_lines.py {}` "
        "for the per-file counts, then remove code or raise {} in "
        "tests/test_code_budget.py on purpose".format(
            total, " + ".join(paths), budget, " ".join(paths), name
        )
    )


def test_harness_and_cli_stay_within_the_code_budget():
    _assert_within(PATHS, BUDGET, "BUDGET")


def test_src_repro_stays_within_the_code_budget():
    _assert_within(("src/repro",), SRC_BUDGET, "SRC_BUDGET")


def test_code_lines_skips_blanks_comments_and_docstrings():
    source = "\n".join([
        "'''Module docstring.'''",
        "",
        "# a comment",
        "def f(x):",
        "    '''Docstring",
        "    over two lines.'''",
        "    y = (x +  # trailing comment",
        "         1)",
        "    return '''a string",
        "    that is code'''",
    ])
    assert _code_lines().count_code_lines(source) == 5
