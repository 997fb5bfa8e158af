"""Code budget: neither lines nor keywords may quietly grow back.

The north star scores a PR by code and settable things removed without
changing a byte of output (PRs 14-22; the harness/CLI cut was the old
ROADMAP item 3, pruned as done at the PR 20 re-anchor).  Two ratchets:

* Lines.  The count of lines that hold code (``tools/code_lines.py``:
  not blank, not comment, not docstring) in ``repro.harness`` +
  ``cli.py`` must stay at or under :data:`BUDGET`, and all of
  ``src/repro`` under :data:`SRC_BUDGET`, so lines moved out of the
  harness still count somewhere.  A PR that needs more raises the
  number here, deliberately, in its diff; a PR that removes code
  should lower it.
* Keywords.  Every defaulted parameter under ``src/repro`` must be set
  by a call in ``src/repro``, ``bench/``, ``benchmarks/`` or
  ``examples/`` (``tools/knob_census.py``), or be named in
  :data:`KEPT_KEYWORDS` with the reason it stays (DESIGN.md, "Kept on
  purpose", has the rule and the same table in prose).
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
#: 3974 before PR 22's keyword census took eleven more than the
#: ``--service-time`` / ``--servers`` checks in ``cli.py`` cost.
#: 3963 before PR 23.  Of the 193 gone from here, 145 are a move, not a
#: reduction: the run-log half of the ``tail`` renderers went from
#: ``cli.py`` to ``telemetry/stream.py``, where ``SRC_BUDGET`` still
#: counts them (the journal half moved inside this budget, to
#: ``harness/journal.py``).  The other 48 are deletions: ``--resume``,
#: ``resume_from=``, ``TrialRunner.resume``, ``resume_sweep``,
#: ``read_journal``, the second cache lookup and the journal's copy of
#: the validation loop, less the two output-path ``type=`` helpers.
#: 3770 before PR 24: the pool's shared reply pipe, its lock, the reply
#: tags and ``_Trial.inflight`` went (``pool.py`` 196 -> 192,
#: ``parallel.py`` 478 -> 472), and ``cli.py`` (1119 -> 1126) pays seven
#: lines for rejecting flags a command line cannot apply, after
#: ``_cmd_workloads`` took its spec-builder arguments and SLO bounds from
#: the same table that says which kind reads which flag.
BUDGET = 3767

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
#: 12878 before PR 22 made a constant of every defaulted parameter no
#: caller sets and deleted the branch its other value selected.
#: 12732 before PR 23 made "run the same command again" the one way to
#: continue a journaled sweep (see :data:`BUDGET`; a move inside
#: ``src/repro`` does not change this count, so all 45 are deletions).
#: 12687 before PR 24 (see :data:`BUDGET`; nothing moved).
SRC_BUDGET = 12684

_TABLE_1 = "Table 1 architectural parameter"
_SEAM = "fake-injection seam: "

#: ``{(function, keyword): why it stays}`` for every defaulted parameter
#: ``tools/knob_census.py`` finds no production call setting.  Rule (b):
#: a quantity of the paper's Tables 1, 2 or 4, or a mechanism the paper
#: describes (wider than ISSUE 22's "and an ablation varies": DESIGN.md,
#: "The keyword rule", says which three entries that lets through).
#: Rule (c): safety code, or a seam a test substitutes a fake through.
#: Anything else becomes a constant.
KEPT_KEYWORDS = {
    ("RouterParameters", "max_vtd"): _TABLE_1,
    ("RouterParameters", "ri"): _TABLE_1,
    ("design_point", "ri"): _TABLE_1,
    ("design_point", "sp"): _TABLE_1,
    ("fattree_plan", "router_ports"): _TABLE_1 + " (i = o)",
    ("fattree_plan", "down_dilation"): _TABLE_1 + " (d)",
    ("multibutterfly_plan", "router_ports"): _TABLE_1 + " (i = o)",
    ("fattree_plan", "n_endpoints"):
        "section 2: fat-trees of any size from METRO parts; the default "
        "is the one `send --network fattree` builds",
    ("fattree_plan", "up_stages"):
        "section 2: how far a connection climbs at radix 1; tests build "
        "the two-level tree",
    ("cascade_tradeoff_table", "t_clk"): "Table 4 circuit quantity",
    ("cascade_tradeoff_table", "t_io"): "Table 4 circuit quantity",
    ("saturation_messages_per_us", "stage_radices"):
        "Table 3's network column: the model for any stage structure",
    ("crossover_message_bytes", "stage_radices"):
        "Table 3's network column: the model for any stage structure",
    ("CascadedNetwork", "c"): "section 5.1 width cascading: the cascade c",
    ("NetworkScanFabric.set_fast_reclaim_policy", "detailed_stages"):
        "section 5.1 / Table 2: per-port fast or detailed reclamation, "
        "loaded by scan",
    ("CorruptLink", "probability"):
        "section 3: the noisy wire the per-router and end-to-end "
        "checksums catch; tests vary how noisy",
    ("CorruptLink", "mask"):
        "section 3: which bits the noisy wire flips; tests pick masks a "
        "checksum must and must not see",
    ("random_transient_scenario", "n_flaky_routers"):
        "section 5.1 dynamic faults: the only generator of FlakyRouter, "
        "the transient counterpart of DeadRouter (tests-only code since "
        "run_chaos_point lost the keyword; DESIGN.md lists it as such)",
    ("Endpoint", "backoff"):
        "section 4: the source-responsible retry discipline's wait; "
        "tests pin it to make retry timing exact",
    ("build_network", "signal_timeout"):
        "safety code: the router's dead-signal watchdog; "
        "tests/test_config_matrix.py runs the matrix with it off",
    ("TrialRunner", "trial_timeout"):
        "safety code: the only defence against a hung worker (DESIGN.md)",
    ("TrialRunner", "heartbeat_dir"):
        "safety code: where a hung worker's last heartbeat is read from",
    ("TrialBackoff", "jitter"):
        _SEAM + "tests turn the random wait off to assert on delays",
    ("progress_printer", "stream"):
        _SEAM + "tests capture progress lines instead of stderr",
    ("RunWatchdog", "heartbeat_path"):
        _SEAM + "a deployment path; REPRO_HEARTBEAT_FILE is the default",
}


def _tool(name):
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(ROOT, "tools", name + ".py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _code_lines():
    return _tool("code_lines")


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


def test_every_keyword_is_set_by_production_code_or_kept_for_a_reason():
    knob_census = _tool("knob_census")
    rows = knob_census.census(
        [os.path.join(ROOT, "src", "repro")],
        production=[os.path.join(ROOT, d) for d in knob_census.PRODUCTION],
        tests=[os.path.join(ROOT, d) for d in knob_census.TESTS],
    )
    unset = {
        (row.function, row.keyword): row
        for row in rows if row.status != "production"
    }
    surplus = sorted(
        "{}:{} {}({}=) is set by {}".format(
            os.path.relpath(row.path, ROOT), row.line, row.function,
            row.keyword, "tests only" if row.status == "tests-only" else "nobody",
        )
        for key, row in unset.items() if key not in KEPT_KEYWORDS
    )
    assert not surplus, (
        "make each a constant (and delete the branch its other value "
        "selected) or add it to KEPT_KEYWORDS with its reason:\n"
        + "\n".join(surplus)
    )
    stale = sorted(set(KEPT_KEYWORDS) - set(unset))
    assert not stale, "KEPT_KEYWORDS entries production now sets, or gone: {}".format(stale)


def test_knob_census_on_a_synthetic_tree(tmp_path):
    """One defaulted parameter per way a caller can (fail to) set it."""
    files = {
        "pkg/lib.py": """
            def by_keyword(x, knob_k=1): pass
            def by_position(x, knob_p=1): pass
            def forwarded(x, knob_f=1): pass
            def forwards(x, **kwargs): return forwarded(x, **kwargs)
            def through_dict(x, knob_d=1): pass
            def spec(params=None): return through_dict(0, **(params or {}))
            def aliased(x, knob_a=0, base=None): pass
            def passes_default(x, knob_s=1): pass
            def test_only(x, knob_t=1): pass
            def untouched(x, knob_u=1): pass
            class Thing:
                def __init__(self, size=1, colour="red"): pass
                def method(self, depth=0): pass
            class Sub(Thing):
                def __init__(self, size=1):
                    super().__init__(size=size)
            """,
        "app/main.py": """
            from pkg.lib import *
            by_keyword(0, knob_k=2)
            by_position(0, 2)
            forwards(0, knob_f=3)
            spec(params=dict(knob_d=4))
            def run(name):
                generator = {"a": aliased}[name]
                generator(0, knob_a=0, base=run)
            passes_default(0, knob_s=1)
            passes_default(0, 1)
            Sub(size=2).method(0)
            """,
        "checks/test_lib.py": """
            from pkg.lib import *
            test_only(0, knob_t=5)
            Thing(colour="blue")
            """,
    }
    for name, source in files.items():
        path = tmp_path / name
        path.parent.mkdir(exist_ok=True)
        path.write_text("\n".join(line[12:] for line in source.splitlines()))
    rows = _tool("knob_census").census(
        [str(tmp_path / "pkg")],
        production=[str(tmp_path / "app")],
        tests=[str(tmp_path / "checks")],
    )
    assert {(row.function, row.keyword): row.status for row in rows} == {
        ("by_keyword", "knob_k"): "production",
        ("by_position", "knob_p"): "production",
        # ``knob_f=3`` is not a parameter of ``forwards``: it may reach
        # anything, so it counts for every function with a ``knob_f``.
        ("forwarded", "knob_f"): "production",
        ("through_dict", "knob_d"): "production",
        ("spec", "params"): "production",
        # A local alias hides the callee; ``base=run`` counts for every
        # ``base``, ``knob_a=0`` restates the default and counts for none.
        ("aliased", "base"): "production",
        ("aliased", "knob_a"): "nobody",
        ("passes_default", "knob_s"): "nobody",
        ("test_only", "knob_t"): "tests-only",
        ("untouched", "knob_u"): "nobody",
        ("Thing", "size"): "production",  # Sub's super().__init__
        ("Thing", "colour"): "tests-only",
        ("Thing.method", "depth"): "nobody",  # 0 is its default
        ("Sub", "size"): "production",
    }
    row = next(r for r in rows if r.function == "Thing.method")
    assert (os.path.basename(row.path), row.line) == ("lib.py", 14)
