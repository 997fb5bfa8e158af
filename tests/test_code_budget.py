"""Code budget: neither lines nor keywords may quietly grow back.

The north star scores a PR by code and settable things removed without
changing a byte of output (PRs 14-22; the harness/CLI cut was the old
ROADMAP item 3, pruned as done at the PR 20 re-anchor).  Two ratchets:

* Lines.  The count of lines that hold code (``tools/code_lines.py``:
  not blank, not comment, not docstring) in ``repro.harness`` +
  ``cli.py`` + ``repro.verify`` must stay at or under :data:`BUDGET`,
  and all of
  ``src/repro`` under :data:`SRC_BUDGET`, so lines moved out of the
  harness still count somewhere.  A PR that needs more raises the
  number here, deliberately, in its diff; a PR that removes code
  should lower it.
* Keywords.  Every defaulted parameter under ``src/repro`` must be set
  by a call in ``src/repro``, ``bench/``, ``benchmarks/`` or
  ``examples/`` (``tools/knob_census.py``), or be named in
  :data:`KEPT_KEYWORDS` with the reason it stays (DESIGN.md, "Kept on
  purpose", has the rule and the same table in prose).
* Names.  Every top-level public function and class under
  ``src/repro`` must be reached from there, ``bench/``,
  ``benchmarks/``, ``examples/`` or a CI workflow
  (``tools/knob_census.py --callers``), or be named in
  :data:`KEPT_NAMES` with the reason it stays.
* Environment.  ``src/repro`` reads no environment variable but the
  deployment settings in :data:`ENVIRONMENT`.
"""

import ast
import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PATHS = ("src/repro/harness", "src/repro/cli.py", "src/repro/verify")

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
#: 3767 before four lines in ``cli.py`` made a ``verify --replay`` file
#: that cannot be loaded a usage error (it was a traceback with exit 1,
#: the code of a replay that found violations).  3771 before the run
#: journal committed once per supervision pass instead of once per
#: record: ``RunJournal.sync`` and the close that calls it (+5), the
#: runner's ``_sync`` with its three commit points and the ``finally``
#: that holds the last, re-wrapped lines included (+11), and the
#: ``--journal`` help text that states the new contract (+2).
#: 3788 for ``harness/`` + ``cli.py`` alone before the proof rows of
#: ``verify/families.py`` became seeded draws of the sweeps' own point
#: runners.  That moved code from ``verify/`` into ``harness/``
#: (each runner split into a start and a finish half, the shared
#: window drive with its conservation gate: ``harness/`` + ``cli.py``
#: 3788 -> 3846, ``verify/`` 1325 -> 1266), so ``verify/`` joined the
#: counted paths: 5113 for the three before, 5112 after.  5112 before
#: the Oracle stopped sweeping every channel each cycle: it compares
#: ``Channel.collisions`` with the total of its last sweep and sweeps
#: only when it moved, and a restored Oracle sweeps on its first tick
#: (+5, less the ``operator.attrgetter`` the rare sweep no longer
#: needs), and the rules of an owned backward port read the BCB slot
#: without a ``recv_bcb()`` call and look for a tracked owner in its
#: own forward port's slot before scanning the router's lists (+7).
#: 5122 before the package dropped numpy: ``ExperimentResult`` holds
#: plain lists and takes its percentile from ``repro/stats.py``, and
#: ``load_sweep.unloaded_latency`` went, its callers reading
#: ``measure_breakdown(...).total`` (the same single-message loop).
#: 5099 before the chaosmonkey moved to ``tests/chaosmonkey.py`` (83, a
#: move out of the package, not a reduction) and ``execute_trial`` lost
#: its environment hook (-3) and the Oracle its refusal of the
#: identity-keyed layout (-6).
#: 5007 before every sweep kind became one row of
#: ``harness/sweeps.py::SWEEPS`` (+402): the nine spec builders' bodies
#: became ``sweep_specs`` over a row, the seven ``_sweep_command`` call
#: sites became one handler reading the row (``cli.py`` 1131 -> 799),
#: ``find_saturation`` became ``saturation_search`` over the row's specs,
#: the proofs' ``PointFamily`` rows take their runner and halves from
#: the table, and ``RunJournal`` and ``load_journal_state`` share one
#: validate-and-replay helper (the sweep modules, ``journal.py`` and
#: ``verify/`` -192 together).
BUDGET = 4885

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
#: 12684 before the fault manager lost its private wire test and its
#: board-chain scan fabric: a wire is tested and masked by
#: ``faults/diagnosis.py::port_isolation_test`` alone (and a TAP shift
#: became an append and a pop).
#: 12635 before ``core/mutation.py`` and the guards that read it in the
#: router, allocator, channel, events engine and collective observer
#: went (118 lines; the seeded bugs became source edits in
#: ``tests/mutants.py``), less the four of ``verify --replay``'s usage
#: error.  12521 before an idle router or endpoint became one comparison
#: (the router's park test ``_quiet`` and both components' cached receive
#: pipes with an all-``None`` template, their snapshot handling and the
#: endpoint's idle test) cost 15 lines net, after the router's and the
#: endpoint's ``activity_state`` became a read of that test and
#: ``on_park``, a no-op on both, left the activity protocol.  12536
#: before the events engine became the dense sweep minus silent wires,
#: plus idle-gap compression: its park/wake scheduler, the activity
#: protocol on routers and endpoints, ``Engine.wake`` with its 13
#: callers, the channel's staging hook and the endpoint's ``fast_poll``
#: (inlined into its tick) went (226 lines).  12310 before the null
#: telemetry object moved beside ``Component`` and ``repro.sim`` stopped
#: re-exporting the snapshot names (the seven-name import and its
#: ``__all__`` rows went; ``telemetry/nullobj.py`` keeps one function).
#: 12293 before a word crossing a router, a wire and an endpoint cost one
#: visit per layer: ``_handle_forward``, ``pipe_push`` and
#: ``_emit_backward`` folded into the router's tick loop and its four
#: other pipe shifts, the BCB gate's derived pipes and template (with
#: ``_silence``, which lets template rows of one length share a list, so
#: the gate costs no resident memory), the channel's staged-or-occupied
#: branch and the endpoint's send-start reorder, gated BCB read and
#: gated ``_generate`` call (+15 net).  12308 before an endpoint at
#: rest skipped its Bernoulli source's calls: the three sources share a
#: draw-ahead base (``gap``, ``skip``, a ``__setstate__`` default for
#: older snapshots; their three copies of the per-call draw went) and
#: the endpoint's tick records and ends a rest, while the router's
#: shared-bus clause left ``next_event_cycle`` (+18 net).  12326 before
#: the journal's per-pass commit (+18, all in :data:`BUDGET`'s files).
#: 12344 before the proof rows' own networks, traffic mixes,
#: injectors and workloads went from ``verify/families.py``, and with
#: them ``run_collective`` and ``run_service``, wrappers only tests
#: called once the point runners drive the finish halves directly;
#: the runners' start / finish halves, the shared window drive and its
#: conservation gate were added.  12332 before the observers stopped
#: sweeping every wire: the process-wide collision total the Oracle
#: compares and its owned-port reads (+10 in ``verify/``, see
#: :data:`BUDGET`), a wire that counts
#: its own words into its link group's counters with the typed refusal
#: of a snapshot whose channels still hold the hub (+12), the stream's
#: once-derived series sort keys (+6), less the hub's and the null
#: object's ``channel_activity`` and the hub's occupancy loop (-11).
#: 12349 before ``src/repro`` came to depend only on the standard
#: library: the route analysis walks the wire list instead of building
#: networkx graphs (97 -> 78), the linter's own reachability search
#: went (validate.py 132 -> 113: it asks ``isolated_pairs_after_loss``
#: with the disabled wires), the two percentile conventions live
#: once each in ``repro/stats.py`` (+16) and the lines counted in
#: :data:`BUDGET` went (-23).  12293 before idle-gap compression went:
#: ``EventEngine.run`` with its clock jump and ``_next_event``, and the
#: nine ``next_*_cycle`` hints of routers, endpoints, the stream, the
#: watchdog, the fault injector, transient faults and the collective's
#: and service's sources and observer (-93).  12200 before the snapshot
#: version became the only compatibility rule (v1 -> v2) and the test
#: hooks left the package: 134 lines, of which 83 are a move, not a
#: reduction (``harness/chaosmonkey.py`` became ``tests/chaosmonkey.py``,
#: armed by patching ``execute_trial`` instead of by environment
#: variable).  The other 51 are deletions: the layout refusals of
#: ``Channel`` and ``Oracle`` and the "pickled before" defaults of
#: ``Endpoint`` and ``_BernoulliSource`` (-17), ``telemetry/nullobj.py``
#: and the null object's reduce (-4), ``_transmute``'s attribute copy and
#: ``_CORE_ATTRS`` (-16, a class swap now), ``execute_trial``'s hook (-3)
#: and ``SeedStream``, which nothing outside tests reached (-11).
#: ``tests/`` went from 12988 to 13223 code lines: the 85 of the moved
#: injector, the environment and caller censuses with ``KEPT_NAMES``, and
#: the launcher the golden CLI cases arm the injector through.
#: 12066 before the sweep table (see :data:`BUDGET`; nothing moved out of
#: its files).  11944 before nothing the engine ticks or hooks held its
#: network (+9): ``sim.component.BackReference`` and the ``network``
#: properties of the fault injector and the fault manager over it (+13),
#: the scan registers' weak router proxies (+3), the leaves the hub,
#: stream and watchdog read in place of a ``network`` (-2), less
#: ``MetroRouter.busy_backward_count``, whose only caller was the hub's
#: sampler (-3), and the differential sweep's gate and artifacts hook
#: moving from ``cli._cmd_verify`` into its sweep row (-2).
#: 11953 before one scan host: ``scan/controller.py`` went and
#: ``ScanChain`` drives a lone router as a chain of one, every
#: operation one walk (``ScanChain._scan``); the Table 2 edits the
#: controller and ``NetworkScanFabric`` each spelled out became four
#: mutate functions, and the register bits pack through ``_int_bits`` /
#: ``_bits_int`` (``scan/`` 576 -> 434).
SRC_BUDGET = 11811

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


#: Every environment variable ``src/repro`` reads, each a deployment
#: setting: the trial cache's code fingerprint pin (``docs/parallel.md``)
#: and the watchdog's heartbeat file (``docs/observability.md``).  A
#: switch a test arms belongs beside the tests (``tests/chaosmonkey.py``
#: patches ``execute_trial`` instead of reading a variable).
ENVIRONMENT = {"REPRO_CODE_VERSION", "REPRO_HEARTBEAT_FILE"}


def _environment_reads(paths):
    """``{variable: [path:line, ...]}`` for every ``os.environ.get(K)``,
    ``os.environ[K]`` load and ``os.getenv(K)`` under ``paths``.

    ``K`` is a string literal or a module-level name bound to one
    anywhere under ``paths``; anything else is reported by its source.
    """
    trees = {}
    for path in _code_lines().python_files(paths):
        with open(path, encoding="utf-8") as handle:
            trees[path] = ast.parse(handle.read(), filename=path)
    constants = {
        target.id: node.value.value
        for tree in trees.values() for node in tree.body
        if isinstance(node, ast.Assign)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
        for target in node.targets if isinstance(target, ast.Name)
    }

    def spelled(node, dotted):
        return ast.unparse(node) == dotted

    reads = {}
    for path, tree in trees.items():
        for node in ast.walk(tree):
            key = None
            if isinstance(node, ast.Call) and node.args and (
                spelled(node.func, "os.environ.get")
                or spelled(node.func, "os.getenv")
            ):
                key = node.args[0]
            elif (isinstance(node, ast.Subscript)
                    and isinstance(node.ctx, ast.Load)
                    and spelled(node.value, "os.environ")):
                key = node.slice
            if key is None:
                continue
            if isinstance(key, ast.Constant):
                name = key.value
            else:
                name = constants.get(getattr(key, "id", None), ast.unparse(key))
            reads.setdefault(name, []).append("{}:{}".format(
                os.path.relpath(path, ROOT), node.lineno))
    return reads


def test_src_repro_reads_only_deployment_settings_from_the_environment():
    reads = _environment_reads([os.path.join(ROOT, "src", "repro")])
    assert set(reads) == ENVIRONMENT, (
        "src/repro reads {}; a variable outside ENVIRONMENT is a switch "
        "no deployment documents (a test hook belongs in tests/)".format(
            {name: where for name, where in sorted(reads.items())
             if name not in ENVIRONMENT} or sorted(reads))
    )


#: ``{name: why it stays}`` for every top-level public function and class
#: of ``src/repro`` that ``tools/knob_census.py --callers`` finds nothing
#: outside ``tests/`` reaching.  The rule is the keyword rule's, one level
#: up: a mechanism the paper describes, a reference other code is held
#: to, or an entry point of the library's own API; anything else goes.
KEPT_NAMES = {
    "CorruptLink":
        "section 3: the noisy wire the per-router and end-to-end checksums "
        "catch",
    "DisabledPort":
        "Table 2: the port-enable configuration bits as a fault-masking "
        "action",
    "plan_radices":
        "Tables 3 and 4 for a concrete plan: how a simulated network's "
        "stages enter the analytical model",
    "bandwidth_per_port":
        "Table 3: a part's channel rate, w x c bits per clock",
    "saturation_messages_per_us":
        "Table 3's network column: the model for any stage structure",
    "crossover_message_bytes":
        "Table 3's network column: the model for any stage structure",
    "rn1": "section 6.1: RN1, the predecessor part the paper compares against",
    "CascadedNetwork":
        "section 5.1 width cascading at network scale: c lockstep slice "
        "networks behind one wide send",
    "multibutterfly_plan":
        "section 2: the Figure 1 / Figure 3 construction for any "
        "power-of-two size",
    "attach_cascade_oracle":
        "section 5.1: the Oracle's cascade IN-USE agreement rule for the "
        "CascadeGroup that examples/width_cascading.py builds",
    "validate_network":
        "a reference: tests/test_random_plans.py holds every plan the "
        "wirer accepts to this linter",
    "load_journal_state":
        "library API (repro.harness): reads a journal without opening it; "
        "RunJournal opens to append and trims a torn tail another process "
        "may still be writing",
    "restore_engine":
        "library API: the restore half of Engine.snapshot(), which "
        "restore_network's error names for a bare-engine snapshot",
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


def test_every_public_name_is_reached_or_kept_for_a_reason():
    knob_census = _tool("knob_census")
    rows = knob_census.callers_census(
        [os.path.join(ROOT, "src", "repro")],
        production=[os.path.join(ROOT, d) for d in knob_census.PRODUCTION],
        texts=[os.path.join(ROOT, knob_census.WORKFLOWS)],
    )
    surplus = sorted(
        "{}:{} {}".format(os.path.relpath(row.path, ROOT), row.line, row.name)
        for row in rows if row.name not in KEPT_NAMES
    )
    assert not surplus, (
        "nothing outside tests/ reaches these; give each a caller, delete "
        "it with its tests, or add it to KEPT_NAMES with its reason:\n"
        + "\n".join(surplus)
    )
    stale = sorted(set(KEPT_NAMES) - {row.name for row in rows})
    assert not stale, "KEPT_NAMES entries now reached, or gone: {}".format(stale)


def test_caller_census_on_a_synthetic_tree(tmp_path):
    """One public name per way it can (fail to) be reached."""
    files = {
        "pkg/__init__.py": """
            from pkg.lib import exported_only
            __all__ = ["exported_only"]
            """,
        "pkg/lib.py": """
            def called(): pass
            def by_attribute(): pass
            def by_runner_string(): pass
            def in_workflow(): pass
            def exported_only(): pass
            def recursive(n): return recursive(n - 1)
            class Selfish:
                def copy(self): return Selfish()
            def _private(): pass
            def test_only(): pass
            def uses(): return called()
            """,
        "app/main.py": """
            import pkg.lib as lib
            lib.by_attribute()
            SPEC = "pkg.lib:by_runner_string"
            """,
        "flows/ci.yml": "run: python -c 'from pkg.lib import in_workflow'\n",
        "checks/test_lib.py": """
            from pkg.lib import test_only
            test_only()
            """,
    }
    for name, source in files.items():
        path = tmp_path / name
        path.parent.mkdir(exist_ok=True)
        path.write_text("\n".join(line[12:] for line in source.splitlines()))
    rows = _tool("knob_census").callers_census(
        [str(tmp_path / "pkg")],
        production=[str(tmp_path / "app")],
        texts=[str(tmp_path / "flows")],
    )
    # ``uses`` calls ``called``, so ``called`` is reached; nothing
    # reaches ``uses`` itself.
    assert {row.name for row in rows} == {
        "Selfish", "exported_only", "recursive", "test_only", "uses",
    }
