"""The sweep table: every row names flags the parser has, and the proofs
run the rows' own runners."""

import json
import os

from repro.harness.spec import resolve
from repro.harness.sweeps import SWEEPS
from repro.verify.families import FAMILIES, PointFamily

OPTIONS_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "fixtures", "cli_options.json",
)


def test_rows_read_flags_the_parser_has_and_proofs_run_the_rows_runners():
    with open(OPTIONS_PATH) as handle:
        options = json.load(handle)
    for kind, row in SWEEPS.items():
        for dest in (*row.flags.values(), *row.gate_flags.values()):
            assert dest in options[row.command], (kind, dest)
    families = [f for f in FAMILIES.values() if isinstance(f, PointFamily)]
    assert families
    for family in families:
        row = SWEEPS[family.sweep]
        assert family.runner is resolve(row.runner), family.kind
