"""The proof rows cannot drift from the sweeps' point runners.

A :class:`~repro.verify.families.PointFamily` row starts and finishes
through its runner's own halves on drawn parameters; here its finished
result is held, by content hash, to the result of calling the runner
itself on those parameters, the trial a sweep would run.
"""

import pytest

from repro.verify.families import FAMILIES, PointFamily

POINT_KINDS = [
    kind for kind, row in FAMILIES.items() if isinstance(row, PointFamily)
]


def test_every_sweep_backed_row_is_a_point_family():
    assert POINT_KINDS == [
        "traffic", "faults", "collective", "service", "figure3",
    ]


@pytest.mark.parametrize("kind", POINT_KINDS)
def test_a_row_finishes_on_the_result_of_its_runner(kind):
    row = FAMILIES[kind]
    for seed in range(3):
        _network, _riders, result = row.finish(row.start(seed, "reference"))
        direct = row.runner(**row.params(seed, "reference"))
        assert result.content_hash() == direct.content_hash(), (kind, seed)
