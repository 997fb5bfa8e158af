"""Table 3: every row must reproduce the paper's numbers exactly."""

import pytest

from repro.latency_model.implementations import (
    metrojr_orbit,
    table3_implementations,
)

from tests.mutants import seeded

IMPLS = table3_implementations()


def test_sixteen_rows():
    assert len(IMPLS) == 16


@pytest.mark.parametrize("impl", IMPLS, ids=[i.name + "/" + i.technology for i in IMPLS])
def test_t_stg_matches_paper(impl):
    assert impl.t_stg() == pytest.approx(impl.expected_t_stg)


@pytest.mark.parametrize("impl", IMPLS, ids=[i.name + "/" + i.technology for i in IMPLS])
def test_t_20_32_matches_paper(impl):
    assert impl.t_20_32() == pytest.approx(impl.expected_t_20_32)


def test_the_table_catches_a_stage_latency_without_its_pipeline_term():
    """Seeded model bug (``docs/testing.md``): ``t_stg`` drops its
    on-chip term ``t_clk * dp``, so every row's ``t_stg`` and
    ``t_20,32`` fall short of the paper's."""
    with seeded("latency-stage-drops-pipeline"):
        for impl in IMPLS:
            with pytest.raises(AssertionError):
                test_t_stg_matches_paper(impl)
            with pytest.raises(AssertionError):
                test_t_20_32_matches_paper(impl)


def test_orbit_prototype_headline_numbers():
    """Section 6.1: 40 MHz, 50 ns router-to-router, 25 ns nibble."""
    orbit = metrojr_orbit()
    assert orbit.t_clk == 25  # 40 MHz
    assert orbit.t_stg() == 50
    assert orbit.t_bit() * 4 == pytest.approx(25)  # 25 ns per nibble


def test_rows_ordered_fastest_last_within_technology():
    """Within each technology group the table progresses toward lower
    t_20,32 as width/cascading/pipelining are applied."""
    ga = [i.t_20_32() for i in IMPLS if i.technology.startswith("1.2")]
    assert ga[0] == max(ga)


def test_row_dict_shape():
    row = IMPLS[0].row()
    assert row["t_stg_ns"] == 50
    assert row["t_20_32_ns"] == pytest.approx(1250)
    assert row["stages"] == 4
    assert row["t_bit"] == "25 ns/4 b"


def test_cascading_never_hurts():
    """For every base row with a cascaded variant, the cascade is
    strictly faster despite its larger header."""
    by_name = {(i.name, i.technology): i for i in IMPLS}
    pairs = [
        (("METROJR-ORBIT", "1.2u Gate Array"),
         ("METROJR-ORBIT 2-cascade", "1.2u Gate Array")),
        (("METROJR-ORBIT 2-cascade", "1.2u Gate Array"),
         ("METROJR-ORBIT 4-cascade", "1.2u Gate Array")),
        (("METROJR", "0.8u Std. Cell"), ("METROJR 2-cascade", "0.8u Std. Cell")),
        (("METROJR hw=1", "0.8u Full Custom"),
         ("METROJR hw=1 2-cascade", "0.8u Full Custom")),
    ]
    for base_key, cascade_key in pairs:
        assert by_name[cascade_key].t_20_32() < by_name[base_key].t_20_32()


def test_setup_pipelining_tradeoff():
    """hw=1 cuts t_stg (8 vs 10 ns) relative to dp=2 at the same clock
    but pays in header bits; the paper's rows show the net win."""
    by_name = {(i.name, i.technology): i for i in IMPLS}
    dp2 = by_name[("METROJR dp=2", "0.8u Full Custom")]
    hw1 = by_name[("METROJR hw=1", "0.8u Full Custom")]
    assert hw1.t_stg() < dp2.t_stg()
    assert hw1.hbits() > dp2.hbits()
    assert hw1.t_20_32() < dp2.t_20_32()


class TestRN1Ancestor:
    """Section 6.1's RN1 context: one pipeline stage per routing stage,
    clock capped near 50 MHz."""

    def test_rn1_numbers(self):
        from repro.latency_model.implementations import rn1

        ancestor = rn1()
        assert ancestor.t_clk == 20  # ~50 MHz
        assert ancestor.t_stg() == 20  # single pipeline stage, no vtd
        # 2 stages x 20 ns + (160 + 8) bits x 2.5 ns/bit.
        assert ancestor.t_20_32() == pytest.approx(40 + 168 * 2.5)

    def test_metro_lesson_pipelined_interconnect_clocks_faster(self):
        """At the same 1.2u process, METROJR-ORBIT's separately
        pipelined interconnect buys a faster usable clock per bit of
        datapath than RN1's single-stage design would scale to; and
        METRO's full-custom rows leave RN1 far behind."""
        from repro.latency_model.implementations import rn1

        ancestor = rn1()
        full_custom = [
            i for i in IMPLS if i.technology == "0.8u Full Custom"
        ]
        assert min(i.t_20_32() for i in full_custom) < ancestor.t_20_32() / 4
