"""Daisy-chained scan paths across multiple routers."""

import pytest

from repro.core.parameters import METROJR, RouterParameters
from repro.core.router import MetroRouter
from repro.scan import registers as R
from repro.scan.chain import ScanChain

from tests.mutants import seeded


def _routers(n=3, params=None):
    return [
        MetroRouter(params or METROJR, name="chained{}".format(index))
        for index in range(n)
    ]


def test_read_all_idcodes():
    routers = _routers(3)
    chain = ScanChain(routers)
    codes = chain.read_idcodes()
    assert codes == [R.make_idcode(r.params) for r in routers]


def test_mixed_geometry_idcodes_in_chain_order():
    small = MetroRouter(METROJR, name="small")
    big = MetroRouter(RouterParameters(i=8, o=8, w=8, max_d=2), name="big")
    chain = ScanChain([small, big])
    codes = chain.read_idcodes()
    assert codes[0] == R.make_idcode(small.params)
    assert codes[1] == R.make_idcode(big.params)
    assert codes[0] != codes[1]


def test_configure_one_router_leaves_others_alone():
    routers = _routers(4)
    chain = ScanChain(routers)
    chain.configure(2, lambda config: config.port_enabled.__setitem__(5, False))
    assert not routers[2].config.port_enabled[5]
    for index in (0, 1, 3):
        assert all(routers[index].config.port_enabled)


def test_configure_each_router_in_turn():
    routers = _routers(3)
    chain = ScanChain(routers)
    for index in range(3):
        chain.configure(
            index, lambda config: config.fast_reclaim.__setitem__(index, True)
        )
    for index, router in enumerate(routers):
        assert router.config.fast_reclaim[index]
        # Exactly one bit set per router.
        assert sum(router.config.fast_reclaim) == 1


def test_configure_dilation_through_chain():
    routers = _routers(2)
    chain = ScanChain(routers)

    def set_dilation(config):
        config.dilation = 1

    chain.configure(1, set_dilation)
    assert routers[1].config.dilation == 1
    assert routers[0].config.dilation == METROJR.max_d


def test_wrong_width_rejected():
    routers = _routers(2)
    chain = ScanChain(routers)
    before = [R.encode_config(router.config) for router in routers]
    with pytest.raises(ValueError):
        chain.write_config(1, [0, 1, 0])
    assert [R.encode_config(router.config) for router in routers] == before


def test_opcode_count_must_match():
    """Each scan loads one opcode per router on the chain; a slot past
    the end has no router to take the target's."""
    chain = ScanChain(_routers(2))
    with pytest.raises(IndexError):
        chain.configure(2, lambda config: None)


def test_empty_chain_rejected():
    with pytest.raises(ValueError):
        ScanChain([])


def test_long_chain_of_sixteen():
    routers = _routers(16)
    chain = ScanChain(routers)
    codes = chain.read_idcodes()
    assert len(codes) == 16
    assert len(set(codes)) == 1  # identical parts
    chain.configure(9, lambda config: config.swallow.__setitem__(0, True))
    assert routers[9].config.swallow[0]
    assert not routers[8].config.swallow[0]


def test_the_chain_tests_catch_an_image_padded_on_the_wrong_side():
    """Seeded scan-host bug (``docs/testing.md``): the target's image is
    padded on the wrong side, so each router in turn takes its write
    one bit off and the routers before it take stray bits."""
    with seeded("chain-pads-wrong-side"):
        with pytest.raises(AssertionError):
            test_configure_each_router_in_turn()
