"""Host-side scan control of one live router: a scan chain of one."""

import pytest

from repro.core import words as W
from repro.core.parameters import METROJR, RouterParameters
from repro.core.router import MetroRouter
from repro.scan import registers as R
from repro.scan.chain import (
    ScanChain,
    attach_scan,
    disable_port,
    enable_port,
    set_dilation,
    set_fast_reclaim,
)


def _router(params=None):
    return MetroRouter(params or METROJR, name="scanme")


def test_read_idcode():
    router = _router()
    chain = ScanChain([router])
    assert chain.read_idcodes() == [R.make_idcode(router.params)]


def test_read_config_is_nondestructive():
    router = _router()
    before = R.encode_config(router.config)
    chain = ScanChain([router])
    bits = chain.read_config_bits(0)
    assert bits == before
    assert R.encode_config(router.config) == before  # unchanged


def test_a_wrong_length_image_is_refused_and_changes_nothing():
    """A 3-bit image for a 54-bit chain is refused before any clock.
    Shifted in, it would move every bit three places and turn fast
    reclamation off on every forward port."""
    router = _router()
    chain = ScanChain([router])
    chain.configure(0, set_fast_reclaim(range(router.params.i), True))
    before = R.encode_config(router.config)
    assert len(before) == 54
    with pytest.raises(ValueError):
        chain.write_config(0, [0, 1, 0])
    assert R.encode_config(router.config) == before


def test_disable_and_enable_port_via_scan():
    router = _router()
    chain = ScanChain([router])
    port_id = router.config.backward_port_id(1)
    chain.configure(0, disable_port(port_id, drive=False))
    assert not router.config.port_enabled[port_id]
    chain.configure(0, enable_port(port_id))
    assert router.config.port_enabled[port_id]


def test_set_fast_reclaim_via_scan():
    router = _router()
    chain = ScanChain([router])
    port_id = router.config.forward_port_id(2)
    chain.configure(0, set_fast_reclaim([port_id], True))
    assert router.config.fast_reclaim[port_id]
    # Other options untouched.
    assert all(router.config.port_enabled)


def test_set_dilation_via_scan():
    router = _router()
    chain = ScanChain([router])
    chain.configure(0, set_dilation(1))
    assert router.config.dilation == 1
    chain.configure(0, set_dilation(2))
    assert router.config.dilation == 2


def test_sample_boundary_sees_port_traffic():
    router = _router()
    chain = ScanChain([router])
    router.boundary_capture[0] = W.data(0xB)
    words = chain.sample_boundary(0)
    assert words[0] == 0xB
    assert words[1] == 0


def test_extest_drives_disabled_port():
    """EXTEST through a disabled backward port pushes a test word out
    on the attached wire — the raw material of port-isolation tests."""
    from repro.sim.channel import Channel
    from repro.sim.engine import Engine

    router = _router()
    engine = Engine()
    engine.add_component(router)
    channel = Channel(name="under-test")
    engine.add_channel(channel)
    router.attach_backward(1, channel.a)
    chain = ScanChain([router])
    port_id = router.config.backward_port_id(1)
    chain.configure(0, disable_port(port_id, drive=True))
    chain.extest_drive(0, 1, 0x9)
    engine.step()  # router pushes the word; it crosses the 1-cycle wire
    assert channel.b.recv() == W.data(0x9)


def test_multitap_second_port_usable_after_first_dies():
    router = _router(RouterParameters(i=4, o=4, w=4, max_d=2, sp=2))
    attach_scan(router)
    first = ScanChain([router], port=0)
    assert first.read_idcodes() == [R.make_idcode(router.params)]
    router.multitap.kill_port(0)
    second = ScanChain([router], port=1)
    assert second.read_idcodes() == [R.make_idcode(router.params)]


def test_multitap_nonowner_is_ignored():
    router = _router(RouterParameters(i=4, o=4, w=4, max_d=2, sp=2))
    attach_scan(router)
    owner = ScanChain([router], port=0)
    owner.reset()
    router.multitap.step(0, 0)  # port 0 leaves reset: claims ownership
    assert router.multitap.owner == 0
    # Port 1 clocks do nothing while port 0 owns the chain.
    state_before = router.multitap.state()
    router.multitap.step(1, 1)
    assert router.multitap.state() == state_before


def test_multitap_reset_releases_ownership():
    router = _router(RouterParameters(i=4, o=4, w=4, max_d=2, sp=2))
    attach_scan(router)
    router.multitap.step(0, 0)  # claim
    assert router.multitap.owner == 0
    for _ in range(5):
        router.multitap.step(0, 1)  # TMS=1 returns to reset
    assert router.multitap.owner is None
