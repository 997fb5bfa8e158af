"""Smaller behaviours and error paths across modules."""

import pytest

from repro.core import words as W


class TestFaultModelErrors:
    def test_dead_link_needs_identification(self):
        from repro.faults.model import CorruptLink, DeadLink

        with pytest.raises(TypeError):
            DeadLink()
        with pytest.raises(TypeError):
            CorruptLink()

    def test_base_fault_abstract(self):
        from repro.faults.model import Fault

        with pytest.raises(NotImplementedError):
            Fault().apply(None)
        with pytest.raises(NotImplementedError):
            Fault().revert(None)

    def test_describe_strings(self):
        from repro.faults.model import DeadRouter, DisabledPort

        assert "r1.2.3" in DeadRouter(1, 2, 3).describe()
        assert "port 5" in DisabledPort(0, 0, 0, 5).describe()


class TestWormholeErrors:
    def test_dilation_must_divide(self):
        from repro.baseline.wormhole import WormholeRouter

        with pytest.raises(ValueError):
            WormholeRouter(i=4, o=4, dilation=3)

    def test_flit_repr(self):
        from repro.baseline.wormhole import Flit, HEAD

        assert "head" in repr(Flit(HEAD, 3))

    def test_packet_latency_none_until_done(self):
        from repro.baseline.wormhole import Packet

        packet = Packet((0, 0), 3, [1])
        assert packet.latency is None
        assert packet.total_latency is None


class TestCascadedNetworkMisc:
    def test_width_one_allowed(self):
        from repro.network.cascaded import CascadedNetwork
        from repro.network.topology import figure1_plan

        network = CascadedNetwork(figure1_plan(), c=1, seed=2)
        assert network.wide_width == 4
        wide = network.send_wide(0, 5, [0xF])
        assert network.run_until_quiet(max_cycles=5000)
        assert wide.outcome == "delivered"

    def test_width_zero_rejected(self):
        from repro.network.cascaded import CascadedNetwork
        from repro.network.topology import figure1_plan

        with pytest.raises(ValueError):
            CascadedNetwork(figure1_plan(), c=0)

    def test_wide_message_latency_none_in_flight(self):
        from repro.network.cascaded import CascadedNetwork
        from repro.network.topology import figure1_plan

        network = CascadedNetwork(figure1_plan(), c=2, seed=3)
        wide = network.send_wide(0, 5, [0x11])
        assert wide.outcome is None
        assert wide.latency is None
        network.run_until_quiet(max_cycles=5000)
        assert wide.latency is not None


class TestScanControllerMisc:
    """One router's scan host: a :class:`ScanChain` of one."""

    def test_write_config_bits_roundtrip(self):
        from repro.core.parameters import METROJR
        from repro.core.router import MetroRouter
        from repro.scan import registers as R
        from repro.scan.chain import ScanChain

        router = MetroRouter(METROJR, name="w")
        scan = ScanChain([router])
        bits = R.encode_config(router.config)
        bits[0] = 0  # disable forward port 0
        scan.write_config(0, bits)
        assert not router.config.port_enabled[0]

    def test_sample_boundary_on_live_network_port(self):
        from repro.endpoint.messages import Message
        from repro.network.builder import build_network
        from repro.network.topology import figure1_plan
        from repro.scan.chain import ScanChain

        network = build_network(figure1_plan(), seed=5)
        network.send(0, Message(dest=9, payload=[0xB]))
        network.run(3)  # header in flight somewhere in stage 0
        saw = []
        for router in network.routers[0]:
            saw.extend(ScanChain([router]).sample_boundary(0))
        assert any(value != 0 for value in saw)


class TestComponentBase:
    def test_tick_abstract(self):
        from repro.sim.component import Component

        with pytest.raises(NotImplementedError):
            Component().tick(0)

    def test_repr(self):
        from repro.sim.component import Component

        class Thing(Component):
            name = "thing"

            def tick(self, cycle):
                pass

        assert "thing" in repr(Thing())


class TestChannelEndMisc:
    def test_invalid_side_rejected(self):
        from repro.sim.channel import Channel, ChannelEnd

        with pytest.raises(ValueError):
            ChannelEnd(Channel(), "c")

    def test_delay_property(self):
        from repro.sim.channel import Channel

        assert Channel(delay=3).a.delay == 3

    def test_repr(self):
        from repro.sim.channel import Channel

        channel = Channel(name="x")
        assert "x.a" in repr(channel.a)


class TestWordHelpers:
    def test_status_repr(self):
        status = W.status(False, 0xAB, 7, "r0")
        assert "r0" in repr(status.value)

    def test_word_repr(self):
        assert "0xa" in repr(W.data(0xA))
        assert "turn" in repr(W.TURN_WORD)
