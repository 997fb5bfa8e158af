"""Waveform capture and rendering."""

import pytest

from repro.core import words as W
from repro.sim.channel import Channel
from repro.sim.engine import Engine
from repro.sim.waveform import WaveformRecorder


def _recorded_session():
    engine = Engine()
    channel = Channel(delay=1, name="wire")
    engine.add_channel(channel)
    recorder = WaveformRecorder({"wire": channel})
    engine.add_component(recorder)
    script = [W.data(0xA), W.data(0xB), W.IDLE_WORD, W.TURN_WORD]
    for word in script:
        channel.a.send(word)
        engine.step()
    engine.step()
    # One reverse word.
    channel.b.send(W.DROP_WORD)
    engine.step()
    engine.step()
    return recorder


def test_lane_contents():
    recorder = _recorded_session()
    forward = recorder.lanes["wire >"]
    kinds = [getattr(w, "kind", None) for w in forward]
    assert "data" in kinds and "turn" in kinds and "idle" in kinds
    reverse = recorder.lanes["wire <"]
    assert any(getattr(w, "kind", None) == "drop" for w in reverse)


def test_ascii_diagram_glyphs():
    recorder = _recorded_session()
    text = recorder.ascii_diagram()
    lines = text.splitlines()
    assert lines[0].strip().startswith("cycle")
    forward_line = next(l for l in lines if "wire >" in l)
    assert "D" in forward_line
    assert "T" in forward_line
    assert "i" in forward_line
    reverse_line = next(l for l in lines if "wire <" in l)
    assert "X" in reverse_line
    assert "legend" not in text  # legend is glyph text, not the word
    assert "D=data" in text


def test_ascii_window():
    recorder = _recorded_session()
    text = recorder.ascii_diagram(end=2)
    forward_line = next(l for l in text.splitlines() if "wire >" in l)
    # Two cycles only -> exactly two glyph columns after the label.
    assert len(forward_line.split("  ")[-1]) == 2


def test_max_cycles_bounds_recording():
    engine = Engine()
    channel = Channel(name="wire")
    engine.add_channel(channel)
    recorder = WaveformRecorder({"wire": channel}, max_cycles=5)
    engine.add_component(recorder)
    engine.run(20)
    assert len(recorder.lanes["wire >"]) == 5


def test_vcd_structure():
    recorder = _recorded_session()
    vcd = recorder.to_vcd()
    assert "$timescale 1 ns $end" in vcd
    assert "$enddefinitions $end" in vcd
    assert "$var wire 8" in vcd
    assert "#0" in vcd
    # Data value 0x0A appears as its binary byte.
    assert "b{:08b}".format(0x0A) in vcd


def test_vcd_only_emits_changes():
    engine = Engine()
    channel = Channel(name="wire")
    engine.add_channel(channel)
    recorder = WaveformRecorder({"wire": channel})
    engine.add_component(recorder)
    engine.run(10)  # completely quiet
    vcd = recorder.to_vcd()
    # One initial 'z' per lane at #0 and nothing else.
    assert vcd.count("#") == 1
