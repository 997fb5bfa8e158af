"""The 16-state TAP FSM and register plumbing."""

import pytest

from repro.scan import tap as T

from tests.mutants import seeded


def test_reset_from_any_state_with_five_ones():
    controller = T.TapController()
    # Wander somewhere deep.
    for tms in (0, 1, 0, 0):
        controller.step(tms)
    assert controller.state == T.SHIFT_DR
    for _ in range(5):
        controller.step(1)
    assert controller.state == T.TEST_LOGIC_RESET


def test_reset_selects_idcode():
    controller = T.TapController(idcode=0xDEADBEEF)
    controller.step(1)
    assert controller.instruction == T.IDCODE


def test_full_state_walk_dr_branch():
    controller = T.TapController()
    expected = [
        (0, T.RUN_TEST_IDLE),
        (1, T.SELECT_DR_SCAN),
        (0, T.CAPTURE_DR),
        (0, T.SHIFT_DR),
        (0, T.SHIFT_DR),
        (1, T.EXIT1_DR),
        (0, T.PAUSE_DR),
        (0, T.PAUSE_DR),
        (1, T.EXIT2_DR),
        (0, T.SHIFT_DR),
        (1, T.EXIT1_DR),
        (1, T.UPDATE_DR),
        (0, T.RUN_TEST_IDLE),
    ]
    for tms, state in expected:
        controller.step(tms)
        assert controller.state == state


def test_full_state_walk_ir_branch():
    controller = T.TapController()
    expected = [
        (0, T.RUN_TEST_IDLE),
        (1, T.SELECT_DR_SCAN),
        (1, T.SELECT_IR_SCAN),
        (0, T.CAPTURE_IR),
        (0, T.SHIFT_IR),
        (1, T.EXIT1_IR),
        (0, T.PAUSE_IR),
        (1, T.EXIT2_IR),
        (1, T.UPDATE_IR),
        (1, T.SELECT_DR_SCAN),
        (1, T.SELECT_IR_SCAN),
        (1, T.TEST_LOGIC_RESET),
    ]
    for tms, state in expected:
        controller.step(tms)
        assert controller.state == state


def _shift_ir(controller, opcode):
    controller.step(0)  # idle
    controller.step(1)
    controller.step(1)
    controller.step(0)  # -> capture-ir
    controller.step(0)  # capture edge -> shift-ir
    for index in range(T.IR_WIDTH):
        last = index == T.IR_WIDTH - 1
        controller.step(1 if last else 0, (opcode >> index) & 1)
    controller.step(1)  # update-ir
    controller.step(0)  # idle


def _shift_dr(controller, bits):
    controller.step(1)
    controller.step(0)
    controller.step(0)
    out = []
    for index, bit in enumerate(bits):
        last = index == len(bits) - 1
        out.append(controller.step(1 if last else 0, bit))
    controller.step(1)
    controller.step(0)
    return out


def test_idcode_reads_back():
    controller = T.TapController(idcode=0xCAFEF00D)
    controller.step(0)  # leave reset: IDCODE selected
    bits = _shift_dr(controller, [0] * 32)
    value = sum((1 if b else 0) << i for i, b in enumerate(bits))
    assert value == 0xCAFEF00D


def test_bypass_is_single_bit():
    controller = T.TapController()
    _shift_ir(controller, T.BYPASS)
    out = _shift_dr(controller, [1, 0, 1, 1, 0])
    # One-bit register: input re-emerges delayed by exactly one shift.
    assert out[1:] == [1, 0, 1, 1]


def test_unknown_instruction_falls_back_to_bypass():
    controller = T.TapController()
    _shift_ir(controller, 0b0110)  # not implemented
    assert controller.instruction == T.BYPASS


def test_the_fallback_test_catches_an_unknown_opcode_latched():
    """Seeded TAP bug (``docs/testing.md``, the mutation table)."""
    with seeded("tap-latches-unknown-opcode"):
        with pytest.raises(AssertionError):
            test_unknown_instruction_falls_back_to_bypass()


def test_data_register_capture_and_update():
    seen = {}
    reg = T.DataRegister(
        4,
        capture=lambda: [1, 0, 1, 0],
        update=lambda bits: seen.__setitem__("bits", bits),
    )
    controller = T.TapController(registers={T.SAMPLE: reg})
    _shift_ir(controller, T.SAMPLE)
    out = _shift_dr(controller, [1, 1, 1, 1])
    assert out == [1, 0, 1, 0]  # captured value emerges LSB-first
    assert seen["bits"] == [1, 1, 1, 1]  # shifted-in value applied


def test_capture_width_mismatch_rejected():
    reg = T.DataRegister(4, capture=lambda: [1])
    with pytest.raises(ValueError):
        reg.capture()
