"""IEEE 1149.1-1990 Test Access Port controller.

METRO integrates "extensive scan support using an IEEE 1149-1.1990
compliant Test Access Port (TAP)" (paper, Section 5.1): boundary scan
plus fine-grained on-line facilities — and, crucially, the TAP is how
METRO's mostly-static configuration options (Table 2) are set.

This is a faithful software model of the standard 16-state TAP
controller: TMS sequences walk the state machine, TDI shifts into the
selected register (instruction or data), TDO shifts out, captures
happen in Capture-* states and side effects in Update-* states.
"""

# The sixteen controller states.
TEST_LOGIC_RESET = "test-logic-reset"
RUN_TEST_IDLE = "run-test-idle"
SELECT_DR_SCAN = "select-dr-scan"
CAPTURE_DR = "capture-dr"
SHIFT_DR = "shift-dr"
EXIT1_DR = "exit1-dr"
PAUSE_DR = "pause-dr"
EXIT2_DR = "exit2-dr"
UPDATE_DR = "update-dr"
SELECT_IR_SCAN = "select-ir-scan"
CAPTURE_IR = "capture-ir"
SHIFT_IR = "shift-ir"
EXIT1_IR = "exit1-ir"
PAUSE_IR = "pause-ir"
EXIT2_IR = "exit2-ir"
UPDATE_IR = "update-ir"

#: state -> (next on TMS=0, next on TMS=1)
_TRANSITIONS = {
    TEST_LOGIC_RESET: (RUN_TEST_IDLE, TEST_LOGIC_RESET),
    RUN_TEST_IDLE: (RUN_TEST_IDLE, SELECT_DR_SCAN),
    SELECT_DR_SCAN: (CAPTURE_DR, SELECT_IR_SCAN),
    CAPTURE_DR: (SHIFT_DR, EXIT1_DR),
    SHIFT_DR: (SHIFT_DR, EXIT1_DR),
    EXIT1_DR: (PAUSE_DR, UPDATE_DR),
    PAUSE_DR: (PAUSE_DR, EXIT2_DR),
    EXIT2_DR: (SHIFT_DR, UPDATE_DR),
    UPDATE_DR: (RUN_TEST_IDLE, SELECT_DR_SCAN),
    SELECT_IR_SCAN: (CAPTURE_IR, TEST_LOGIC_RESET),
    CAPTURE_IR: (SHIFT_IR, EXIT1_IR),
    SHIFT_IR: (SHIFT_IR, EXIT1_IR),
    EXIT1_IR: (PAUSE_IR, UPDATE_IR),
    PAUSE_IR: (PAUSE_IR, EXIT2_IR),
    EXIT2_IR: (SHIFT_IR, UPDATE_IR),
    UPDATE_IR: (RUN_TEST_IDLE, SELECT_DR_SCAN),
}

# Standard instruction opcodes (4-bit IR).
IR_WIDTH = 4
BYPASS = 0b1111     # mandatory all-ones
IDCODE = 0b0001
SAMPLE = 0b0010     # sample/preload the boundary register
EXTEST = 0b0011     # drive boundary outputs from the register
CONFIG = 0b0100     # METRO extension: Table 2 configuration chain

_KNOWN = {BYPASS, IDCODE, SAMPLE, EXTEST, CONFIG}


class DataRegister:
    """A scannable data register.

    :param width: bits (fixed).
    :param capture: ``f() -> list[int]`` giving capture values.
    :param update: ``f(list[int])`` applying shifted-in values.
    """

    def __init__(self, width, capture=None, update=None):
        self.width = width
        self.bits = [0] * width
        self._capture = capture
        self._update = update

    def capture(self):
        if self._capture is not None:
            values = list(self._capture())
            if len(values) != self.width:
                raise ValueError(
                    "capture produced {} bits for a {}-bit register".format(
                        len(values), self.width
                    )
                )
            self.bits = [1 if v else 0 for v in values]

    def shift(self, tdi):
        """One shift clock: returns TDO (LSB out), TDI enters at MSB."""
        self.bits.append(1 if tdi else 0)
        return self.bits.pop(0)

    def update(self):
        if self._update is not None:
            self._update(list(self.bits))


class TapController:
    """One TAP: the FSM plus an instruction register and data registers.

    :param registers: mapping instruction opcode -> :class:`DataRegister`.
        BYPASS gets a mandatory 1-bit register automatically; unknown
        instructions select BYPASS, per the standard.
    :param idcode: 32-bit identification code (selected at reset).
    """

    def __init__(self, registers=None, idcode=0x1):
        self.state = TEST_LOGIC_RESET
        self.registers = dict(registers or {})
        self.registers.setdefault(BYPASS, DataRegister(1))
        self.registers.setdefault(
            IDCODE,
            DataRegister(32, capture=lambda: _int_bits(idcode, 32)),
        )
        self._ir_shift = [0] * IR_WIDTH
        self.instruction = IDCODE  # selected after reset, per the standard
        self.tdo = 0

    # ------------------------------------------------------------------

    def reset(self):
        self.state = TEST_LOGIC_RESET
        self.instruction = IDCODE

    def step(self, tms, tdi=0):
        """One TCK rising edge; returns TDO."""
        state = self.state
        tdo = 0
        if state == CAPTURE_DR:
            self._current_dr().capture()
        elif state == CAPTURE_IR:
            # Standard: capture-IR loads 01 in the low bits.
            self._ir_shift = _int_bits(0b0001, IR_WIDTH)
        elif state == SHIFT_DR:
            tdo = self._current_dr().shift(tdi)
        elif state == SHIFT_IR:
            self._ir_shift.append(1 if tdi else 0)
            tdo = self._ir_shift.pop(0)
        elif state == UPDATE_DR:
            self._current_dr().update()
        elif state == UPDATE_IR:
            opcode = _bits_int(self._ir_shift)
            self.instruction = opcode if opcode in self.registers else BYPASS

        self.state = _TRANSITIONS[state][1 if tms else 0]
        if self.state == TEST_LOGIC_RESET:
            self.instruction = IDCODE
        self.tdo = tdo
        return tdo

    def _current_dr(self):
        return self.registers[self.instruction]


def _int_bits(value, width):
    """LSB-first bit list of ``value``."""
    return [(value >> index) & 1 for index in range(width)]


def _bits_int(bits):
    value = 0
    for index, bit in enumerate(bits):
        value |= (1 if bit else 0) << index
    return value
