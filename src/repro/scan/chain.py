"""The scan host: TMS/TDI traffic into daisy-chained MultiTAPs.

A machine built from METRO routers daisy-chains their TAPs (paper,
Section 5.3): one TCK/TMS pair fans out to every component and TDO of
each feeds TDI of the next.  The host addresses one router by loading
BYPASS into all the others — their data registers collapse to a single
bit — and shifts the target's register through the whole chain.  A
lone router is a chain of one.  (The MultiTAP feature gives each
component ``sp`` such chains for redundancy; a :class:`ScanChain`
represents one of them.)

Through the chain the host reads IDCODEs, reads and writes the Table 2
configuration chain, and drives the port-isolation tests that underpin
on-line fault diagnosis (Section 5.1, Scan Support).  Every Table 2
edit is a *mutate* function on a scratch ``RouterConfig``, applied by
:meth:`ScanChain.configure`; :func:`disable_port`, :func:`enable_port`,
:func:`set_fast_reclaim` and :func:`set_dilation` build the common ones.
"""

from repro.core.parameters import RouterConfig
from repro.scan import registers as R
from repro.scan import tap as T
from repro.scan.multitap import MultiTap


def attach_scan(router, sp=None):
    """Create the MultiTAP + registers for one router; returns MultiTap.

    The result is also stored on the router as ``router.multitap`` so a
    scan chain can find it later.
    """
    regs = {
        T.CONFIG: R.make_config_register(router),
        T.SAMPLE: R.make_boundary_register(router),
        T.EXTEST: R.make_boundary_register(router),
    }
    multitap = MultiTap(
        regs,
        idcode=R.make_idcode(router.params),
        sp=sp if sp is not None else router.params.sp,
    )
    router.multitap = multitap
    return multitap


class ScanChain:
    """TAPs daisy-chained TDO -> TDI with common TMS.

    :param routers: the routers on this chain, in chain order (TDI of
        ``routers[0]`` is the host's TDI; TDO of the last is what the
        host reads).
    :param port: which MultiTAP port of each router this chain uses.

    Every operation names its target by ``slot``, its index in
    ``routers``, and runs through :meth:`_scan`, the one TAP walk.
    """

    def __init__(self, routers, port=0):
        if not routers:
            raise ValueError("a scan chain needs at least one router")
        self.routers = list(routers)
        self.port = port
        for router in self.routers:
            if not hasattr(router, "multitap"):
                attach_scan(router)

    def __len__(self):
        return len(self.routers)

    # -- the TAP walk ------------------------------------------------------

    def _step(self, tms, tdi):
        """One TCK edge on every TAP; returns the chain's TDO."""
        for router in self.routers:
            tdi = router.multitap.step(self.port, tms, tdi)
        return tdi

    def reset(self):
        for _ in range(5):  # five TMS=1 clocks reach reset from anywhere
            self._step(1, 0)

    def _shift(self, bits):
        """Shift ``bits`` in (TMS high on the last, which exits), then
        Update and return to Run-Test/Idle; returns the bits out."""
        last = len(bits) - 1
        out = [self._step(int(index == last), bit) for index, bit in enumerate(bits)]
        self._step(1, 0)  # Exit1 -> Update
        self._step(0, 0)  # -> Run-Test/Idle
        return out

    def _scan(self, slot, opcode, bits):
        """The one walk: ``opcode`` into router ``slot``, BYPASS into the
        others, then one DR scan; returns the target's captured bits.

        ``bits`` is the target's image (its register's length); the
        other routers' single BYPASS bits pad it.  ``bits=None`` reads
        non-destructively: the captured chain is shifted out and
        straight back in, so the mandatory Update-DR on exit rewrites
        exactly what was there.
        """
        opcodes = [T.BYPASS] * len(self.routers)
        opcodes[slot] = opcode
        lengths = [1] * len(self.routers)
        lengths[slot] = self.routers[slot].multitap.shared.registers[opcode].width
        if bits is not None and len(bits) != lengths[slot]:
            raise ValueError(
                "image is {} bits, the target's register holds {}".format(
                    len(bits), lengths[slot]
                )
            )
        self.reset()
        # Run-Test/Idle, Select-DR, Select-IR, Capture-IR; the capture
        # edge enters Shift-IR.  The last router's instruction enters
        # first.
        for tms in (0, 1, 1, 0, 0):
            self._step(tms, 0)
        self._shift([bit for code in reversed(opcodes)
                     for bit in T._int_bits(code, T.IR_WIDTH)])
        for tms in (1, 0, 0):  # Select-DR, Capture-DR, -> Shift-DR
            self._step(tms, 0)
        # The routers after the target sit between it and TDO: their
        # bits leave first and the image's first bits travel to them.
        after = sum(lengths[slot + 1:])
        if bits is None:
            out = [self._step(0, 0) for _ in range(sum(lengths))]
            self._shift(out)
        else:
            out = self._shift([0] * after + list(bits) + [0] * sum(lengths[:slot]))
        return out[after:after + lengths[slot]]

    # -- operations ----------------------------------------------------------

    def read_idcodes(self):
        """IDCODE of every router, in chain order."""
        return [T._bits_int(self._scan(slot, T.IDCODE, [0] * 32))
                for slot in range(len(self.routers))]

    def read_config_bits(self, slot):
        """One router's configuration chain, read non-destructively."""
        return self._scan(slot, T.CONFIG, None)

    def write_config(self, slot, config_bits):
        """Shift a full chain image (:func:`repro.scan.registers.
        encode_config`) into one router; Update-DR applies it."""
        self._scan(slot, T.CONFIG, config_bits)

    def configure(self, slot, mutate):
        """Read-modify-write one router's configuration through scan.

        ``mutate(config)`` edits a scratch RouterConfig decoded from the
        chain as read; its encoding is shifted back in.
        """
        scratch = RouterConfig(self.routers[slot].params)
        R.decode_config(scratch, self.read_config_bits(slot))
        mutate(scratch)
        self.write_config(slot, R.encode_config(scratch))

    def sample_boundary(self, slot):
        """SAMPLE: per-port last-seen data word values of one router."""
        params = self.routers[slot].params
        bits = self._scan(slot, T.SAMPLE, [0] * R.boundary_width(params))
        return [T._bits_int(bits[offset:offset + params.w])
                for offset in range(0, len(bits), params.w)]

    def extest_drive(self, slot, backward_port, value):
        """EXTEST: drive ``value`` out a disabled backward port.

        The port must already be disabled with off-port drive on
        (configure it with :func:`disable_port` and ``drive=True``).
        """
        router = self.routers[slot]
        w = router.params.w
        bits = [0] * R.boundary_width(router.params)
        offset = router.config.backward_port_id(backward_port) * w
        bits[offset:offset + w] = T._int_bits(value, w)
        self._scan(slot, T.EXTEST, bits)


# -- Table 2 edits, for ScanChain.configure ----------------------------------


def disable_port(port_id, drive):
    """Take one port out of service; ``drive`` keeps its off-port
    driver on, for EXTEST."""
    def mutate(config):
        config.port_enabled[port_id] = False
        config.off_port_drive[port_id] = drive
    return mutate


def enable_port(port_id):
    def mutate(config):
        config.port_enabled[port_id] = True
        config.off_port_drive[port_id] = False
    return mutate


def set_fast_reclaim(port_ids, value):
    def mutate(config):
        for port_id in port_ids:
            config.fast_reclaim[port_id] = bool(value)
    return mutate


def set_dilation(dilation):
    def mutate(config):
        config.dilation = dilation
    return mutate
