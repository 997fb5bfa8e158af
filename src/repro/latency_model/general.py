"""Generalized analytical latency: beyond ``t_20,32``.

Table 3/4 fix the message at 20 bytes and the machine at 32 nodes.
Downstream users want the same arithmetic for *their* message sizes
and network shapes; this module provides it:

* :func:`t_message` — unloaded delivery latency for any message size
  over any stage-radix list, from any implementation's circuit numbers;
* :func:`plan_radices` — the radix list of a concrete
  :class:`~repro.network.topology.NetworkPlan`, so analytical and
  simulated networks line up;
* :func:`bandwidth_per_port` and :func:`saturation_messages_per_us` —
  the channel-rate side of the same numbers;
* :func:`crossover_message_bytes` — the message size at which one
  implementation overtakes another (e.g. where a cascaded router's
  header overhead is amortized).
"""

import math

from repro.latency_model import equations as EQ


def plan_radices(plan):
    """Stage radices of a concrete network plan."""
    return tuple(stage.radix for stage in plan.stages)


def t_message(
    impl,
    message_bytes,
    stage_radices=None,
):
    """Unloaded latency (ns) to deliver ``message_bytes`` through a
    network of the given stage radices using implementation ``impl``
    (an :class:`~repro.latency_model.implementations.Implementation`).
    """
    radices = tuple(
        stage_radices if stage_radices is not None else impl.stage_radices
    )
    return EQ.t_20_32(
        impl.t_clk,
        impl.t_io,
        dp=impl.dp,
        hw=impl.hw,
        w=impl.w,
        c=impl.c,
        stage_radices=radices,
        message_bits=message_bytes * 8,
    )


def bandwidth_per_port(impl):
    """Sustained channel bandwidth of one network port, in Mbit/s."""
    bits_per_cycle = impl.w * impl.c
    return bits_per_cycle / impl.t_clk * 1000.0


def saturation_messages_per_us(impl, message_bytes, stage_radices=None):
    """Back-to-back message rate one port sustains (messages/us).

    A circuit carries header + payload and then the wire is reusable;
    reversal/ack overhead is protocol-dependent and excluded, so this
    is the serialization-limited upper bound.
    """
    radices = tuple(
        stage_radices if stage_radices is not None else impl.stage_radices
    )
    header_bits = EQ.hbits(impl.w, impl.hw, radices, impl.c)
    total_bits = message_bytes * 8 + header_bits
    cycles = math.ceil(total_bits / (impl.w * impl.c))
    return 1000.0 / (cycles * impl.t_clk)


#: Largest message :func:`crossover_message_bytes` tries, in bytes.
LIMIT = 4096


def crossover_message_bytes(slow_impl, fast_impl, stage_radices=None):
    """Smallest message size (bytes) where ``fast_impl`` wins.

    Returns None when ``fast_impl`` never catches up within
    :data:`LIMIT` bytes.  Useful for cascade decisions: the wider router pays header
    replication on every stage but serializes payload faster, so there
    is a break-even size.
    """
    for message_bytes in range(1, LIMIT + 1):
        if t_message(fast_impl, message_bytes, stage_radices) < t_message(
            slow_impl, message_bytes, stage_radices
        ):
            return message_bytes
    return None
