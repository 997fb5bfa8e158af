"""On-line fault localization and masking.

The paper's diagnosis story (Sections 3 and 5.1): message-level
evidence (missing acks, per-router STATUS checksums) narrows a fault
to a region; the scan system then *isolates* candidate ports — each
port can be disabled and tested while the rest of the router carries
traffic — runs boundary-scan patterns across the suspect wires, and
finally leaves the faulty ports disabled so the fault is *masked* and
can no longer corrupt messages.

The flow implemented here:

1. :func:`suspect_stage_from_statuses` — message-level localization.
2. :func:`port_isolation_test` — EXTEST patterns across one wire
   between a (disabled) backward port and the neighbouring (disabled)
   forward port, observed through the neighbour's boundary register.
3. :func:`diagnose_stage` — sweep every wire between two stages.
4. :func:`mask_link` — leave both ports of a bad wire disabled.
"""

from repro.scan.controller import ScanController

DEFAULT_PATTERNS = (0b0101, 0b1010, 0b1111, 0b0000, 0b0011)


def suspect_stage_from_statuses(expected_checksums, statuses):
    """Message-level localization from one turned connection.

    Returns the 0-based index of the first stage whose reported
    checksum disagrees with the expectation (corruption entered on the
    wire into that stage or inside its router), or None when all
    stages agree.  A short status list (blocked/dropped connection)
    is localized to the first missing stage.
    """
    for index, expected in enumerate(expected_checksums):
        if index >= len(statuses):
            return index
        if statuses[index].blocked or statuses[index].checksum != expected:
            return index
    return None


def _link_ends(network, src_key, dst_key):
    """Resolve (upstream router, bwd port, downstream router, fwd port)."""
    if src_key[0] != "router" or dst_key[0] != "router":
        raise ValueError("port isolation tests run on inter-router wires")
    _, s_stage, s_block, s_index, s_port = src_key
    _, d_stage, d_block, d_index, d_port = dst_key
    upstream = network.router_grid[(s_stage, s_block, s_index)]
    downstream = network.router_grid[(d_stage, d_block, d_index)]
    return upstream, s_port, downstream, d_port


def port_isolation_test(network, src_key, dst_key):
    """Test one wire with :data:`DEFAULT_PATTERNS`; returns (passed, observations).

    Both facing ports are disabled for the duration (the rest of both
    routers keeps routing), patterns are driven via EXTEST from the
    upstream side and observed via SAMPLE at the downstream boundary,
    then the ports are re-enabled.
    """
    upstream, bwd_port, downstream, fwd_port = _link_ends(network, src_key, dst_key)
    up_scan = ScanController(upstream)
    down_scan = ScanController(downstream)
    up_port_id = upstream.config.backward_port_id(bwd_port)
    down_port_id = downstream.config.forward_port_id(fwd_port)

    up_scan.disable_port(up_port_id, drive=True)
    down_scan.disable_port(down_port_id)
    mask = (1 << downstream.params.w) - 1
    observations = []
    try:
        for pattern in DEFAULT_PATTERNS:
            up_scan.extest_drive(bwd_port, pattern & mask)
            # One cycle to launch, plus the wire's pipeline depth.
            delay = network.channels[(src_key, dst_key)].delay
            network.run(1 + delay)
            seen = down_scan.sample_boundary()[fwd_port]
            observations.append((pattern & mask, seen))
    finally:
        up_scan.enable_port(up_port_id)
        down_scan.enable_port(down_port_id)
    passed = all(drove == seen for drove, seen in observations)
    return passed, observations


def diagnose_stage(network, stage):
    """Isolation-test every wire from ``stage`` to the next layer.

    Returns the list of failing ``(src_key, dst_key)`` wire keys.
    """
    failing = []
    for (src_key, dst_key) in network.channels:
        if src_key[0] != "router" or dst_key[0] != "router":
            continue
        if src_key[1] != stage:
            continue
        passed, _obs = port_isolation_test(network, src_key, dst_key)
        if not passed:
            failing.append((src_key, dst_key))
    return failing


def mask_link(network, src_key, dst_key):
    """Disable both ports facing a faulty wire (permanent masking).

    After masking, the allocator never selects the upstream port and
    the downstream port ignores its pins: the fault can no longer
    corrupt message traffic, and the network runs on its redundancy.
    """
    upstream, bwd_port, downstream, fwd_port = _link_ends(network, src_key, dst_key)
    ScanController(upstream).disable_port(upstream.config.backward_port_id(bwd_port))
    ScanController(downstream).disable_port(
        downstream.config.forward_port_id(fwd_port)
    )


def diagnose_and_mask(network, stage):
    """Full repair loop for one inter-stage layer; returns masked wires."""
    failing = diagnose_stage(network, stage)
    for src_key, dst_key in failing:
        mask_link(network, src_key, dst_key)
    return failing
