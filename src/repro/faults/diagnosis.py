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
2. :func:`port_isolation_test` — the one wire repair: tear the wire's
   circuits down, disable both facing ports, drive EXTEST patterns
   across the wire from the upstream side and observe them through
   the neighbour's boundary register; a passing wire gets its ports
   back, a failing one keeps them disabled (masked).
3. :func:`diagnose_stage` — repair every wire between two stages.
"""

from repro.scan.chain import ScanChain, disable_port, enable_port

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
    """Test one wire with :data:`DEFAULT_PATTERNS` and mask it if it fails.

    Returns ``(passed, observations)``.  Ordering matters: the wire's
    circuits are torn down first (their DROP words cross the wire
    while its ports are still enabled), then both facing ports are
    disabled in the same inter-cycle gap, so the allocator cannot hand
    the wire to new traffic, while the rest of both routers keeps
    routing.  The wire settles for its pipeline depth, patterns are
    driven via EXTEST from the upstream side and observed via SAMPLE
    at the downstream boundary.  A passing wire gets both ports back;
    a failing one keeps both disabled with the upstream driver off —
    the mask, so the fault can no longer corrupt traffic and the
    network runs on its redundancy.  An exception re-enables both.
    """
    upstream, bwd_port, downstream, fwd_port = _link_ends(network, src_key, dst_key)
    up_scan = ScanChain([upstream])
    down_scan = ScanChain([downstream])
    up_port_id = upstream.config.backward_port_id(bwd_port)
    down_port_id = downstream.config.forward_port_id(fwd_port)
    delay = network.channels[(src_key, dst_key)].delay
    mask = (1 << downstream.params.w) - 1

    upstream.quiesce_backward_port(bwd_port)
    downstream.force_teardown(fwd_port)
    up_scan.configure(0, disable_port(up_port_id, drive=True))
    down_scan.configure(0, disable_port(down_port_id, drive=False))
    observations = []
    passed = None
    try:
        network.run(delay + 2)
        for pattern in DEFAULT_PATTERNS:
            up_scan.extest_drive(0, bwd_port, pattern & mask)
            # One cycle to launch, plus the wire's pipeline depth.
            network.run(1 + delay)
            seen = down_scan.sample_boundary(0)[fwd_port]
            observations.append((pattern & mask, seen))
        passed = all(drove == seen for drove, seen in observations)
    finally:
        if passed is False:
            up_scan.configure(0, disable_port(up_port_id, drive=False))
        else:
            up_scan.configure(0, enable_port(up_port_id))
            down_scan.configure(0, enable_port(down_port_id))
    return passed, observations


def diagnose_stage(network, stage):
    """Repair every wire from ``stage`` to the next layer.

    Returns the list of failing ``(src_key, dst_key)`` wire keys, each
    left masked by :func:`port_isolation_test`.
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
