"""Test-only protocol mutation hooks.

The conformance oracle (:mod:`repro.verify.oracle`) claims to catch
METRO protocol violations.  That claim is itself testable: this module
lets the test suite *seed* deliberate protocol bugs — skip a STATUS
word, free a backward port early, route to the wrong dilation group —
and assert that the oracle flags every one of them (the mutation smoke
test, ``tests/verify/test_mutations.py``).

The hooks are deliberately dumb: a module-level set of active mutation
names, consulted at a handful of guarded points in the router and
allocator.  With no mutation active (the only state production code
ever runs in) each guard is a single falsy module-attribute check on
paths that are already branch-heavy, so the simulation's behaviour and
determinism are unchanged.

Usage (tests only)::

    from repro.core import mutation

    with mutation.seeded(mutation.SKIP_STATUS):
        ...  # routers silently drop their STATUS words

Never activate mutations outside a test: they exist to break the
protocol.
"""

from contextlib import contextmanager

#: Drop the STATUS word a router injects at each reversal (the stream
#: reverses without the per-stage blocked flag + checksum).
SKIP_STATUS = "skip-status"

#: Report a corrupted checksum in every STATUS word (the checksum path
#: is broken even though data flows correctly).
CORRUPT_STATUS_CHECKSUM = "corrupt-status-checksum"

#: Release the backward port the moment a DROP enters the router,
#: instead of when it exits the pipeline — the locked-circuit property
#: is violated while the old stream is still flushing.
FREE_PORT_EARLY = "free-port-early"

#: Never release backward ports when connections close (a path
#: reclamation bug: every circuit leaks its output forever).
LEAK_PORT_ON_DROP = "leak-port-on-drop"

#: Allocate among *all* enabled ports of the dilation group, ignoring
#: the IN-USE bits — two connections can share one backward port.
DOUBLE_ALLOCATE = "double-allocate"

#: Route to the next dilation group up, not the requested one (a
#: direction-decode bug: self-routing delivers to the wrong subtree).
WRONG_DIRECTION = "wrong-direction"

#: Propagate a backward-control-bit drop without freeing the local
#: backward port (BCB path reclamation leaks the traversed port).
SKIP_BCB_RELEASE = "skip-bcb-release"

#: Never service backward-control-bit pulses: fast-reclamation drops
#: from blocked routers downstream are left on the wire unanswered.
IGNORE_BCB = "ignore-bcb"

ALL_MUTATIONS = frozenset(
    (
        SKIP_STATUS,
        CORRUPT_STATUS_CHECKSUM,
        FREE_PORT_EARLY,
        LEAK_PORT_ON_DROP,
        DOUBLE_ALLOCATE,
        WRONG_DIRECTION,
        SKIP_BCB_RELEASE,
        IGNORE_BCB,
    )
)

# -- Backend-layer mutations (event-driven engine) --------------------------
#
# Where ALL_MUTATIONS breaks the METRO *protocol* to prove the oracle is
# sensitive, this breaks the events backend's *scheduling* to prove the
# backend equivalence prover (:mod:`repro.verify.backend_diff`) and the
# oracle both notice when the accelerated engine drifts from the
# reference semantics (``tests/verify/test_backend_mutations.py``).

#: Drop the arrival wake in ``EventEngine.step``'s hot-channel loop:
#: parked components are never re-scheduled when a word reaches their
#: ports.
EVENTS_SKIP_WAKE = "events-skip-wake"

BACKEND_MUTATIONS = frozenset((EVENTS_SKIP_WAKE,))

# -- Workload-layer mutations (collective DAG release) ----------------------
#
# Seeded bugs in the :class:`repro.workloads.collective.CollectiveObserver`
# release bookkeeping.  Where ALL_MUTATIONS breaks the METRO protocol and
# BACKEND_MUTATIONS breaks the events engine's scheduling, these break the
# *application* layer — the dependency-DAG release rule a collective
# workload lives by — to prove the workload determinism harness notices
# when ops are released too early or never.

#: Forget the dependency edge to an op's first successor when its
#: delivery lands: the successor's undelivered-dependency count stays
#: pinned and the downstream subgraph deadlocks.
WL_DROP_DEP_EDGE = "workload-drop-dep-edge"

#: Release a successor on its *first* satisfied dependency instead of
#: its last: ops launch before the data they were meant to wait for.
WL_PREMATURE_RELEASE = "workload-premature-release"

WORKLOAD_MUTATIONS = frozenset((WL_DROP_DEP_EDGE, WL_PREMATURE_RELEASE))

# -- Fast-path mutations (layers both engines share) ------------------------
#
# ``Channel.advance`` and ``MetroRouter.tick`` skip work on the strength
# of derived summaries.  Both engines run that code, so the backend
# prover cannot see it go stale; these show the checks that can
# (``tests/sim/test_channel.py``, ``tests/verify/test_fast_path_mutations.py``).

#: A lone ``send_bcb`` does not mark the wire live: a BCB pulse staged on
#: an otherwise silent channel is never shifted.
CHANNEL_STALE_LIVENESS = "channel-stale-liveness"

#: The router's owned-port count misses every claim, so
#: ``_service_backward_bcb`` is skipped while a port is owned.
STALE_OWNED_COUNT = "router-stale-owned-count"

FAST_PATH_MUTATIONS = frozenset((CHANNEL_STALE_LIVENESS, STALE_OWNED_COUNT))

#: Every mutation :func:`activate` accepts (protocol + backend +
#: workload + fast-path layers).
KNOWN_MUTATIONS = (
    ALL_MUTATIONS | BACKEND_MUTATIONS | WORKLOAD_MUTATIONS | FAST_PATH_MUTATIONS
)

#: The active mutation set.  Falsy (empty) in production; the guards in
#: router/allocator code check emptiness before doing a set lookup.
ACTIVE = frozenset()


def enabled(name):
    """True when mutation ``name`` is currently seeded."""
    return name in ACTIVE


def activate(*names):
    """Seed the named mutations (additive).  Tests only."""
    global ACTIVE
    unknown = set(names) - KNOWN_MUTATIONS
    if unknown:
        raise ValueError("unknown mutations: {}".format(sorted(unknown)))
    ACTIVE = ACTIVE | frozenset(names)


@contextmanager
def seeded(*names):
    """Context manager seeding mutations for the enclosed block only."""
    global ACTIVE
    previous = ACTIVE
    activate(*names)
    try:
        yield
    finally:
        ACTIVE = previous
