"""Engine snapshots: versioned capture/restore of live simulation state.

Everything else in the reproduction is picklable by construction —
trials, scenarios, faults, metrics — and this module closes the last
gap: a *running* simulation.  A :class:`Snapshot` captures the full
engine object graph in one pickle: routers (connection state, boundary
captures, random streams), channels (in-flight pipeline words, BCB
sidebands, installed fault transforms), endpoints (retry/backoff
state, queued messages, attached traffic sources mid-RNG-sequence),
fault-injector schedules, transient-fault duty cycles, FaultManager
suspicion/cooldown state and telemetry registries.  Because the whole
graph rides one pickle, shared identity is preserved: a message
sitting in both an endpoint queue and the network log restores as one
object, and bound-method hooks (the injector's pre-cycle hook, the
manager's failure listener) reconnect to their restored owners.

Restoring is *proven* transparent, not assumed: the
:mod:`repro.verify.resume_diff` harness requires that running N
cycles equals running N/2, snapshotting, restoring and running the
remaining N/2 — byte-identical message logs, latencies, retry counts
and metrics — across the same workload families the backend
equivalence proof covers, on both engine backends and across
backend-switching restores.

Snapshots are **backend-portable**: the two backends share every
piece of simulation state (the events engine has no field of its
own), so a snapshot taken under the dense reference engine restores
under the events engine and vice versa
(``restore_engine(snap, backend="events")``).  A snapshot whose
capture backend this build does not register (one written before a
backend was removed) is refused with :class:`SnapshotFormatError`
before its graph is unpickled.

Snapshots are **versioned**, and the version is the only compatibility
rule: :data:`SNAPSHOT_FORMAT_VERSION` is stamped into every capture and
checked *before* any unpickling on load, so a file of another version
fails loudly with :class:`SnapshotFormatError` instead of silently
corrupting a resumed run (the golden-fixture test pins this gate).  No
``__setstate__`` fills in or sniffs an older layout.  Bump the version
whenever the captured object graph's shape changes — renamed, added or
removed attributes, changed pipeline encodings — and regenerate the
golden fixture (see ``docs/checkpointing.md`` for the policy).
"""

import hashlib
import pickle
import struct
from collections import namedtuple

#: Bump on any change to the captured object graph (and regenerate
#: ``tests/fixtures/golden_snapshot.bin``): the only compatibility rule.
SNAPSHOT_FORMAT_VERSION = 3

#: File magic for saved snapshots.
MAGIC = b"METROSNAP\x00"

_HEADER = struct.Struct(">I")


class SnapshotFormatError(RuntimeError):
    """A saved snapshot cannot be used: bad magic, version mismatch or
    a capture backend this build does not have."""


#: Outcome of :func:`restore`: the rebuilt engine, the rebuilt network
#: (None for engine-level snapshots) and whatever extras were captured.
Restored = namedtuple("Restored", ["kind", "engine", "network", "extras"])


class Snapshot:
    """One captured simulation state.

    :param backend: engine backend name at capture time (``"reference"``
        or ``"events"``); restore may target a different one.
    :param cycle: engine cycle at capture time.
    :param blob: the pickled object graph.
    :param meta: optional plain-data dict of caller metadata (workload
        parameters, soak progress); round-trips through save/load.
    """

    def __init__(self, backend, cycle, blob, meta=None, version=None):
        self.version = SNAPSHOT_FORMAT_VERSION if version is None else version
        self.backend = backend
        self.cycle = cycle
        self.blob = blob
        self.meta = dict(meta or {})

    @property
    def content_hash(self):
        """SHA-256 over the format version and captured graph."""
        digest = hashlib.sha256()
        digest.update(str(self.version).encode("ascii"))
        digest.update(self.blob)
        return digest.hexdigest()

    def __repr__(self):
        return "<Snapshot v{} backend={} cycle={} {} bytes>".format(
            self.version, self.backend, self.cycle, len(self.blob)
        )

    # -- persistence ----------------------------------------------------

    def save(self, path):
        """Write ``MAGIC | version | envelope`` to ``path``."""
        envelope = pickle.dumps(
            {
                "backend": self.backend,
                "cycle": self.cycle,
                "meta": self.meta,
                "blob": self.blob,
            },
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        with open(path, "wb") as handle:
            handle.write(MAGIC)
            handle.write(_HEADER.pack(self.version))
            handle.write(envelope)
        return path

    @classmethod
    def load(cls, path):
        """Read a snapshot; the format gate runs before any unpickling.

        :raises SnapshotFormatError: not a snapshot file, or written by
            an incompatible format version.
        """
        with open(path, "rb") as handle:
            data = handle.read()
        if not data.startswith(MAGIC):
            raise SnapshotFormatError(
                "{}: not a METRO snapshot (bad magic)".format(path)
            )
        offset = len(MAGIC)
        if len(data) < offset + _HEADER.size:
            raise SnapshotFormatError("{}: truncated snapshot header".format(path))
        (version,) = _HEADER.unpack_from(data, offset)
        if version != SNAPSHOT_FORMAT_VERSION:
            raise SnapshotFormatError(
                "{}: snapshot format v{} is incompatible with this build "
                "(expected v{}); resuming from it would corrupt state — "
                "restart the run or use a matching build".format(
                    path, version, SNAPSHOT_FORMAT_VERSION
                )
            )
        envelope = pickle.loads(data[offset + _HEADER.size:])
        return cls(
            backend=envelope["backend"],
            cycle=envelope["cycle"],
            blob=envelope["blob"],
            meta=envelope["meta"],
            version=version,
        )


# ---------------------------------------------------------------------------
# Capture
# ---------------------------------------------------------------------------


def _backend_name(engine):
    from repro.sim.backends import BACKENDS

    for name, cls in BACKENDS.items():
        if type(engine) is cls:
            return name
    return type(engine).__name__


def _capture(kind, root, engine, extras, meta):
    blob = pickle.dumps(
        {"kind": kind, "root": root, "extras": extras},
        protocol=pickle.HIGHEST_PROTOCOL,
    )
    return Snapshot(
        backend=_backend_name(engine),
        cycle=engine.cycle,
        blob=blob,
        meta=meta,
    )


def snapshot_engine(engine, extras=None, meta=None):
    """Capture a bare engine (and everything registered with it).

    ``extras`` may be any picklable value whose identity should be
    preserved *within* the captured graph (a fault injector, a traffic
    source, a message list); it comes back from :func:`restore` wired
    to the restored objects.  The live engine is not perturbed.
    """
    return _capture("engine", engine, engine, extras, meta)


def snapshot_network(network, extras=None, meta=None):
    """Capture a full :class:`~repro.network.builder.MetroNetwork`.

    The network's engine, routers, endpoints, channels, message log
    and telemetry ride along (they are one object graph).
    """
    return _capture("network", network, network.engine, extras, meta)


# ---------------------------------------------------------------------------
# Restore
# ---------------------------------------------------------------------------

def _transmute(engine, backend):
    """Swap ``engine`` to the ``backend`` class *in place*.

    In place matters: every restored component, network and hook holds
    references to this engine object.  Neither backend has a field of
    its own (``Engine.__init__`` sets them all), so the class is the
    only thing that changes.
    """
    from repro.sim.backends import BACKENDS

    try:
        engine.__class__ = BACKENDS[backend]
    except KeyError:
        raise ValueError(
            "unknown engine backend {!r} (choices: {})".format(
                backend, ", ".join(sorted(BACKENDS))
            )
        )
    return engine


def restore(snap, backend=None):
    """Rebuild the captured graph; returns a :class:`Restored`.

    :param backend: target engine backend name; None keeps the backend
        the snapshot was captured under.
    :raises SnapshotFormatError: the snapshot was captured under a
        backend that is not registered, so its graph names classes this
        build cannot unpickle.
    """
    from repro.sim.backends import BACKENDS

    if snap.backend not in BACKENDS:
        raise SnapshotFormatError(
            "snapshot was captured under unknown engine backend {!r} "
            "(choices: {})".format(snap.backend, ", ".join(sorted(BACKENDS)))
        )
    payload = pickle.loads(snap.blob)
    kind = payload["kind"]
    if kind == "network":
        network = payload["root"]
        engine = network.engine
    else:
        network = None
        engine = payload["root"]
    if backend is None:
        backend = snap.backend
    engine = _transmute(engine, backend)
    return Restored(
        kind=kind, engine=engine, network=network, extras=payload["extras"]
    )


def restore_engine(snap, backend=None):
    """Rebuild an engine-level snapshot; returns the engine."""
    return restore(snap, backend=backend).engine


def restore_network(snap, backend=None):
    """Rebuild a network-level snapshot; returns a :class:`Restored`."""
    restored = restore(snap, backend=backend)
    if restored.network is None:
        raise ValueError(
            "snapshot holds a bare engine, not a network; use restore_engine"
        )
    return restored
