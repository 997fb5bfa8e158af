"""Golden snapshot regression: the on-disk checkpoint format must
never silently drift.

The committed fixture is a mid-run engine snapshot of a fixed small
scenario.  Loading it exercises the header gate (magic + format
version) and the pickled state schema; restoring and running it
forward must land on exactly the behaviour a fresh uninterrupted run
of the same scenario produces.  Comparison is behavioural (cycle-
stamped message facts), never blob bytes — pickle encodings may churn
harmlessly, simulation trajectories may not.

Any incompatible change to snapshot contents (renamed attributes, new
engine state, schema reshapes) surfaces here as a loud failure.  If
the change is intentional, bump ``SNAPSHOT_FORMAT_VERSION`` per the
policy in ``docs/checkpointing.md`` and regenerate::

    PYTHONPATH=src python tests/sim/test_golden_snapshot.py --regen

then review the fixture diff like any other code change.
"""

import os
import pickletools
import sys

import pytest

if __name__ == "__main__":  # ``--regen`` runs this file as a script
    sys.path.insert(0, os.path.normpath(os.path.join(__file__, "../../..")))

from tests.fresh import fresh_json

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), os.pardir, "fixtures", "golden_snapshot.bin"
)

SEED = 77
SPLIT = 12
MESSAGES = (
    (0, 3, (1, 2, 3)),
    (3, 0, (9, 9)),
    (2, 1, (4, 0, 4, 0)),
)


def _build():
    from repro.endpoint.messages import Message
    from repro.verify.scenario import Scenario

    scenario = Scenario(
        radix=2,
        n_stages=2,
        seed=SEED,
        messages=[
            {"src": s, "dest": d, "payload": list(p)} for s, d, p in MESSAGES
        ],
    )
    network = scenario.build()
    sent = [
        network.send(m["src"], Message(dest=m["dest"], payload=m["payload"]))
        for m in scenario.messages
    ]
    return network, sent


def _distill(network, sent):
    """Cycle-stamped behavioural facts, settled by quiescence."""
    network.run_until_quiet()
    return {
        "outcomes": [m.outcome for m in sent],
        "attempts": [m.attempts for m in sent],
        "done_cycles": [m.done_cycle for m in sent],
        "arrivals": [entry[0] for entry in network.log.receiver_arrivals],
        "checksum_failures": network.log.receiver_checksum_failures,
    }


def _capture():
    from repro.sim.snapshot import snapshot_network

    network, sent = _build()
    network.run(SPLIT)
    return snapshot_network(
        network,
        extras={"sent": sent},
        meta={"kind": "golden", "seed": SEED, "split": SPLIT},
    )


def _load_golden():
    from repro.sim.snapshot import Snapshot, SnapshotFormatError

    try:
        return Snapshot.load(GOLDEN_PATH)
    except SnapshotFormatError as error:
        pytest.fail(
            "golden snapshot no longer loads ({}). If the format change "
            "is intentional, bump SNAPSHOT_FORMAT_VERSION and regenerate: "
            "PYTHONPATH=src python tests/sim/test_golden_snapshot.py "
            "--regen".format(error)
        )


def test_golden_snapshot_loads_under_the_current_format():
    from repro.sim.snapshot import SNAPSHOT_FORMAT_VERSION

    snap = _load_golden()
    assert snap.version == SNAPSHOT_FORMAT_VERSION
    assert snap.backend == "reference"
    assert snap.cycle == SPLIT
    assert snap.meta == {"kind": "golden", "seed": SEED, "split": SPLIT}


def test_golden_snapshot_resumes_the_fixed_scenario_exactly():
    from repro.sim.snapshot import restore_network

    fresh_network, fresh_sent = _build()
    expected = _distill(fresh_network, fresh_sent)
    assert expected["outcomes"], "fixed scenario sent nothing"

    restored = restore_network(_load_golden())
    assert restored.network.engine.cycle == SPLIT
    resumed = _distill(restored.network, restored.extras["sent"])
    assert resumed == expected


def test_stamped_future_version_fails_before_unpickling(tmp_path):
    from repro.sim.snapshot import (
        MAGIC,
        SNAPSHOT_FORMAT_VERSION,
        Snapshot,
        SnapshotFormatError,
    )

    data = bytearray(open(GOLDEN_PATH, "rb").read())
    data[len(MAGIC): len(MAGIC) + 4] = (
        SNAPSHOT_FORMAT_VERSION + 7
    ).to_bytes(4, "big")
    drifted = tmp_path / "drifted.snap"
    drifted.write_bytes(bytes(data))
    with pytest.raises(SnapshotFormatError) as excinfo:
        Snapshot.load(drifted)
    message = str(excinfo.value)
    assert "v{}".format(SNAPSHOT_FORMAT_VERSION + 7) in message
    assert "expected v{}".format(SNAPSHOT_FORMAT_VERSION) in message


def test_capture_is_reproducible_in_process():
    # The fixture's source of truth is deterministic: two fresh
    # captures carry identical state (same content hash).
    assert _capture().content_hash == _capture().content_hash


#: The reference every snapshot pickles the null telemetry object as:
#: the module global itself (``NullTelemetry.__reduce__`` names it).
NULL_TELEMETRY_GLOBAL = ("repro.sim.component", "NULL_TELEMETRY")


def _pickled_globals(blob):
    """Every ``(module, name)`` a pickle's STACK_GLOBAL opcodes load."""
    found, pushed, memo = set(), [], []
    for opcode, arg, _ in pickletools.genops(blob):
        if opcode.name == "MEMOIZE":
            memo.append(pushed[-1] if pushed else None)
        elif opcode.name in ("BINGET", "LONG_BINGET"):
            pushed.append(memo[arg])
        elif opcode.name == "STACK_GLOBAL":
            found.add(tuple(pushed[-2:]))
            pushed.append(None)
        else:
            pushed.append(arg if isinstance(arg, str) else None)
    return found


def test_snapshots_name_the_null_telemetry_by_its_pickled_path():
    """A fresh capture and the fixture pickle the singleton by its global, and nothing from nullobj."""
    from repro.harness.load_sweep import figure1_network
    from repro.sim.snapshot import snapshot_network

    network = figure1_network(seed=3)
    network.run(20)
    for blob in (snapshot_network(network).blob, _load_golden().blob):
        found = _pickled_globals(blob)
        assert NULL_TELEMETRY_GLOBAL in found
        assert not [g for g in found if g[0] == "repro.telemetry.nullobj"]


_RESTORE_PROBE = """
import json, sys
from repro.sim.snapshot import Snapshot, restore_network
assert "repro.telemetry" not in sys.modules
network = restore_network(Snapshot.load(sys.argv[1])).network
assert "repro.telemetry" not in sys.modules
from repro.sim.component import NULL_TELEMETRY
holders = [r for stage in network.routers for r in stage] + network.endpoints
print(json.dumps([len(holders), all(h.telemetry is NULL_TELEMETRY for h in holders)]))
"""


def test_a_restore_in_a_fresh_interpreter_shares_the_singleton(tmp_path):
    """The restore runs before anything imports :mod:`repro.telemetry`,
    resolves the pickled name to the one object and imports no
    telemetry."""
    from repro.harness.load_sweep import figure1_network
    from repro.sim.snapshot import snapshot_network

    network = figure1_network(seed=3)
    network.run(20)
    path = str(tmp_path / "figure1.snap")
    snapshot_network(network).save(path)
    assert fresh_json(_RESTORE_PROBE, path) == [24 + 16, True]  # routers + endpoints
    assert fresh_json(_RESTORE_PROBE, GOLDEN_PATH)[1] is True


def _regen():
    os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
    snap = _capture()
    snap.save(GOLDEN_PATH)
    print(
        "wrote {} (format v{}, cycle {}, sha256 {})".format(
            GOLDEN_PATH, snap.version, snap.cycle, snap.content_hash[:12]
        )
    )


if __name__ == "__main__":
    import sys

    if "--regen" in sys.argv:
        _regen()
    else:
        print(__doc__)
