"""The name engine snapshots pickle the null telemetry object under.

:data:`~repro.sim.component.NULL_TELEMETRY` lives in
:mod:`repro.sim.component`; its ``__reduce__`` pickles it as a call to
:func:`_null_telemetry` here, which is the reference every snapshot on
disk (``tests/fixtures/golden_snapshot.bin`` included) already holds.
Restoring one resolves it to the singleton.
"""

from repro.sim.component import NULL_TELEMETRY


def _null_telemetry():
    return NULL_TELEMETRY
