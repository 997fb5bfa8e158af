"""Synchronous, cycle-accurate simulation kernel.

METRO networks are globally clocked: every router and wire advances in
lockstep from a central clock (paper, Section 3).  This package provides
the two-phase simulation engine that models that clock:

* :class:`~repro.sim.component.Component` — anything with per-cycle
  behaviour (routers, endpoints, fault injectors).
* :class:`~repro.sim.channel.Channel` — a point-to-point wire modeled as
  ``delay`` pipeline registers in each direction, matching the paper's
  wire-as-pipeline-registers assumption (Section 5.1, Variable Turn
  Delay), plus the backward-control-bit (BCB) sideband used for fast
  path reclamation.
* :class:`~repro.sim.engine.Engine` — steps all components, then
  advances all channels, so evaluation order never matters.
* :mod:`repro.sim.snapshot` — versioned capture/restore of live engine
  state (checkpointing, warm starts, crash-safe soaks).
"""

from repro.sim.channel import Channel, ChannelEnd
from repro.sim.component import Component
from repro.sim.engine import Engine
from repro.sim.snapshot import (
    SNAPSHOT_FORMAT_VERSION,
    Snapshot,
    SnapshotFormatError,
    restore_engine,
    restore_network,
    snapshot_engine,
    snapshot_network,
)

__all__ = [
    "Channel",
    "ChannelEnd",
    "Component",
    "Engine",
    "SNAPSHOT_FORMAT_VERSION",
    "Snapshot",
    "SnapshotFormatError",
    "restore_engine",
    "restore_network",
    "snapshot_engine",
    "snapshot_network",
]
