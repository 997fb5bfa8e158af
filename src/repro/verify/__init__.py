"""Verification tooling: conformance oracle, differential tester, shrinker.

Three independent checks on the simulator's faithfulness to the METRO
protocol (paper, Sections 4-5):

* :mod:`repro.verify.oracle` — an online conformance checker attached
  to the simulation engine, validating protocol invariants on every
  clock cycle (locked circuits, pipelined TURN reversal, per-router
  STATUS checksums, BCB path reclamation, cascade IN-USE agreement).
* :mod:`repro.verify.differential` — randomized network configurations
  run through both the cycle-accurate simulator and the Table 4
  latency equations, asserting exact agreement.
* :mod:`repro.verify.shrink` — delta debugging for failing scenarios:
  reduces a failing configuration or message plan to a minimal
  reproduction worth committing to the test suite.

Two equivalence proofs build on those checks, both loops over one
table of seven workload families (:mod:`repro.verify.families`: what a
family builds, how it is driven, what its fingerprint holds, where it
is split):

* :mod:`repro.verify.backend_diff` — byte-identical equivalence
  between the dense reference engine and the events backend.
* :mod:`repro.verify.resume_diff` — byte-identical transparency of
  engine snapshot/restore (:mod:`repro.sim.snapshot`), including
  cross-backend restores.
"""

from repro.verify.oracle import (
    CascadeOracle,
    Oracle,
    OracleViolationError,
    Violation,
    attach_cascade_oracle,
    attach_oracle,
)
from repro.verify.resume_diff import ResumeReport, resume_point

__all__ = [
    "CascadeOracle",
    "Oracle",
    "OracleViolationError",
    "ResumeReport",
    "Violation",
    "attach_cascade_oracle",
    "attach_oracle",
    "resume_point",
]
