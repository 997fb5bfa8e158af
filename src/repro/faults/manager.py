"""Online self-healing: detect → localize → mask → recover.

The paper's reliability story is a *closed loop* (Sections 1, 4, 5.1):
sources detect damaged connections from the evidence their own
protocol already produces (missing or blocked STATUS words, bad
checksums, silence), retries route around the damage, and — once the
fault is localized — scan control disables the faulty ports so the
fault is masked and stops corrupting traffic.  The pieces exist
elsewhere in this reproduction (``endpoint.interface`` produces the
evidence, ``faults.diagnosis`` isolation-tests wires and masks the
failing ones through scan); :class:`FaultManager` closes the loop
*online*, while traffic keeps flowing.

The loop:

1. **Detect.**  Every endpoint's ``fault_listener`` hook reports each
   failed attempt (cause + STATUS vector) to the manager as it
   happens.
2. **Localize.**  Each failure is converted to a *suspect stage*:
   blocked attempts name the blocking stage directly (weakly — blocking
   is mostly congestion), while timeouts/corruption/nacks are localized
   by comparing the attempt's STATUS checksums against the expected
   values (:func:`~repro.faults.diagnosis.suspect_stage_from_statuses`).
   Per-stage suspicion scores accumulate with exponential decay, so
   isolated failures fade while a real fault's steady evidence ramps.
3. **Mask.**  When a stage's suspicion crosses threshold the manager
   schedules a repair and stops the engine; the driving
   loop calls :meth:`service` between run windows.  A repair runs
   :func:`~repro.faults.diagnosis.port_isolation_test` on every
   unmasked wire of the suspect layers — it quiesces the wire's
   circuits first so live traffic cannot fake a failure, and leaves
   the ports of a failing wire disabled.  Dead routers need no
   special case: a silent router fails the isolation tests of all its
   wires, so the whole region is masked.
4. **Recover.**  The manager watches the delivered rate (windowed
   count of acked deliveries) rebound toward its pre-fault peak and
   marks repairs ``verified`` when it crosses the recovery ratio.

Isolation tests run ``network.run(...)`` internally, so :meth:`service`
must be called *between* engine runs, never from inside a tick — the
manager only accumulates evidence during the simulation proper.
"""

from repro.endpoint import messages as M
from repro.faults.diagnosis import (
    port_isolation_test,
    suspect_stage_from_statuses,
)
from repro.sim.component import BackReference, Component

#: Evidence weight per failure cause.  Blocked attempts are mostly
#: congestion, so they barely move the needle; silence, corruption and
#: nacks are strong fault signals.
DEFAULT_WEIGHTS = {
    M.TIMEOUT: 1.0,
    M.DIED: 1.0,
    M.CORRUPTED: 1.5,
    M.NACKED: 1.0,
    M.BLOCKED: 0.05,
    M.BLOCKED_FAST: 0.05,
}


class FaultManager(Component):
    """Evidence-driven online fault localization and scan masking.

    :param network: the :class:`~repro.network.builder.MetroNetwork`
        to manage; the manager installs itself as an engine observer
        and hooks every endpoint's ``fault_listener``.
    :param rate_window: cycles per delivered-rate window (recovery
        verification granularity).

    Its tuning is fixed, one class constant each: a stage is repaired
    when its suspicion reaches :attr:`threshold`; half of a stage's
    suspicion decays every :attr:`decay_half_life` cycles, so isolated
    failures fade while a persistent fault ramps; a post-repair window
    must reach :attr:`recovery_ratio` of the pre-repair peak window
    rate for the repair to be ``verified``; and for :attr:`cooldown`
    cycles after a stage's repair fresh threshold crossings for it are
    ignored, because masking shrinks path diversity, blocked evidence
    rises, and congestion noise must not trigger repeated fruitless
    isolation sweeps.  Evidence is weighed by :data:`DEFAULT_WEIGHTS`
    (missing causes count 0) and wires are tested and masked by
    :func:`~repro.faults.diagnosis.port_isolation_test`.  A due repair
    stops the engine, so a driving loop alternates ``run`` and
    :meth:`service`.

    The manager is an engine observer and every endpoint's listener,
    so it holds its network weakly
    (:class:`~repro.sim.component.BackReference`): dropping the
    network frees it at once.
    """

    threshold = 5.0
    decay_half_life = 600
    recovery_ratio = 0.9
    cooldown = 1000

    def __init__(self, network, rate_window=200):
        self._network = BackReference(network)
        self.name = "faultmgr"
        self.rate_window = rate_window
        self._cooldown_until = {}

        self.n_stages = network.plan.n_stages
        #: Per-stage suspicion scores (exponentially decayed).
        self.suspicion = {}
        self._touched = {}
        #: Stages whose suspicion crossed threshold, awaiting service().
        self.due = []
        #: Wire keys ``(src_key, dst_key)`` already masked.
        self.masked = set()
        #: Picklable mask history: dicts of cycle/src/dst/stage.
        self.mask_events = []
        #: Repair history: dicts of cycle/stage/layers/masked/verified.
        self.repairs = []
        self.evidence_count = 0
        self._servicing = False

        #: Delivered-rate windows ``(start_cycle, delivered)`` and the
        #: running peak, for recovery verification.
        self.window_rates = []
        self.peak_window = 0
        self._window_start = 0
        self._window_count = 0
        self._msg_cursor = 0
        self._cycle = 0

        self._telemetry = getattr(network, "telemetry", None)
        if self._telemetry is not None and not self._telemetry.enabled:
            self._telemetry = None

        for endpoint in network.endpoints:
            endpoint.fault_listener = self._on_attempt_failure
        network.engine.add_observer(self)

    @property
    def network(self):
        """The managed network, or None once it has been dropped."""
        return self._network()

    # ------------------------------------------------------------------
    # Detection: evidence accumulation (runs inside the simulation)
    # ------------------------------------------------------------------

    def _on_attempt_failure(self, cycle, endpoint, send, cause, blocked_stage):
        weight = DEFAULT_WEIGHTS.get(cause, 0.0)
        if weight <= 0.0:
            return
        suspect = self._localize(endpoint, send, cause, blocked_stage)
        self.evidence_count += 1
        if self._telemetry is not None:
            self._telemetry.registry.counter(
                "faultmgr.evidence", cause=cause, stage=suspect
            ).inc()
        score = self._bump(suspect, weight, cycle)
        if cycle < self._cooldown_until.get(suspect, 0):
            return
        if score >= self.threshold and suspect not in self.due:
            self.due.append(suspect)
            if self._telemetry is not None:
                self._telemetry.registry.counter(
                    "faultmgr.repairs_scheduled", stage=suspect
                ).inc()
            if not self._servicing:
                self.network.engine.stop()

    def _localize(self, endpoint, send, cause, blocked_stage):
        """Suspect stage (0-based) for one failed attempt."""
        if blocked_stage is not None:
            # BLOCKED/BLOCKED_FAST report a 1-based blocking stage.
            return min(max(blocked_stage - 1, 0), self.n_stages - 1)
        expected = endpoint.expected_stage_checksums(send.message)
        suspect = suspect_stage_from_statuses(expected, send.statuses)
        if suspect is None:
            # Every stage reported clean: the damage is past the last
            # router (final wire or destination).
            return self.n_stages - 1
        return suspect

    def _bump(self, stage, weight, cycle):
        score = self.suspicion.get(stage, 0.0)
        touched = self._touched.get(stage, cycle)
        if cycle > touched:
            score *= 0.5 ** ((cycle - touched) / self.decay_half_life)
        score += weight
        self.suspicion[stage] = score
        self._touched[stage] = cycle
        return score

    # ------------------------------------------------------------------
    # Recovery watch (engine observer)
    # ------------------------------------------------------------------

    def tick(self, cycle):
        self._cycle = cycle
        messages = self.network.log.messages
        while self._msg_cursor < len(messages):
            if messages[self._msg_cursor].outcome == M.DELIVERED:
                self._window_count += 1
            self._msg_cursor += 1
        if cycle - self._window_start >= self.rate_window:
            self._close_window(cycle)

    def _close_window(self, cycle):
        self.window_rates.append((self._window_start, self._window_count))
        if self._window_count > self.peak_window:
            self.peak_window = self._window_count
        floor = self.recovery_ratio * self.peak_window
        for repair in self.repairs:
            if repair["verified"] or repair["cycle"] > self._window_start:
                continue
            if self._window_count >= floor:
                repair["verified"] = True
                repair["verified_cycle"] = cycle
                if self._telemetry is not None:
                    self._telemetry.registry.counter(
                        "faultmgr.repairs_verified", stage=repair["stage"]
                    ).inc()
        self._window_start = cycle
        self._window_count = 0

    # ------------------------------------------------------------------
    # Repair: localization + masking (runs BETWEEN engine runs)
    # ------------------------------------------------------------------

    def service(self):
        """Perform every due repair; returns the repair records.

        Must be called between ``network.run(...)`` windows (isolation
        tests run the engine internally).  The engine halts as soon as
        a repair becomes due, so the driving loop simply alternates
        ``run``/``service`` until done.
        """
        if self._servicing or not self.due:
            return []
        self._servicing = True
        performed = []
        try:
            while self.due:
                stage = self.due.pop(0)
                self.suspicion[stage] = 0.0
                record = self._repair_stage(stage)
                self.repairs.append(record)
                performed.append(record)
                self._cooldown_until[stage] = self._cycle + self.cooldown
        finally:
            self._servicing = False
        return performed

    def _repair_stage(self, stage):
        """Isolation-test the layers a suspect stage implicates.

        Suspect stage ``s`` means "the wire into stage ``s`` or the
        stage-``s`` router itself", so the wire layers on both sides
        of the router are tested (layer ``L`` holds the wires from
        stage ``L`` to ``L + 1``).
        """
        top_layer = self.n_stages - 2
        layers = sorted(
            {
                min(max(stage - 1, 0), top_layer),
                min(max(stage, 0), top_layer),
            }
        )
        record = {
            "cycle": self._cycle,
            "stage": stage,
            "layers": layers,
            "masked": [],
            "verified": False,
            "verified_cycle": None,
        }
        for layer in layers:
            record["masked"].extend(self._diagnose_layer(layer))
        return record

    def _diagnose_layer(self, layer):
        """Isolation-test every unmasked wire of one inter-stage layer."""
        masked = []
        for src_key, dst_key in list(self.network.channels):
            if src_key[0] != "router" or dst_key[0] != "router":
                continue
            if src_key[1] != layer:
                continue
            if (src_key, dst_key) in self.masked:
                # A mask is a standing repair: re-testing would hand a
                # flaky wire its ports back during a quiet spell.
                continue
            passed, _observations = port_isolation_test(
                self.network, src_key, dst_key
            )
            if passed:
                continue
            self.masked.add((src_key, dst_key))
            self.mask_events.append(
                {
                    "cycle": self._cycle,
                    "src": src_key,
                    "dst": dst_key,
                    "stage": src_key[1],
                }
            )
            if self._telemetry is not None:
                self._telemetry.registry.counter(
                    "faultmgr.masked_wires", stage=src_key[1]
                ).inc()
            masked.append((src_key, dst_key))
        return masked
