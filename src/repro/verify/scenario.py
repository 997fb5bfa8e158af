"""Randomized, picklable verification scenarios.

A :class:`Scenario` is a complete, self-contained description of one
verification run: a uniform network shape — the ``(r, d, vtd, dp, hw)``
axes of the paper's design space — plus the messages to send through
it.  Scenarios are plain data (JSON round-trippable), so a failing one
can be shrunk by :mod:`repro.verify.shrink`, committed to the test
suite, and replayed from the CLI (``repro verify --replay``).

Running a scenario always attaches the conformance oracle; the
resulting :class:`ScenarioResult` carries delivery outcomes and every
violation the oracle recorded, in a picklable form suitable for the
parallel :class:`~repro.harness.parallel.TrialRunner`.
"""

import json
import random

from repro.core.parameters import RouterParameters
from repro.endpoint.messages import DELIVERED, Message
from repro.network.builder import build_network
from repro.network.topology import NetworkPlan, StageSpec
from repro.verify.oracle import attach_oracle


class Scenario:
    """One verification run: a uniform network plus a message plan.

    :param radix: logical radix ``r`` of every stage (power of two).
    :param dilation: dilation ``d`` of every stage (routers are
        ``r*d x r*d`` parts).
    :param n_stages: network depth; endpoints number ``r ** n_stages``.
    :param w: datapath width in bits.
    :param hw: header words consumed per router (0 = shift/swallow).
    :param dp: router pipeline depth.
    :param link_delay: uniform channel pipeline depth (the ``vtd``).
    :param seed: master seed for wiring and router randomness.
    :param fast_reclaim: enable BCB fast path reclamation.
    :param messages: list of ``{"src", "dest", "payload"}`` dicts.
    """

    FIELDS = (
        "radix",
        "dilation",
        "n_stages",
        "w",
        "hw",
        "dp",
        "link_delay",
        "seed",
        "fast_reclaim",
        "messages",
    )

    def __init__(
        self,
        radix=2,
        dilation=1,
        n_stages=1,
        w=4,
        hw=0,
        dp=1,
        link_delay=1,
        seed=0,
        fast_reclaim=False,
        messages=(),
    ):
        self.radix = radix
        self.dilation = dilation
        self.n_stages = n_stages
        self.w = w
        self.hw = hw
        self.dp = dp
        self.link_delay = link_delay
        self.seed = seed
        self.fast_reclaim = fast_reclaim
        self.messages = [dict(m) for m in messages]

    # ------------------------------------------------------------------
    # Serialization (JSON-committable reproductions)
    # ------------------------------------------------------------------

    def as_dict(self):
        return {name: getattr(self, name) for name in self.FIELDS}

    @classmethod
    def from_dict(cls, data):
        return cls(**data)

    def to_json(self):
        return json.dumps(self.as_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text):
        return cls.from_dict(json.loads(text))

    def save(self, path):
        with open(path, "w") as handle:
            handle.write(self.to_json() + "\n")

    @classmethod
    def load(cls, path):
        with open(path) as handle:
            return cls.from_json(handle.read())

    def __eq__(self, other):
        return isinstance(other, Scenario) and self.as_dict() == other.as_dict()

    def __repr__(self):
        return (
            "<Scenario r={} d={} stages={} w={} hw={} dp={} vtd={} "
            "seed={} msgs={}>".format(
                self.radix,
                self.dilation,
                self.n_stages,
                self.w,
                self.hw,
                self.dp,
                self.link_delay,
                self.seed,
                len(self.messages),
            )
        )

    # ------------------------------------------------------------------
    # Derived structure
    # ------------------------------------------------------------------

    @property
    def n_endpoints(self):
        return self.radix ** self.n_stages

    def params(self):
        ports = self.radix * self.dilation
        return RouterParameters(
            i=ports,
            o=ports,
            w=self.w,
            max_d=self.dilation,
            hw=self.hw,
            dp=self.dp,
        )

    def plan(self):
        params = self.params()
        stages = [StageSpec(params, self.dilation) for _ in range(self.n_stages)]
        # Find the smallest endpoint multiplicity that wires up evenly
        # (dilated stages need enough wires per block to fill routers).
        # Keep the message, not the exception: its traceback would pin
        # the calling frames, and through them the network being built.
        last_error = None
        for m in (1, 2, 4, 8):
            try:
                return NetworkPlan(self.n_endpoints, m, m, stages)
            except ValueError as error:
                last_error = str(error)
        raise ValueError(
            "no endpoint multiplicity wires up {!r}: {}".format(self, last_error)
        )

    def build(self, backend="reference", **endpoint_kwargs):
        return build_network(
            self.plan(),
            seed=self.seed,
            link_delay=self.link_delay,
            fast_reclaim=self.fast_reclaim,
            endpoint_kwargs=endpoint_kwargs or None,
            backend=backend,
        )

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def start(self, backend="reference"):
        """Build the network, attach the conformance oracle and submit
        every message; nothing is run.  Returns ``(network, oracle,
        sent)``, ``sent`` being the submitted messages in plan order."""
        network = self.build(backend=backend, verify_stage_checksums=True)
        oracle = attach_oracle(network)
        sent = [
            network.send(
                m["src"], Message(dest=m["dest"], payload=list(m["payload"]))
            )
            for m in self.messages
        ]
        return network, oracle, sent

    def run(self, max_cycles=50000, backend="reference"):
        """Simulate the scenario under the conformance oracle."""
        network, oracle, sent = self.start(backend)
        quiet = finish_scenario(network, oracle, max_cycles=max_cycles)
        return ScenarioResult(
            scenario=self,
            quiet=quiet,
            outcomes=[m.outcome for m in sent],
            attempts=[m.attempts for m in sent],
            start_cycles=[m.start_cycle for m in sent],
            arrivals=[entry[0] for entry in network.log.receiver_arrivals],
            checksum_failures=network.log.receiver_checksum_failures,
            violations=[
                (v.cycle, v.router, v.port, v.rule, v.detail)
                for v in oracle.violations
            ],
        )


def finish_scenario(network, oracle, max_cycles=50000):
    """Drive a started scenario until the network is quiet, then hold
    the quiet network to the oracle's leak inventory.  Returns whether
    it went quiet within ``max_cycles``."""
    quiet = network.run_until_quiet(max_cycles=max_cycles)
    if quiet:
        oracle.check_quiescent(network.engine.cycle)
    return quiet


class ScenarioResult:
    """Picklable outcome of one :meth:`Scenario.run`."""

    __slots__ = (
        "scenario",
        "quiet",
        "outcomes",
        "attempts",
        "start_cycles",
        "arrivals",
        "checksum_failures",
        "violations",
    )

    def __init__(
        self,
        scenario,
        quiet,
        outcomes,
        attempts,
        start_cycles,
        arrivals,
        checksum_failures,
        violations,
    ):
        self.scenario = scenario
        self.quiet = quiet
        self.outcomes = outcomes
        self.attempts = attempts
        self.start_cycles = start_cycles
        self.arrivals = arrivals
        self.checksum_failures = checksum_failures
        self.violations = violations

    @property
    def all_delivered(self):
        return all(outcome == DELIVERED for outcome in self.outcomes)

    @property
    def clean(self):
        """True when nothing at all went wrong."""
        return (
            self.quiet
            and self.all_delivered
            and not self.violations
            and self.checksum_failures == 0
        )

    def violation_rules(self):
        return sorted({v[3] for v in self.violations})

    def __repr__(self):
        return "<ScenarioResult clean={} outcomes={} violations={}>".format(
            self.clean, self.outcomes, len(self.violations)
        )


# ---------------------------------------------------------------------------
# Random generation
# ---------------------------------------------------------------------------

#: The randomized design-space axes (kept modest so any single draw
#: simulates in well under a second; the sweep gets its coverage from
#: the number of draws, not the size of each one).
RADIX_CHOICES = (2, 4)
DILATION_CHOICES = (1, 2)
STAGE_CHOICES = (1, 2, 3)
HW_CHOICES = (0, 1, 2)
DP_CHOICES = (1, 2, 3)
LINK_DELAY_CHOICES = (1, 2, 3)
MAX_PAYLOAD_WORDS = 12


def random_scenario(seed, n_messages=1):
    """Draw a random scenario from the ``(r, d, vtd, dp, hw)`` space.

    Deterministic in ``seed``; the same seed always produces the same
    scenario (the contract the trial cache and the shrinker rely on).
    """
    rng = random.Random(seed)
    radix = rng.choice(RADIX_CHOICES)
    n_stages = rng.choice(STAGE_CHOICES)
    if radix == 4 and n_stages == 3:
        n_stages = 2  # keep 64-endpoint draws out of the quick sweep
    scenario = Scenario(
        radix=radix,
        dilation=rng.choice(DILATION_CHOICES),
        n_stages=n_stages,
        w=4,
        hw=rng.choice(HW_CHOICES),
        dp=rng.choice(DP_CHOICES),
        link_delay=rng.choice(LINK_DELAY_CHOICES),
        seed=rng.getrandbits(32),
        fast_reclaim=bool(rng.getrandbits(1)),
        messages=[],
    )
    n_endpoints = scenario.n_endpoints
    for _ in range(n_messages):
        src = rng.randrange(n_endpoints)
        dest = rng.randrange(n_endpoints)
        payload = [
            rng.randrange(1 << scenario.w)
            for _ in range(rng.randint(1, MAX_PAYLOAD_WORDS))
        ]
        scenario.messages.append({"src": src, "dest": dest, "payload": payload})
    return scenario
