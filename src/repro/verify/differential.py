"""Differential testing: cycle-accurate simulator vs. Table 4 equations.

The repository carries two independent models of an unloaded METRO
network: the cycle-accurate simulator and the closed-form latency
equations of :mod:`repro.latency_model.equations` (Table 4).  This
module runs randomized ``(r, d, vtd, dp, hw)`` configurations through
*both* and asserts they agree exactly.

The mapping: take the equations at ``t_clk = 1`` (so every time is in
clock cycles), ``t_io = vtd`` and ``t_wire = 0`` (so the interconnect
term equals the simulated channel pipeline depth), and message bits
``(payload_words + 1) * w`` (payload plus the end-to-end checksum
word).  The model then predicts the one-way head-to-tail delivery
time; the simulator's observable is the cycle the destination endpoint
accepts the message (its TURN arrival) minus the send start cycle.

The two differ by a *fixed, stated slack* of ``vtd + 1`` cycles:

* ``+ vtd`` — the model charges the head ``stages`` chip-to-chip hops,
  while the simulated path crosses ``stages + 1`` physical channels
  (the final hop into the destination endpoint);
* ``+ 1`` — the TURN token that hands the connection to the receiver
  occupies one word slot the bit-count model does not bill.

Anything other than exact agreement at that slack is a mismatch: one
of the two models is wrong about pipelining, header length, or stream
framing.  Trials are independent and picklable, so the sweep fans out
over the :class:`~repro.harness.parallel.TrialRunner` and is
bit-identical serial or parallel.
"""

from repro.core.random_source import derive_seed
from repro.endpoint.messages import DELIVERED
from repro.harness.spec import TrialSpec
from repro.latency_model import equations
from repro.verify.scenario import Scenario, random_scenario


def model_one_way(scenario):
    """The Table 4 prediction for the scenario's one-way latency."""
    payload_words = len(scenario.messages[0]["payload"])
    predicted = equations.t_20_32(
        t_clk=1,
        t_io=scenario.link_delay,
        dp=scenario.dp,
        hw=scenario.hw,
        w=scenario.w,
        c=1,
        stage_radices=[scenario.radix] * scenario.n_stages,
        t_wire=0.0,
        message_bits=(payload_words + 1) * scenario.w,
    )
    return int(round(predicted))


def model_slack(scenario):
    """The stated simulator-vs-model slack: the final channel hop into
    the destination plus the TURN token's word slot."""
    return scenario.link_delay + 1


def compare(scenario, max_cycles=50000):
    """Run ``scenario`` through both models; returns a result dict.

    The scenario must carry exactly one message (the unloaded case the
    equations describe).  The returned dict is picklable/JSON-able:
    keys ``ok``, ``sim``, ``model``, ``slack``, ``delta``, ``detail``,
    ``scenario``, ``violations``.
    """
    if len(scenario.messages) != 1:
        raise ValueError("differential scenarios carry exactly one message")
    result = scenario.run(max_cycles=max_cycles)
    report = {
        "scenario": scenario.as_dict(),
        "model": model_one_way(scenario),
        "slack": model_slack(scenario),
        "sim": None,
        "delta": None,
        "ok": False,
        "detail": "",
        "violations": result.violations,
    }
    if result.outcomes != [DELIVERED]:
        report["detail"] = "message not delivered: {}".format(result.outcomes)
        return report
    if result.attempts != [1]:
        report["detail"] = "unloaded send took {} attempts".format(
            result.attempts[0]
        )
        return report
    if result.violations:
        report["detail"] = "oracle violations: {}".format(
            result.violation_rules()
        )
        return report
    sim = result.arrivals[0] - result.start_cycles[0]
    report["sim"] = sim
    report["delta"] = sim - report["model"]
    if report["delta"] != report["slack"]:
        report["detail"] = (
            "sim={} model={} delta={} != stated slack {}".format(
                sim, report["model"], report["delta"], report["slack"]
            )
        )
        return report
    report["ok"] = True
    return report


def run_trial(seed):
    """One differential trial (module-level for TrialSpec workers)."""
    return compare(random_scenario(seed, n_messages=1))


def differential_specs(n_trials, root_seed=0):
    """The picklable spec list for an ``n_trials`` differential sweep."""
    return [
        TrialSpec(
            runner="repro.verify.differential:run_trial",
            params={},
            seed=derive_seed(root_seed, "verify-differential", index),
            label="diff[{}]".format(index),
        )
        for index in range(n_trials)
    ]


def mismatch_aware_run(max_cycles=50000):
    """A Scenario runner for the shrinker that also checks the model.

    Wraps :meth:`Scenario.run` so that a simulator-vs-model latency
    disagreement surfaces as a synthetic ``differential-mismatch``
    violation — giving the shrinker a failure tag to preserve even when
    the conformance oracle itself is clean.
    """

    def run(scenario):
        result = scenario.run(max_cycles=max_cycles)
        if (
            len(scenario.messages) == 1
            and result.all_delivered
            and result.attempts == [1]
            and result.arrivals
        ):
            sim = result.arrivals[0] - result.start_cycles[0]
            delta = sim - model_one_way(scenario)
            if delta != model_slack(scenario):
                result.violations.append(
                    (
                        result.arrivals[0],
                        "latency-model",
                        None,
                        "differential-mismatch",
                        "sim={} model={} delta={}".format(
                            sim, model_one_way(scenario), delta
                        ),
                    )
                )
        return result

    return run
