"""Public API surface: every exported name resolves."""

import importlib

import pytest

from tests.fresh import fresh_json

PACKAGES = [
    "repro",
    "repro.core",
    "repro.sim",
    "repro.network",
    "repro.endpoint",
    "repro.faults",
    "repro.scan",
    "repro.latency_model",
    "repro.harness",
    "repro.baseline",
    "repro.telemetry",
]


#: Run in a fresh interpreter: in the suite's own process a submodule
#: another test imported is an attribute of its package, so an
#: ``__all__`` entry naming a submodule the package never imports would
#: pass or fail by test order.
_EXPORTS_PROBE = """
import importlib, json, sys

failures = {}
for name in sys.argv[1:]:
    try:
        module = importlib.import_module(name)
        assert hasattr(module, "__all__"), name
        for exported in module.__all__:
            assert hasattr(module, exported), (name, exported)
    except AssertionError as error:
        failures[name] = repr(error.args)
print(json.dumps(failures))
"""


@pytest.fixture(scope="module")
def export_failures():
    """``{package: assertion args}`` for every package of :data:`PACKAGES`
    whose ``__all__`` fails to resolve, all checked in one fresh
    interpreter."""
    return fresh_json(_EXPORTS_PROBE, *PACKAGES)


@pytest.mark.parametrize("name", PACKAGES)
def test_all_exports_resolve(name, export_failures):
    assert name not in export_failures, export_failures[name]


@pytest.mark.parametrize("name", PACKAGES)
def test_module_docstrings_exist(name):
    module = importlib.import_module(name)
    assert module.__doc__ and len(module.__doc__.strip()) > 20, name


def test_top_level_convenience_names():
    import repro

    network = repro.build_network(repro.figure1_plan(), seed=1)
    message = network.send(0, repro.Message(dest=3, payload=[1]))
    assert network.run_until_quiet(max_cycles=5000)
    assert message.outcome == "delivered"


def test_version_string():
    import repro

    parts = repro.__version__.split(".")
    assert len(parts) == 3
    assert all(part.isdigit() for part in parts)


SUBMODULES = [
    "repro.core.cascade",
    "repro.core.crossbar",
    "repro.core.parameters",
    "repro.core.random_source",
    "repro.core.router",
    "repro.core.words",
    "repro.sim.channel",
    "repro.sim.component",
    "repro.sim.engine",
    "repro.sim.waveform",
    "repro.network.analysis",
    "repro.network.builder",
    "repro.network.cascaded",
    "repro.network.fattree",
    "repro.network.headers",
    "repro.network.multibutterfly",
    "repro.network.topology",
    "repro.network.validate",
    "repro.endpoint.interface",
    "repro.endpoint.messages",
    "repro.endpoint.traffic",
    "repro.faults.diagnosis",
    "repro.faults.injector",
    "repro.faults.model",
    "repro.scan.chain",
    "repro.scan.multitap",
    "repro.scan.netconfig",
    "repro.scan.registers",
    "repro.scan.tap",
    "repro.latency_model.blocking",
    "repro.latency_model.contemporaries",
    "repro.latency_model.cost",
    "repro.latency_model.equations",
    "repro.latency_model.general",
    "repro.latency_model.implementations",
    "repro.harness.breakdown",
    "repro.harness.cache",
    "repro.harness.experiment",
    "repro.harness.fault_sweep",
    "repro.harness.load_sweep",
    "repro.harness.parallel",
    "repro.harness.pool",
    "repro.harness.reporting",
    "repro.harness.saturation",
    "repro.harness.spec",
    "repro.harness.sweeps",
    "repro.baseline.builder",
    "repro.baseline.harness",
    "repro.baseline.wormhole",
    "repro.telemetry.hub",
    "repro.telemetry.metrics",
    "repro.telemetry.spans",
    "repro.verify.backend_diff",
    "repro.verify.families",
    "repro.verify.resume_diff",
    "repro.stats",
    "repro.cli",
]


@pytest.mark.parametrize("name", SUBMODULES)
def test_every_module_imports_and_is_documented(name):
    module = importlib.import_module(name)
    assert module.__doc__ and len(module.__doc__.strip()) > 30, name
