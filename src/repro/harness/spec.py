"""Trial specs and their identity: what a trial is, and what it is called.

A :class:`TrialSpec` is a picklable description of one independent
trial: a runner function (named by ``"module:function"`` so worker
processes import it fresh), its parameters, and the trial's derived
seed.  Everything that names a trial on disk is computed here, from one
canonical form:

* :meth:`TrialSpec.fingerprint` — the trial-cache key: sha256 over
  (code version, runner, canonical parameters, seed);
* :func:`journal_trial_key` — what a run journal calls the trial: the
  same fingerprint when the spec is cacheable, else a label key;
* :func:`repro_code_version` — the fingerprint of the installed source
  tree that makes any source edit invalidate every cached trial
  (``REPRO_CODE_VERSION`` overrides it).

:func:`execute_trial` is the one place a spec is turned into a call.
This module imports nothing from the rest of the harness (the runner,
the pool, the cache and the journal all build on it).  See
``docs/parallel.md``.
"""

import hashlib
import importlib
import json
import os
import time

from repro.telemetry.watchdog import HEARTBEAT_ENV


def _canonicalize(value, opaque):
    """A JSON-able canonical form of ``value`` for content hashing.

    Callables and classes are named by ``module:qualname``; anything
    else without a stable importable identity (lambdas, closures,
    instances of arbitrary classes) is rendered opaquely and flips
    ``opaque[0]`` so the spec is marked uncacheable rather than cached
    under an ambiguous key.
    """
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (list, tuple)):
        return [_canonicalize(v, opaque) for v in value]
    if isinstance(value, dict):
        return [
            [_canonicalize(k, opaque), _canonicalize(v, opaque)]
            for k, v in sorted(value.items(), key=lambda kv: repr(kv[0]))
        ]
    if callable(value):
        module = getattr(value, "__module__", None)
        qualname = getattr(value, "__qualname__", None)
        if module and qualname and "<" not in qualname:
            return "callable:{}:{}".format(module, qualname)
        opaque[0] = True
        return "opaque-callable:{}".format(qualname or repr(value))
    opaque[0] = True
    return "opaque:{}".format(repr(value))


def _digest(structure, code_version):
    """sha256 hex digest of a canonical structure under a code version."""
    code = code_version if code_version is not None else repro_code_version()
    blob = json.dumps(
        dict(structure, code=code), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class TrialSpec:
    """One independent trial, ready to run anywhere.

    :param runner: the trial function — either a ``"module:function"``
        string (preferred: always picklable, cache keys are stable) or
        a module-level callable.  It is invoked as
        ``runner(seed=seed, **params)`` and must return a picklable
        result.
    :param params: keyword arguments for the runner.  Values may
        include module-level callables (network factories, traffic
        classes); lambdas work in serial runs but make the spec
        uncacheable and unpicklable.
    :param seed: this trial's seed — derive it from the sweep's root
        seed with :func:`repro.core.random_source.derive_seed`.
    :param label: display name for progress output.
    """

    def __init__(self, runner, params=None, seed=0, label=None):
        self.runner = runner
        self.params = dict(params or {})
        self.seed = seed
        self.label = label if label is not None else self._default_label()

    def _default_label(self):
        name = self.runner if isinstance(self.runner, str) else getattr(
            self.runner, "__name__", repr(self.runner)
        )
        return "{}(seed={})".format(name.rsplit(":", 1)[-1], self.seed)

    def resolve_runner(self):
        """The runner callable (importing it if named by string)."""
        if isinstance(self.runner, str):
            return resolve(self.runner)
        return self.runner

    def canonical(self):
        """(canonical structure, cacheable flag) for this spec."""
        opaque = [False]
        structure = {
            "runner": _canonicalize(
                self.runner if isinstance(self.runner, str)
                else self.resolve_runner(),
                opaque,
            ),
            "params": _canonicalize(self.params, opaque),
            "seed": self.seed,
        }
        return structure, not opaque[0]

    def cacheable(self):
        """True when every parameter has a stable hashable identity."""
        return self.canonical()[1]

    def fingerprint(self, code_version=None):
        """Cache key: sha256 over (code version, runner, params, seed)."""
        return _digest(self.canonical()[0], code_version)

    def __repr__(self):
        return "<TrialSpec {} seed={}>".format(self.label, self.seed)


def resolve(path):
    """The module-level function a ``"module:function"`` path names."""
    module_name, _, attr = path.partition(":")
    if not attr:
        raise ValueError(
            "runner string must be 'module:function', got {!r}".format(path)
        )
    return getattr(importlib.import_module(module_name), attr)


def trial_keys(spec):
    """``(journal key, cache key or None)`` from one canonicalisation.

    A spec is mutable, so nothing is memoised here: whoever runs a
    batch asks once per spec and keeps the answer for the batch.
    """
    structure, cacheable = spec.canonical()
    if cacheable:
        key = _digest(structure, None)
        return key, key
    return "label:" + str(spec.label), None


def journal_trial_key(spec):
    """The stable identity a journal records for ``spec``.

    Cacheable specs use their content fingerprint (so the journal and
    the trial cache agree on identity); uncacheable ones fall back to
    ``"label:<label>"`` — resumable only if labels are unique and
    stable across runs.
    """
    return trial_keys(spec)[0]


def execute_trial(spec, heartbeat_path=None):
    """Run one spec; returns ``(result, elapsed_seconds)``.

    Module-level so worker processes can unpickle references to it.
    ``heartbeat_path`` exports :data:`~repro.telemetry.watchdog
    .HEARTBEAT_ENV` for the duration of the trial, so any harness that
    attaches a :class:`~repro.telemetry.watchdog.RunWatchdog` writes
    liveness heartbeats there (restored afterwards — worker processes
    run many trials back to back).
    """
    start = time.perf_counter()
    runner = spec.resolve_runner()
    if heartbeat_path is None:
        result = runner(seed=spec.seed, **spec.params)
    else:
        previous = os.environ.get(HEARTBEAT_ENV)
        os.environ[HEARTBEAT_ENV] = heartbeat_path
        try:
            result = runner(seed=spec.seed, **spec.params)
        finally:
            if previous is None:
                os.environ.pop(HEARTBEAT_ENV, None)
            else:
                os.environ[HEARTBEAT_ENV] = previous
    return result, time.perf_counter() - start


_CODE_VERSION = None


def repro_code_version():
    """A fingerprint of the installed ``repro`` source tree.

    sha256 over every ``.py`` file's path and contents (plus the
    package version), computed once per process.  Any source edit
    therefore invalidates the whole trial cache — stale results can
    never masquerade as current ones.  Set ``REPRO_CODE_VERSION`` to
    pin the fingerprint explicitly.
    """
    global _CODE_VERSION
    override = os.environ.get("REPRO_CODE_VERSION")
    if override:
        return override
    if _CODE_VERSION is None:
        import repro

        digest = hashlib.sha256()
        digest.update(getattr(repro, "__version__", "?").encode())
        root = os.path.dirname(os.path.abspath(repro.__file__))
        for dirpath, dirnames, filenames in sorted(os.walk(root)):
            dirnames.sort()
            for filename in sorted(filenames):
                if not filename.endswith(".py"):
                    continue
                path = os.path.join(dirpath, filename)
                digest.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
        _CODE_VERSION = digest.hexdigest()
    return _CODE_VERSION
