"""Harness fault injector: kill workers, tear journals, corrupt caches.

:mod:`repro.faults` injects faults into the *simulated* network; this
module injects faults into the *harness itself*, to prove the
resilience layer (supervised pool, run journal, kill-resume) the same
way :mod:`repro.core.mutation`'s seeded bugs prove the oracle and the
backend differ: by actually breaking things and watching recovery
happen.  Test/CI-only — nothing here runs unless explicitly armed.

Arming is by environment variable, because the victim is usually a
*worker process* (or a whole CLI subprocess) that inherits its
environment from the test:

* :data:`CHAOSMONKEY_ENV` (``REPRO_CHAOSMONKEY``) —
  ``"<strikes>:<target>"``: SIGKILL the current process at trial
  start, up to ``strikes`` times per trial label, for trials whose
  label contains ``target`` (``*`` = every trial).
* :data:`CHAOSMONKEY_DIR_ENV` (``REPRO_CHAOSMONKEY_DIR``) — ledger
  directory persisting per-label strike counts across the victims'
  deaths (each victim dies before it can remember anything).  With no
  ledger the monkey never strikes: an unbounded killer would turn
  every retry budget into a hang.

:func:`~repro.harness.parallel.execute_trial` calls
:func:`maybe_strike` only when :data:`CHAOSMONKEY_ENV` is set, so
production sweeps pay one env lookup and nothing else.

The other two weapons are plain functions for tests to call directly:
:func:`truncate_tail` (simulate a crash mid-journal-append) and
:func:`corrupt_cache_entry` (flip bytes in a cached trial result —
which content-hash verification must then refuse to serve on resume).
"""

import hashlib
import os
import signal

#: ``"<strikes>:<target>"`` — arm the process killer.
CHAOSMONKEY_ENV = "REPRO_CHAOSMONKEY"
#: Ledger directory for strike counts (required for strikes to land).
CHAOSMONKEY_DIR_ENV = "REPRO_CHAOSMONKEY_DIR"


def arm(ledger_dir, target, strikes):
    """Environment variables arming the monkey; the caller exports them.

    Returns a dict to merge into ``os.environ`` (in-process pools
    inherit it on fork/spawn) or a subprocess's ``env``.  ``target``
    selects trials by label (``"*"`` = every trial); ``strikes``
    is the per-trial-label kill budget: set it below the runner's
    attempt budget to prove retry-to-success, at/above it to prove
    quarantine.
    """
    os.makedirs(ledger_dir, exist_ok=True)
    return {
        CHAOSMONKEY_ENV: "{}:{}".format(int(strikes), target),
        CHAOSMONKEY_DIR_ENV: str(ledger_dir),
    }


def _ledger_path(ledger_dir, label):
    digest = hashlib.sha256(label.encode("utf-8")).hexdigest()[:16]
    return os.path.join(ledger_dir, "strikes-{}.txt".format(digest))


def _bump_strike(ledger_dir, label):
    """Increment and return the strike count for ``label``.

    Victims of the same label die strictly one at a time (the
    supervisor retries sequentially), so read-modify-replace is safe.
    """
    path = _ledger_path(ledger_dir, label)
    count = 0
    try:
        with open(path) as handle:
            count = int(handle.read().splitlines()[-1])
    except (OSError, ValueError, IndexError):
        count = 0
    count += 1
    os.makedirs(ledger_dir, exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "w") as handle:
        handle.write("{}\n{}".format(label, count))
    os.replace(tmp, path)
    return count


def strike_counts(ledger_dir):
    """``{trial label: kills so far}`` from a ledger directory."""
    counts = {}
    try:
        names = sorted(os.listdir(ledger_dir))
    except OSError:
        return counts
    for name in names:
        if not name.startswith("strikes-") or not name.endswith(".txt"):
            continue
        try:
            with open(os.path.join(ledger_dir, name)) as handle:
                lines = handle.read().splitlines()
            counts[lines[0]] = int(lines[-1])
        except (OSError, ValueError, IndexError):
            continue
    return counts


def maybe_strike(spec):
    """SIGKILL the current process if the monkey is armed for ``spec``.

    Called at trial start.  No return on a strike — SIGKILL is not
    catchable, which is the point: the supervisor must detect the
    death from the *outside*, exactly like an OOM kill.
    """
    config = os.environ.get(CHAOSMONKEY_ENV)
    if not config:
        return
    strikes_text, _, target = config.partition(":")
    try:
        budget = int(strikes_text)
    except ValueError:
        return
    label = str(spec.label)
    if target and target != "*" and target not in label:
        return
    ledger_dir = os.environ.get(CHAOSMONKEY_DIR_ENV)
    if not ledger_dir:
        return
    if _bump_strike(ledger_dir, label) <= budget:
        os.kill(os.getpid(), signal.SIGKILL)


def truncate_tail(path, nbytes):
    """Chop ``nbytes`` off the end of ``path`` (a crash mid-append).

    Returns the number of bytes actually removed.  The journal and
    run-log readers must treat the resulting torn final record as if
    it were never written.
    """
    size = os.path.getsize(path)
    removed = min(int(nbytes), size)
    with open(path, "rb+") as handle:
        handle.truncate(size - removed)
    return removed


def corrupt_cache_entry(cache, key):
    """Invert one byte (the ninth) of the cached pickle for ``key`` in place.

    Returns True if an entry existed and was corrupted.  The byte sits
    inside the pickle's frame length, so the entry no longer *decodes*:
    ``TrialCache.get`` warns and reports a miss, and the sweep
    re-executes the trial.  Damage that still decodes is the case only
    the journal's content hash catches; ``tests/harness/test_journal.py``
    makes that kind by hand.
    """
    path = cache._path(key)
    try:
        size = os.path.getsize(path)
    except OSError:
        return False
    if size == 0:
        return False
    position = min(8, size - 1)
    with open(path, "rb+") as handle:
        handle.seek(position)
        byte = handle.read(1)
        handle.seek(position)
        handle.write(bytes([byte[0] ^ 0xFF]))
    return True
