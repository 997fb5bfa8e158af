"""Harness fault injector: kill workers, tear journals, corrupt caches.

:mod:`repro.faults` injects faults into the *simulated* network; this
module injects faults into the *harness itself*, to prove the
resilience layer (supervised pool, run journal, kill-resume) the way
the seeded bugs of ``tests/mutants.py`` prove the oracle and the
backend differ: by actually breaking things and watching recovery
happen.  Like those source edits, it lives beside the tests, and
nothing under ``src/`` knows it exists.

``with armed(ledger_dir, target, strikes):`` patches
``execute_trial`` where the runner calls it — in
:mod:`repro.harness.parallel` for trials run in-process, in
:mod:`repro.harness.pool` for pool workers — with a version that
SIGKILLs the current process at trial start, up to ``strikes`` times
per trial label, for trials whose label contains ``target`` (``*`` =
every trial).  The pool forks its first workers and their
replacements from the patched parent, so every worker inherits the
striker.  Where there is no fork (Windows), :data:`FORK` is False and
the tests that arm it skip (:func:`needs_fork`).

Strike counts live in a ledger directory on disk, because each victim
dies before it can remember anything.

A whole command line is armed from the outside with::

    PYTHONPATH=src python tests/chaosmonkey.py STRIKES TARGET LEDGER_DIR -- ARGV...

which arms the striker and then exits with ``repro.cli.main(ARGV)``'s
code, as ``python -m repro.cli ARGV...`` would.

The other two weapons are plain functions for tests to call directly:
:func:`truncate_tail` (simulate a crash mid-journal-append) and
:func:`corrupt_cache_entry` (flip bytes in a cached trial result —
which content-hash verification must then refuse to serve on resume).
"""

import hashlib
import multiprocessing
import os
import signal
import sys
from contextlib import contextmanager

from repro.harness import parallel, pool, spec

#: Whether pool workers can inherit the striker (they are forked).
FORK = "fork" in multiprocessing.get_all_start_methods()


def needs_fork(test):
    """Skip ``test`` where the striker cannot reach its victims."""
    import pytest

    return pytest.mark.skipif(
        not FORK,
        reason="no fork on this platform: a strike is a SIGKILL, and a "
        "pool worker inherits the striker only by fork",
    )(test)


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
    tmp = path + ".tmp"
    with open(tmp, "w") as handle:
        handle.write("{}\n{}".format(label, count))
    os.replace(tmp, path)
    return count


def strike_counts(ledger_dir):
    """``{trial label: kills so far}`` from a ledger directory."""
    counts = {}
    for name in sorted(os.listdir(ledger_dir)):
        if name.startswith("strikes-") and name.endswith(".txt"):
            with open(os.path.join(ledger_dir, name)) as handle:
                lines = handle.read().splitlines()
            counts[lines[0]] = int(lines[-1])
    return counts


@contextmanager
def armed(ledger_dir, target, strikes):
    """Strike trials whose label contains ``target`` inside the block.

    ``strikes`` is the per-trial-label kill budget: set it below the
    runner's attempt budget to prove retry-to-success, at or above it
    to prove quarantine.  A strike is a SIGKILL, which no handler can
    catch: the supervisor must detect the death from the *outside*,
    exactly like an OOM kill.
    """
    ledger_dir = os.path.abspath(ledger_dir)
    os.makedirs(ledger_dir, exist_ok=True)
    execute_trial = spec.execute_trial

    def striking(trial, heartbeat_path=None):
        label = str(trial.label)
        if target == "*" or target in label:
            if _bump_strike(ledger_dir, label) <= strikes:
                os.kill(os.getpid(), signal.SIGKILL)
        return execute_trial(trial, heartbeat_path=heartbeat_path)

    try:
        pool.execute_trial = parallel.execute_trial = striking
        yield
    finally:
        pool.execute_trial = parallel.execute_trial = execute_trial


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


def main(args):
    """``STRIKES TARGET LEDGER_DIR -- ARGV...``: a CLI run, armed."""
    from repro.cli import main as cli_main

    if len(args) < 4 or args[3] != "--":
        sys.exit("usage: chaosmonkey.py STRIKES TARGET LEDGER_DIR -- ARGV...")
    strikes, target, ledger_dir = args[:3]
    with armed(ledger_dir, target, int(strikes)):
        return cli_main(args[4:])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
