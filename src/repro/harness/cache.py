"""Trial results: how one is encoded, hashed, stored and given up on.

* :func:`encode_result` / :func:`decode_result` — the one encoding a
  result travels in: a worker's reply to its supervisor, a trial-cache
  entry, and the bytes :func:`result_content_hash` digests for the run
  journal.  It is a pickle, so decode only bytes this program or its
  workers wrote (ROADMAP item 6(iv) replaces it with a data-only
  encoding, here and nowhere else).
* :class:`TrialCache` — an on-disk result store keyed by
  :meth:`~repro.harness.spec.TrialSpec.fingerprint`, so re-running a
  sweep skips every point that has already been computed.
* :class:`QuarantinedTrial` — the report that takes a poison trial's
  slot in a sweep's results.  Only executed results are ever cached and
  journals carry the report as :meth:`~QuarantinedTrial.as_dict` JSON,
  so nothing on disk names this class by module.

This module imports nothing from the rest of the harness.  See
``docs/parallel.md`` and ``docs/resilience.md``.
"""

import collections
import hashlib
import logging
import os
import pickle
import tempfile

logger = logging.getLogger(__name__)

#: Sentinel for a cache lookup that found nothing.
CACHE_MISS = object()


def encode_result(result):
    """``result`` (or a trial's exception) as bytes."""
    return pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)


def decode_result(blob):
    """The object :func:`encode_result` encoded."""
    return pickle.loads(blob)


def result_content_hash(result):
    """sha256 hex digest of the encoded result.

    The journal records this for every finished trial, so a resumed
    sweep can *prove* the cache entry it is about to serve is the very
    bytes the original run produced (the encoding
    :meth:`TrialCache.put` writes).
    """
    return hashlib.sha256(encode_result(result)).hexdigest()


class QuarantinedTrial:
    """Structured report for a poison trial the sweep gave up on.

    Takes the trial's slot in the results list when a
    :class:`~repro.harness.parallel.TrialRunner` running with
    ``on_exhausted="quarantine"`` exhausts the attempt budget, so the
    sweep *completes* and the failure is inspectable data — label,
    per-attempt failure records (kind, detail, worker exit code) —
    instead of a dead sweep.  Plain data only, so quarantine reports
    pickle and journal like results.
    """

    quarantined = True

    def __init__(self, label, key, seed, attempts, failures):
        self.label = label
        self.key = key
        self.seed = seed
        self.attempts = attempts
        #: One dict per failed attempt: ``attempt``, ``kind``
        #: ("crash" | "timeout" | "error"), ``detail``, ``exitcode``.
        self.failures = [dict(f) for f in failures]

    def as_dict(self):
        return {
            "label": self.label,
            "key": self.key,
            "seed": self.seed,
            "attempts": self.attempts,
            "failures": [dict(f) for f in self.failures],
        }

    @classmethod
    def from_dict(cls, data):
        return cls(
            data.get("label"),
            data.get("key"),
            data.get("seed"),
            data.get("attempts"),
            data.get("failures", ()),
        )

    def __repr__(self):
        kinds = collections.Counter(f.get("kind") for f in self.failures)
        return "<QuarantinedTrial {} after {} attempt(s): {}>".format(
            self.label,
            self.attempts,
            ", ".join("{} x{}".format(k, n) for k, n in sorted(kinds.items()))
            or "no failures recorded",
        )


def is_quarantined(result):
    """True when a sweep result slot holds a quarantine report."""
    return isinstance(result, QuarantinedTrial)


def partition_quarantined(results):
    """Split sweep results into ``(ok_results, quarantined_reports)``."""
    ok, quarantined = [], []
    for result in results:
        (quarantined if is_quarantined(result) else ok).append(result)
    return ok, quarantined


class TrialCache:
    """Encoded trial results under ``root/<key[:2]>/<key>.pkl``.

    Keys are :meth:`TrialSpec.fingerprint` hex digests.  Writes are
    atomic (temp file + rename) so concurrent sweeps sharing a cache
    directory never read torn files; unreadable entries are treated as
    misses and recomputed.
    """

    def __init__(self, root):
        self.root = str(root)
        os.makedirs(self.root, exist_ok=True)
        self.hits = 0
        self.misses = 0

    def _path(self, key):
        return os.path.join(self.root, key[:2], key + ".pkl")

    def get(self, key):
        """The cached result for ``key``, or :data:`CACHE_MISS`.

        An *absent* entry is a silent miss.  A *present but
        unreadable* entry — truncated write, flipped bytes, foreign
        pickle, renamed class — is also a miss (the trial recomputes
        and overwrites it), but logged as a warning: corruption should
        never crash a sweep, and should never pass silently either.
        """
        path = self._path(key)
        try:
            with open(path, "rb") as handle:
                result = decode_result(handle.read())
        except FileNotFoundError:
            self.misses += 1
            return CACHE_MISS
        except Exception as error:
            logger.warning(
                "corrupt trial-cache entry %s (%s: %s); treating as a "
                "miss and recomputing", path, type(error).__name__, error,
            )
            self.misses += 1
            return CACHE_MISS
        self.hits += 1
        return result

    def put(self, key, result):
        """Store ``result`` under ``key`` (atomically)."""
        path = self._path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(encode_result(result))
            os.replace(tmp, path)
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def __len__(self):
        count = 0
        for _dirpath, _dirnames, filenames in os.walk(self.root):
            count += sum(1 for f in filenames if f.endswith(".pkl"))
        return count
