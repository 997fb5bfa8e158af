"""The seeded-bug helper itself (``tests/mutants.py``)."""

import pytest

from repro.core.crossbar import CrossbarAllocator

from tests.mutants import MUTANTS, compile_mutant, edits_of, mutant, seeded


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_every_seeded_bug_still_compiles(name):
    """Each anchor still occurs exactly once, and the edited source
    compiles; nothing runs under it here."""
    for (owner, function), pairs in edits_of(name).items():
        assert callable(compile_mutant(owner, function, pairs))


def test_seeded_puts_the_original_functions_back():
    touched = edits_of("leak-port-on-drop")
    originals = {key: vars(key[0])[key[1]] for key in touched}
    assert len(originals) == 2  # the bug's function and the allocator's
    with pytest.raises(RuntimeError):
        with seeded("leak-port-on-drop"):
            for (owner, name), original in originals.items():
                assert vars(owner)[name] is not original
            raise RuntimeError("the block fails; the originals still return")
    for (owner, name), original in originals.items():
        assert vars(owner)[name] is original


def test_a_missing_or_repeated_anchor_patches_nothing():
    release = CrossbarAllocator.release
    for anchor in ("no such text", "self._in_use[port]"):
        with pytest.raises(AssertionError, match="not once"):
            with mutant({(CrossbarAllocator, "release"): [(anchor, "pass")]}):
                pass
        assert CrossbarAllocator.release is release
