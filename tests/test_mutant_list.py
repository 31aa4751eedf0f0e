"""The hand-written mutants of ``tests/mutants.py`` still match the source."""

from mutants import MUTANTS, stale_mutants


def test_every_old_text_occurs_once():
    # The runner's own check before any run: a stale list fails here in
    # seconds, not after the unmutated copy's tier-1 run.
    assert MUTANTS
    assert stale_mutants() == []
