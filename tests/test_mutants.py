"""The mutation list in ``tests/mutants.py`` against the code as it stands.
Tier-1 does not run the mutants (each costs a tier-1 run; ``python
tests/mutants.py`` does); it checks that each one still applies, so a
refactor that moves a rule must move its mutant too."""

import pytest

from mutants import MUTANTS, ROOT


def test_names_are_unique():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_old_text_occurs_exactly_once(mutant):
    text = (ROOT / mutant.path).read_text()
    assert text.count(mutant.old) == 1
    assert mutant.new != mutant.old and mutant.rule
