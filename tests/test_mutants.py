"""The mutation list in ``tests/mutants.py`` against the code as it stands.
Tier-1 does not run the mutants (``python tests/mutants.py`` does); it
checks that each one still applies, so a refactor that moves a rule must
move its mutant too, and that each recorded killer is still a test."""

import os
import subprocess
import sys

import pytest

from mutants import MUTANTS, ROOT


def test_names_are_unique():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_old_text_occurs_exactly_once(mutant):
    text = (ROOT / mutant.path).read_text()
    assert text.count(mutant.old) == 1
    assert mutant.new != mutant.old and mutant.rule


def test_every_killed_by_is_a_collected_test():
    """Each mutant not marked equivalent names the test that kills it, and
    pytest collects that id, so the runner's first try runs a real test."""
    assert all(m.killed_by or m.equivalent for m in MUTANTS)
    ids = sorted({m.killed_by for m in MUTANTS if m.killed_by})
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider", *ids],
                          cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    missing = set(ids) - set(done.stdout.splitlines())
    assert not missing, done.stdout[-2000:]
