"""Property tests: the numpy average-tie ranks behind ``rank_normalize``
against brute-force pairwise counting, bit for bit.

Inputs are tie-heavy on purpose (small integers, signed zeros, all-equal
vectors, length 1), since tied groups are where average ranks can go wrong.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from dimerge.salience import rank_normalize

PROPERTY = settings(max_examples=300)

TIE_HEAVY = st.sampled_from([-3.0, -2.0, -1.0, -0.0, 0.0, 1.0, 2.0, 3.0])
ELEMENT = st.one_of(TIE_HEAVY, TIE_HEAVY, st.floats(-4.0, 4.0))


@st.composite
def deviations(draw):
    if draw(st.integers(0, 4)) == 0:  # all equal, length 1 included
        return [draw(ELEMENT)] * draw(st.integers(1, 30))
    return draw(st.lists(ELEMENT, min_size=1, max_size=60))


@PROPERTY
@given(deviations())
def test_rank_normalize_matches_pairwise_counting(values):
    expected = np.array(reference.average_ranks(values)) / len(values)
    out = rank_normalize(values)
    assert out.dtype == np.float64
    assert out.tobytes() == expected.tobytes()


def test_cli_import_leaves_scipy_unloaded():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    code = "import sys, dimerge.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"
