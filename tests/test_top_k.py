"""Property tests: the partition-based top-k selection behind TIES and
Breadcrumbs against a naive stable sort on (-score, flat index), on its own
and through ``merge_tensor``.

Inputs are tie-heavy on purpose (small integers, signed zeros, mirrored
residuals), since threshold ties are where a selection can go wrong.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import dimerge.merge as merge_module
import reference
from dimerge.baselines import BaselineParams, TopKCut
from dimerge.geometry import TILE_ROWS
from dimerge.merge import MergeConfig, merge_tensor
from dimerge.records import DType

from test_merge import triple_of

PROPERTY = settings(max_examples=200)

TIE_HEAVY = st.sampled_from([-3.0, -2.0, -1.0, -0.0, 0.0, 1.0, 2.0, 3.0])
ELEMENT = st.one_of(TIE_HEAVY, TIE_HEAVY, st.floats(-4.0, 4.0, width=32))


@st.composite
def tensors(draw, n=None, dtype=np.float32):
    values = draw(st.lists(ELEMENT, min_size=n or 1, max_size=n or 40))
    array = np.array(values, dtype=dtype)
    if array.size % 2 == 0 and draw(st.booleans()):
        array = array.reshape(2, -1)
    return array


def keeps(n):
    return st.one_of(st.sampled_from([0, 1, n - 1, n]), st.integers(-2, n + 2))


def reference_mask(scores, keep):
    mask = np.zeros(scores.size, dtype=bool)
    mask[reference.top_k_indices(scores.ravel(), keep)] = True
    return mask.reshape(scores.shape)


def cut_mask(scores, keep):
    """The cut's mask, selected one row at a time as the merge's pass 2
    does, with bool scratch of one row, so that both the tie count and the
    admitted ties carry across blocks."""
    rows = scores.reshape(len(scores) if scores.ndim > 1 else 1, -1)
    flags = np.empty(rows.shape[1], dtype=bool)
    cut = TopKCut(rows.copy(), keep, flags)
    return np.concatenate([cut.select(row, np.empty(row.shape, bool)) for row in rows]).reshape(scores.shape)


@PROPERTY
@given(st.data())
def test_top_k_mask_matches_stable_sort(data):
    scores = data.draw(tensors())
    keep = data.draw(keeps(scores.size))
    np.testing.assert_array_equal(cut_mask(scores, keep), reference_mask(scores, keep))


@PROPERTY
@given(st.data())
def test_ties_matches_reference_bitwise(data):
    delta_ml = data.draw(tensors())
    n = delta_ml.size
    base = data.draw(tensors(n=n)).reshape(delta_ml.shape)
    mirrored = data.draw(st.booleans())
    delta_mm = -delta_ml if mirrored else data.draw(tensors(n=n)).reshape(delta_ml.shape)
    density = data.draw(st.one_of(
        st.sampled_from([1 / n, (n - 1) / n or 1.0, 1.0]),
        st.floats(0.0, 1.0, exclude_min=True),
    ))
    lam = data.draw(st.sampled_from([1.0, 0.5, 0.3]))
    ml, mm = base + delta_ml, base + delta_mm
    cfg = MergeConfig(method="ties", baseline=BaselineParams(ties_density=density, lam=lam))
    out = merge_tensor(triple_of(base, ml, mm), cfg)
    # the residuals as the merge forms them, in float32
    expected = reference.ties(base, ml - base, mm - base, density, lam).reshape(base.shape)
    assert out.dtype is DType.F32
    assert out.shape == base.shape
    assert out.raw == expected.tobytes()


@st.composite
def tall_tensors(draw, dtype):
    """Up to five tiles of rows and three columns of a few repeated values,
    so that both of a cut's tie groups span several row blocks."""
    pool = np.array(draw(st.lists(ELEMENT, min_size=1, max_size=8)), dtype=dtype)
    rows = draw(st.one_of(st.sampled_from([TILE_ROWS - 1, TILE_ROWS + 1, 4 * TILE_ROWS + 1]),
                          st.integers(1, 5 * TILE_ROWS)))
    cols = draw(st.integers(1, 3))
    array = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).choice(pool, (rows, cols))
    return array.reshape(-1) if cols == 1 and draw(st.booleans()) else array


@PROPERTY
@given(st.data())
def test_breadcrumbs_matches_reference_bitwise(data):
    """Breadcrumbs through ``merge_tensor``, in row blocks of 1 to 4 tiles,
    against the reference's two sorts, often where the bottom and top cuts
    meet at one tied value."""
    dtype = data.draw(st.sampled_from([np.float32, np.float64]))
    delta = data.draw(st.one_of(tensors(dtype=dtype), tall_tensors(dtype)))
    beta = data.draw(st.one_of(st.sampled_from([0.0, 0.5, 0.85, 0.999]), st.floats(0.0, 1.0, exclude_max=True)))
    # gamma takes a share of what beta leaves, often all but a sliver of it
    share = data.draw(st.one_of(st.sampled_from([0.0, 0.5, 1 - 1e-6, 1 - 1e-12]), st.floats(0.0, 1.0)))
    gamma = (1.0 - beta) * share
    assume(beta + gamma < 1.0)
    tiles = data.draw(st.integers(1, 4))
    # one residual: a zero base and anchor; every drawn value is a float32,
    # so a float64 record narrows exactly
    zeros = np.zeros_like(delta)
    dtype = DType.from_numpy(delta.dtype)
    cfg = MergeConfig(method="breadcrumbs", baseline=BaselineParams(breadcrumbs_beta=beta, breadcrumbs_gamma=gamma))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(merge_module, "_block_rows", lambda cols: tiles * TILE_ROWS)
        out = merge_tensor(triple_of(zeros, delta, zeros, dtype=dtype), cfg)
    filtered = reference.breadcrumbs(delta.astype(np.float32), beta, gamma)
    expected = reference.task_arithmetic(zeros, filtered, zeros, 1.0).astype(delta.dtype).reshape(delta.shape)
    assert out.dtype is dtype
    assert out.shape == delta.shape
    assert out.raw == expected.tobytes()
