"""Property tests: the partition-based top-k selection behind TIES and
Breadcrumbs against a naive stable sort on (-score, flat index).

Inputs are tie-heavy on purpose (small integers, signed zeros, mirrored
residuals), since threshold ties are where a selection can go wrong.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import reference
from dimerge.baselines import _top_k_mask, breadcrumbs_values, ties_merge_values

PROPERTY = settings(max_examples=200, deadline=None, database=None, derandomize=True)

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


@PROPERTY
@given(st.data())
def test_top_k_mask_matches_stable_sort(data):
    scores = data.draw(tensors())
    keep = data.draw(keeps(scores.size))
    np.testing.assert_array_equal(_top_k_mask(scores, keep), reference_mask(scores, keep))


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
    out = ties_merge_values(base, delta_ml, delta_mm, density, lam)
    expected = reference.ties(base, delta_ml, delta_mm, density, lam).reshape(base.shape)
    assert out.dtype == np.float32
    assert out.shape == base.shape
    assert out.tobytes() == expected.tobytes()


@PROPERTY
@given(st.data())
def test_breadcrumbs_matches_reference_bitwise(data):
    delta = data.draw(tensors(dtype=data.draw(st.sampled_from([np.float32, np.float64]))))
    beta = data.draw(st.one_of(st.sampled_from([0.0, 0.5, 0.85, 0.999]), st.floats(0.0, 1.0, exclude_max=True)))
    # gamma takes a share of what beta leaves, often all but a sliver of it
    share = data.draw(st.one_of(st.sampled_from([0.0, 0.5, 1 - 1e-6, 1 - 1e-12]), st.floats(0.0, 1.0)))
    gamma = (1.0 - beta) * share
    assume(beta + gamma < 1.0)
    out = breadcrumbs_values(delta, beta, gamma)
    expected = reference.breadcrumbs(delta, beta, gamma).reshape(delta.shape)
    assert out.dtype == delta.dtype
    assert out.shape == delta.shape
    assert out.tobytes() == expected.tobytes()
