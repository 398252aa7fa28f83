"""Property test: the streamed column-sum accumulators, bit for bit.

Row blocks of bf16, f16 and f32 bit patterns (zeros, subnormals, ±1e30 and
the largest finite values among them) are fed to ``accumulate_column_sums``
and ``accumulate_residual_sums`` block by block, the way the merge and
``diagnose`` stream them. Every sum must equal, bit for bit, the reference's
one widening einsum per 64-row tile added in order. Each example runs
several triples of different widths through one reused scratch buffer,
poisoned with NaN first, so a value left over from an earlier tile, block
or tensor would show.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dimerge.geometry import SCRATCH_ROWS, TILE_ROWS, accumulate_column_sums, accumulate_residual_sums
from dimerge.merge import BlockBuffers

import reference

PROPERTY = settings(max_examples=300)

MAX_COLS = 70
ROWS = st.sampled_from([1, 63, 64, 65]) | st.integers(1, 200)
# the last three: the smallest f32, bf16 and f16 subnormals
SPECIALS = np.array([0.0, -0.0, 1e30, -1e30, 1.0, -1.0, np.finfo(np.float32).max, 2.0**-149, -2.0**-133, 2.0**-24],
                    dtype=np.float32)


def patterns(rng, kind: str, spread: str, shape) -> np.ndarray:
    """Float32 values that ``kind`` can hold: random bit patterns (every
    magnitude, the non-finite ones zeroed, as the merge refuses those), or
    normal values of like magnitude, where the order of a sum shows."""
    if spread == "normal":
        values = rng.standard_normal(shape, dtype=np.float32)
        if kind == "bf16":
            return (values.view(np.uint32) & 0xFFFF0000).view(np.float32)
        return values.astype(np.float16).astype(np.float32) if kind == "f16" else values
    if kind == "bf16":
        values = (rng.integers(0, 1 << 16, shape, dtype=np.uint32) << 16).view(np.float32)
    elif kind == "f16":
        values = rng.integers(0, 1 << 16, shape, dtype=np.uint16).view(np.float16).astype(np.float32)
    else:
        values = rng.integers(0, 1 << 32, shape, dtype=np.uint64).astype(np.uint32).view(np.float32)
    values[~np.isfinite(values)] = 0.0
    return values


@st.composite
def triples(draw):
    """A (base, ml, mm) float32 triple, each from its own pattern kind, with
    special values spliced in at drawn places."""
    shape = (draw(ROWS), draw(st.integers(1, MAX_COLS)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    out = []
    for _ in range(3):
        values = patterns(rng, draw(st.sampled_from(["bf16", "f16", "f32"])),
                          draw(st.sampled_from(["bits", "normal"])), shape)
        if draw(st.booleans()):   # scaled down: many float32 subnormals and zeros
            values *= np.float32(draw(st.sampled_from([1e-20, 1e-40])))
        flat = values.reshape(-1)
        for index, special in draw(st.lists(st.tuples(st.integers(0, flat.size - 1),
                                                      st.sampled_from(range(len(SPECIALS)))), max_size=8)):
            flat[index] = SPECIALS[special]
        out.append(values)
    return out


def streamed(accumulate, count, triple, block_tiles, buffers):
    """The ``count`` sums of ``triple``, added block by block as the merge
    streams them, with the scratch from ``buffers``' "scratch"."""
    base, ml, mm = (a.copy() for a in triple)
    rows, cols = base.shape
    sums = np.zeros((count, cols))
    scratch = buffers.take("scratch", (SCRATCH_ROWS, cols), np.float64)
    block = block_tiles * TILE_ROWS
    for r0 in range(0, rows, block):
        rows_of = slice(r0, r0 + block)
        accumulate(sums, base[rows_of], ml[rows_of], mm[rows_of], scratch)
    return sums


@PROPERTY
@given(st.lists(triples(), min_size=1, max_size=4), st.integers(1, 3))
def test_accumulators_match_the_tiled_reference_bit_for_bit(draws, block_tiles):
    buffers = BlockBuffers()
    buffers.take("scratch", (SCRATCH_ROWS * MAX_COLS,), np.float64).fill(np.nan)
    for triple in draws:
        # residuals of values near the float32 limit overflow, on both sides alike
        with np.errstate(over="ignore", invalid="ignore"):
            want = reference.column_sums(*triple)
            five = streamed(accumulate_column_sums, 5, triple, block_tiles, buffers)
            eight = streamed(accumulate_residual_sums, 8, triple, block_tiles, buffers)
        assert five.tobytes() == want[:5].tobytes(), (triple[0].shape, five, want[:5])
        assert eight.tobytes() == want.tobytes(), (triple[0].shape, eight, want)
