"""Column-wise magnitude–direction geometry of weight matrices.

For a stored 2D tensor of shape ``[d_out, d_in]`` a "column" is the slice
varying over axis 0 at a fixed axis-1 index; embedding and output-head
matrices follow the same stored-layout rule. Each column splits into its
Euclidean norm and its direction. Every quantity the merge and the
diagnostics read from that split is a per-column norm or dot product: the
cosine between two directions ignores scale, so it is
``<W_k, W_n> / (|W_k| |W_n|)`` and no direction matrix is ever formed.

All dot products and norms accumulate in 64-bit floats regardless of the
storage precision of the inputs; the streamed accumulators widen each tile
of rows to float64 once, in a scratch array the caller keeps.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import NumericError

EPSILON_DEFAULT = 1e-8
# rows per summation tile: a fixed partition, so column sums do not depend
# on the size of the blocks a tensor is streamed in
TILE_ROWS = 64
# rows of the accumulators' float64 scratch: three widened tiles, five sums
SCRATCH_ROWS = 3 * TILE_ROWS + 5


def _guarded_cosine(dots: np.ndarray, norms_a: np.ndarray, norms_b: np.ndarray, epsilon: float) -> np.ndarray:
    """Column cosines from dots and norms, in [-1, 1].

    A column whose norm falls below the stabilizer on either side, or whose
    norm product is 0, gets cosine 0.
    """
    denom = norms_a * norms_b
    void = (norms_a < epsilon) | (norms_b < epsilon) | (denom == 0.0)
    cos = dots / np.where(void, 1.0, denom)
    return np.clip(np.where(void, 0.0, cos), -1.0, 1.0)


class ColumnDeviations(NamedTuple):
    """Per-column deviations of both sources from the base, shape (d_in,).

    ``mag_*`` is the norm gap ``| |W_k| - |W_n| |``; ``dir_*`` is one minus
    the guarded cosine, in [0, 2].
    """

    mag_ml: np.ndarray
    mag_mm: np.ndarray
    dir_ml: np.ndarray
    dir_mm: np.ndarray


def _widened_tiles(scratch: np.ndarray, *blocks: np.ndarray):
    """Each tile of the equal-shape ``blocks``, widened into ``scratch``."""
    rows, cols = blocks[0].shape
    for t in range(0, rows, TILE_ROWS):
        n = min(TILE_ROWS, rows - t)
        x = scratch[:len(blocks) * n].reshape(len(blocks), n, cols)
        for wide, block in zip(x, blocks):
            np.copyto(wide, block[t:t + n])
        yield x


def accumulate_column_sums(sums: np.ndarray, base: np.ndarray, ml: np.ndarray, mm: np.ndarray,
                           scratch: np.ndarray) -> None:
    """Add a row block's five column reductions into ``sums``, shape (5, d_in).

    The rows are |n|^2, |ml|^2, |mm|^2, <ml, n> and <mm, n>. Each is summed
    over fixed tiles of ``TILE_ROWS`` rows, and the tiles are added in order.
    A block that starts at a multiple of ``TILE_ROWS`` therefore adds the
    same floating-point sums whatever the block's length, so the result does
    not depend on how a tensor is cut into blocks. Each tile is widened once
    into ``scratch`` (float64, (SCRATCH_ROWS, d_in), overwritten); a column
    adds the same float64 products in the same row order as a widening
    ``einsum`` of each pair would, so the bits do not depend on it either.
    """
    part = scratch[3 * TILE_ROWS:SCRATCH_ROWS]
    for x in _widened_tiles(scratch, base, ml, mm):
        np.einsum("kij,kij->kj", x, x, out=part[:3])
        np.einsum("kij,ij->kj", x[1:], x[0], out=part[3:])
        sums += part


def deviations_from_sums(sums: np.ndarray, epsilon: float = EPSILON_DEFAULT) -> ColumnDeviations:
    """Both sources' deviations from the five column reductions. Columns
    whose norm falls below the stabilizer on either side get cosine 0, hence
    direction deviation 1."""
    if not 0 < epsilon < np.inf:
        raise NumericError(f"epsilon must be positive and finite, got {epsilon}")
    norm_n, norm_ml, norm_mm = np.sqrt(sums[:3])
    cos_ml = _guarded_cosine(sums[3], norm_ml, norm_n, epsilon)
    cos_mm = _guarded_cosine(sums[4], norm_mm, norm_n, epsilon)
    return ColumnDeviations(np.abs(norm_ml - norm_n), np.abs(norm_mm - norm_n), 1.0 - cos_ml, 1.0 - cos_mm)


def accumulate_residual_sums(sums: np.ndarray, base: np.ndarray, ml: np.ndarray, mm: np.ndarray,
                             scratch: np.ndarray) -> None:
    """Add a row block's eight column reductions into ``sums``, shape (8, d_in).

    Rows 0-4 are the five of :func:`accumulate_column_sums`; rows 5-7 are
    |Δml|^2, |Δmm|^2 and <Δml, Δmm> of the residuals against the base, summed
    over the same fixed tiles in the same ``scratch``. ``ml`` and ``mm`` are
    overwritten with those residuals, formed in float32 before they are
    widened. Summing the residuals themselves, rather than expanding them
    into sums of the raw tensors, keeps their precision when they are small
    beside the base.
    """
    accumulate_column_sums(sums[:5], base, ml, mm, scratch)
    ml -= base
    mm -= base
    part = scratch[3 * TILE_ROWS:3 * TILE_ROWS + 3]
    for x in _widened_tiles(scratch, ml, mm):
        np.einsum("kij,kij->kj", x, x, out=part[:2])
        np.einsum("ij,ij->j", x[0], x[1], out=part[2])
        sums[5:] += part


def cross_cosines(sums: np.ndarray, epsilon: float = EPSILON_DEFAULT) -> np.ndarray:
    """Per-column cosine between the two residuals, in [-1, 1], from the
    eight column reductions. Near-zero residual columns report 0."""
    return _guarded_cosine(sums[7], np.sqrt(sums[5]), np.sqrt(sums[6]), epsilon)
