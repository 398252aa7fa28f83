"""Column-wise magnitude–direction geometry of weight matrices.

For a stored 2D tensor of shape ``[d_out, d_in]`` a "column" is the slice
varying over axis 0 at a fixed axis-1 index; embedding and output-head
matrices follow the same stored-layout rule. Each column splits into its
Euclidean norm and its direction. Every quantity the merge and the
diagnostics read from that split is a per-column norm or dot product: the
cosine between two directions ignores scale, so it is
``<W_k, W_n> / (|W_k| |W_n|)`` and no direction matrix is ever formed.

All dot products and norms accumulate in 64-bit floats regardless of the
storage precision of the inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .align import AlignedTriple
from .errors import NumericError, ShapeError

EPSILON_DEFAULT = 1e-8
# rows per summation tile: a fixed partition, so column sums do not depend
# on the size of the blocks a tensor is streamed in
TILE_ROWS = 64


def _column_dots(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->j", A, B, dtype=np.float64)


def _column_norms(W: np.ndarray) -> np.ndarray:
    return np.sqrt(_column_dots(W, W))


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


def accumulate_column_sums(sums: np.ndarray, base: np.ndarray, ml: np.ndarray, mm: np.ndarray) -> None:
    """Add a row block's five column reductions into ``sums``, shape (5, d_in).

    The rows are |n|^2, |ml|^2, |mm|^2, <ml, n> and <mm, n>. Each is summed
    over fixed tiles of ``TILE_ROWS`` rows, and the tiles are added in order.
    A block that starts at a multiple of ``TILE_ROWS`` therefore adds the
    same floating-point sums whatever the block's length, so the result does
    not depend on how a tensor is cut into blocks.
    """
    for t in range(0, base.shape[0], TILE_ROWS):
        n, a, b = base[t:t + TILE_ROWS], ml[t:t + TILE_ROWS], mm[t:t + TILE_ROWS]
        sums[0] += _column_dots(n, n)
        sums[1] += _column_dots(a, a)
        sums[2] += _column_dots(b, b)
        sums[3] += _column_dots(a, n)
        sums[4] += _column_dots(b, n)


def deviations_from_sums(sums: np.ndarray, epsilon: float = EPSILON_DEFAULT) -> ColumnDeviations:
    """Both sources' deviations from the five column reductions. Columns
    whose norm falls below the stabilizer on either side get cosine 0, hence
    direction deviation 1."""
    if epsilon <= 0:
        raise NumericError("epsilon must be positive")
    norm_n, norm_ml, norm_mm = np.sqrt(sums[:3])
    cos_ml = _guarded_cosine(sums[3], norm_ml, norm_n, epsilon)
    cos_mm = _guarded_cosine(sums[4], norm_mm, norm_n, epsilon)
    return ColumnDeviations(np.abs(norm_ml - norm_n), np.abs(norm_mm - norm_n), 1.0 - cos_ml, 1.0 - cos_mm)


def column_deviations(
    base: np.ndarray, ml: np.ndarray, mm: np.ndarray, epsilon: float = EPSILON_DEFAULT
) -> ColumnDeviations:
    """Magnitude and direction deviations of both sources, per column, from
    the same tiled reductions a streamed merge accumulates."""
    base, ml, mm = np.asarray(base), np.asarray(ml), np.asarray(mm)
    if base.ndim != 2 or not (base.shape == ml.shape == mm.shape):
        raise ShapeError(f"expected three equal-shape matrices, got {base.shape}, {ml.shape}, {mm.shape}")
    sums = np.zeros((5, base.shape[1]))
    accumulate_column_sums(sums, base, ml, mm)
    return deviations_from_sums(sums, epsilon)


def cross_alignment(
    delta_ml: np.ndarray, delta_mm: np.ndarray, epsilon: float = EPSILON_DEFAULT
) -> np.ndarray:
    """Per-column cosine between the two source residuals, in [-1, 1].

    Near-zero residual columns (norm below the stabilizer) report 0.
    """
    delta_ml = np.asarray(delta_ml)
    delta_mm = np.asarray(delta_mm)
    if delta_ml.shape != delta_mm.shape:
        raise ShapeError(f"residual shapes differ: {delta_ml.shape} vs {delta_mm.shape}")
    if delta_ml.ndim == 1:
        delta_ml = delta_ml[:, None]
        delta_mm = delta_mm[:, None]
    dots = _column_dots(delta_ml, delta_mm)
    return _guarded_cosine(dots, _column_norms(delta_ml), _column_norms(delta_mm), epsilon)


def residual_identity_terms(col_k: np.ndarray, col_n: np.ndarray) -> tuple[float, float]:
    """Both sides of the squared column-residual split, radial plus angular.

    The left side is the direct squared distance between the raw columns.
    The right side recomputes it from the norm gap and the reorientation:
    ``(|u| - |v|)^2 + 2 |u| |v| (1 - cos(u, v))``. The two agree exactly in
    real arithmetic; a zero column on either side makes the cosine term
    vanish, so the convention cos := 0 there is exact rather than a guard.
    """
    u = np.asarray(col_k)
    v = np.asarray(col_n)
    if u.shape != v.shape or u.ndim != 1:
        raise ShapeError(f"expected equal-length vectors, got {u.shape} and {v.shape}")
    diff = u - v
    lhs = float(np.einsum("i,i->", diff, diff, dtype=np.float64))
    m_u = float(np.sqrt(np.einsum("i,i->", u, u, dtype=np.float64)))
    m_v = float(np.sqrt(np.einsum("i,i->", v, v, dtype=np.float64)))
    if m_u == 0.0 or m_v == 0.0:
        cos = 0.0
    else:
        cos = float(np.einsum("i,i->", u, v, dtype=np.float64)) / (m_u * m_v)
    rhs = (m_u - m_v) ** 2 + 2.0 * m_u * m_v * (1.0 - cos)
    return lhs, rhs


@dataclass(frozen=True)
class HeterogeneityStats:
    """Per-tensor residual diagnostics: norms, reorientation, alignment.

    For 1D tensors the direction fields are absent and the cross cosine is
    taken over the whole residual vectors.
    """

    residual_norm_ml: float
    residual_norm_mm: float
    mean_dir_dev_ml: float | None
    mean_dir_dev_mm: float | None
    mean_cross_cosine: float


def tensor_stats(triple: AlignedTriple, epsilon: float = EPSILON_DEFAULT) -> HeterogeneityStats:
    """Residual norms, mean reorientation, and cross-residual alignment for
    one aligned parameter."""
    base, ml, mm = triple.to_f32()
    delta_ml = ml - base
    delta_mm = mm - base

    flat_ml, flat_mm = delta_ml.ravel(), delta_mm.ravel()
    norm_ml = float(np.sqrt(np.einsum("i,i->", flat_ml, flat_ml, dtype=np.float64)))
    norm_mm = float(np.sqrt(np.einsum("i,i->", flat_mm, flat_mm, dtype=np.float64)))

    cross = float(cross_alignment(delta_ml, delta_mm, epsilon).mean())
    if base.ndim == 1:
        return HeterogeneityStats(norm_ml, norm_mm, None, None, cross)
    dev = column_deviations(base, ml, mm, epsilon)
    return HeterogeneityStats(norm_ml, norm_mm, float(dev.dir_ml.mean()), float(dev.dir_mm.mean()), cross)
