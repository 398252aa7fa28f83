"""Independent float64 recomputation of merged tensors and diagnose rows.

Written from the method's definition with numpy alone; nothing here imports
the package under measurement, so a defect there cannot hide in its own
reference.
"""

from __future__ import annotations

import math

import numpy as np

from tensorfile import ulp

EPSILON = 1e-8
UNIT_ROUNDOFF_F32 = 2.0**-24

# substring -> module label, first match wins (the documented llama schema)
MODULE_LABELS = (
    ("q_proj", "attn.q"), ("k_proj", "attn.k"), ("v_proj", "attn.v"), ("o_proj", "attn.o"),
    ("gate_proj", "mlp.gate"), ("up_proj", "mlp.up"), ("down_proj", "mlp.down"),
    ("input_layernorm", "norm.in"), ("post_attention_layernorm", "norm.post"),
    ("embed_tokens", "embed"), ("lm_head", "head"),
)


def label_of(name: str) -> str:
    return next((label for sub, label in MODULE_LABELS if sub in name), "other")


def layer_of(name: str) -> int:
    parts = name.split(".")
    if "layers" in parts:
        i = parts.index("layers")
        if i + 1 < len(parts) and parts[i + 1].isdigit():
            return int(parts[i + 1])
    return -1


def average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks with ties given the mean of their positions."""
    order = np.argsort(x, kind="stable")
    sorted_x = x[order]
    starts = np.flatnonzero(np.r_[True, sorted_x[1:] != sorted_x[:-1]])
    ends = np.r_[starts[1:], x.size]
    mean_pos = (starts + ends + 1) / 2.0            # positions start..end-1, 1-based
    ranks = np.empty(x.size)
    ranks[order] = np.repeat(mean_pos, ends - starts)
    return ranks


def _logistic(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))


def _gate(dev_ml: np.ndarray, dev_mm: np.ndarray) -> np.ndarray:
    """Multilingual weight from rank-normalised deviations of both sources."""
    n = dev_ml.size
    return _logistic(average_ranks(dev_ml) / n - average_ranks(dev_mm) / n)


def _rank_bounds(dev: np.ndarray, delta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lowest and highest 1-based rank of each entry when every deviation
    may be off by up to ``delta``. Two entries can swap when they differ by
    less than the sum of their error bars; neighbours have nearly equal
    bars, so twice an entry's own bar is the reach."""
    s = np.sort(dev)
    return (np.searchsorted(s, dev - 2.0 * delta, side="left") + 1.0,
            np.searchsorted(s, dev + 2.0 * delta, side="right") * 1.0)


def _gate_bounds(dev_ml, dev_mm, delta_ml, delta_mm) -> tuple[np.ndarray, np.ndarray]:
    """Range of the gate over every ranking those error bars allow."""
    n = dev_ml.size
    lo_ml, hi_ml = _rank_bounds(dev_ml, delta_ml)
    lo_mm, hi_mm = _rank_bounds(dev_mm, delta_mm)
    return _logistic((lo_ml - hi_mm) / n), _logistic((hi_ml - lo_mm) / n)


def _col_norms(w: np.ndarray) -> np.ndarray:
    return np.sqrt(np.einsum("ij,ij->j", w, w))


def _col_cos(a: np.ndarray, b: np.ndarray, na: np.ndarray, nb: np.ndarray, eps: float) -> np.ndarray:
    guard = (na < eps) | (nb < eps)
    denom = np.where(guard, 1.0, na * nb)
    return np.where(guard, 0.0, np.clip(np.einsum("ij,ij->j", a, b) / denom, -1.0, 1.0))


def dim3(base: np.ndarray, ml: np.ndarray, mm: np.ndarray, eps: float = EPSILON) -> tuple[np.ndarray, np.ndarray]:
    """Rank-estimator, average-aggregation merge of one tensor in float64.

    Returns the merged values and, per element, how far they may move when
    column deviations closer together than the merge's float32 working
    precision are ranked in another order. Element-wise (1D) deviations are
    exact, so there the second array is zero.
    """
    if base.ndim == 1:
        w = _gate(np.abs(ml - base), np.abs(mm - base))
        return base + w * (ml - base) + (1.0 - w) * (mm - base), np.zeros_like(base)
    nb, n1, n2 = _col_norms(base), _col_norms(ml), _col_norms(mm)
    mag1, mag2 = np.abs(n1 - nb), np.abs(n2 - nb)
    dir1 = 1.0 - _col_cos(ml, base, n1, nb, eps)
    dir2 = 1.0 - _col_cos(mm, base, n2, nb, eps)
    w = 0.5 * (_gate(mag1, mag2) + _gate(dir1, dir2))
    # norms accumulate in float64 either way; directions are rounded to
    # float32 first, which moves 1 - cos by at most ~2 u32 sin(theta)
    mag_lo, mag_hi = _gate_bounds(mag1, mag2, 1e-12 * (n1 + nb), 1e-12 * (n2 + nb))
    dir_err = lambda d: 4.0 * UNIT_ROUNDOFF_F32 * np.sqrt(np.maximum(d * (2.0 - d), 0.0)) + 1e-15  # noqa: E731
    dir_lo, dir_hi = _gate_bounds(dir1, dir2, dir_err(dir1), dir_err(dir2))
    w_spread = np.maximum(w - 0.5 * (mag_lo + dir_lo), 0.5 * (mag_hi + dir_hi) - w)
    merged = base + w[None, :] * (ml - base) + (1.0 - w)[None, :] * (mm - base)
    return merged, w_spread[None, :] * np.abs(ml - mm)


def _top_k(mag: np.ndarray, k: int) -> np.ndarray:
    """Mask of the k largest entries; ties at the threshold go to lower flat indices."""
    flat = mag.ravel()
    if k >= flat.size:
        return np.ones(mag.shape, dtype=bool)
    threshold = np.partition(flat, flat.size - k)[flat.size - k]
    above = flat > threshold
    at = np.flatnonzero(flat == threshold)
    mask = above.copy()
    mask[at[: k - int(above.sum())]] = True
    return mask.reshape(mag.shape)


def ties(base: np.ndarray, ml: np.ndarray, mm: np.ndarray, density: float = 0.2, lam: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """Trim to the top ``density`` share per source, elect signs, average agreeing residuals."""
    k = math.ceil(density * base.size)
    d1, d2 = ml - base, mm - base
    t1 = np.where(_top_k(np.abs(d1), k), d1, 0.0)
    t2 = np.where(_top_k(np.abs(d2), k), d2, 0.0)
    sign = np.where(t1 + t2 < 0.0, -1.0, 1.0)
    a1, a2 = np.sign(t1) == sign, np.sign(t2) == sign
    count = a1.astype(np.float64) + a2
    total = np.where(a1, t1, 0.0) + np.where(a2, t2, 0.0)
    merged = base + lam * total / np.where(count == 0.0, 1.0, count)
    return merged, np.zeros_like(merged)


def merged_reference(method: str, base, ml, mm) -> tuple[np.ndarray, np.ndarray]:
    """(float64 merged values, how far a valid ranking may move them)."""
    return {"dim3": dim3, "ties": ties}[method](base, ml, mm)


def tolerance(ref: np.ndarray, rank_spread: np.ndarray, base, ml, mm, dtype: str) -> np.ndarray:
    """One storage ulp at the reference, plus the float32 rounding the merge
    may accumulate on operands of this size before the final cast, plus the
    movement allowed by near-tied column rankings."""
    return ulp(ref, dtype) + 8.0 * UNIT_ROUNDOFF_F32 * (np.abs(base) + np.abs(ml) + np.abs(mm)) + rank_spread


def outside_tolerance(out: np.ndarray, ref: np.ndarray, tol: np.ndarray) -> int:
    return int(np.count_nonzero(np.abs(out - ref) > tol))


# ---------------------------------------------------------------------------
# diagnose
# ---------------------------------------------------------------------------


def tensor_terms(base: np.ndarray, ml: np.ndarray, mm: np.ndarray, eps: float = EPSILON) -> dict:
    """Squared residual norms, and for matrices the column count and the sums
    over columns of reorientation and cross-residual cosine."""
    d1, d2 = ml - base, mm - base
    terms = {"sq_ml": float(np.vdot(d1, d1)), "sq_mm": float(np.vdot(d2, d2)), "cols": 0}
    if base.ndim == 2:
        nb, n1, n2 = _col_norms(base), _col_norms(ml), _col_norms(mm)
        terms.update(
            cols=base.shape[1],
            dir_ml=float(np.sum(1.0 - _col_cos(ml, base, n1, nb, eps))),
            dir_mm=float(np.sum(1.0 - _col_cos(mm, base, n2, nb, eps))),
            cross=float(np.sum(_col_cos(d1, d2, _col_norms(d1), _col_norms(d2), eps))),
        )
    return terms


def diagnose_rows(terms_by_name: dict[str, dict]) -> dict[tuple[int, str], dict]:
    """Group per-tensor terms into (layer, module) rows, as the report defines them."""
    groups: dict[tuple[int, str], list[dict]] = {}
    for name, terms in terms_by_name.items():
        groups.setdefault((layer_of(name), label_of(name)), []).append(terms)
    rows = {}
    for key, members in groups.items():
        cols = sum(t["cols"] for t in members)
        row = {
            "norm_ml": math.sqrt(sum(t["sq_ml"] for t in members)),
            "norm_mm": math.sqrt(sum(t["sq_mm"] for t in members)),
            "dirdev_ml": None, "dirdev_mm": None, "cross_cos": None,
        }
        if cols:
            for field, src in (("dirdev_ml", "dir_ml"), ("dirdev_mm", "dir_mm"), ("cross_cos", "cross")):
                row[field] = sum(t.get(src, 0.0) for t in members) / cols
        rows[key] = row
    return rows
