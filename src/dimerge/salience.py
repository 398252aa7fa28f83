"""Per-column source weights from deviation vectors.

The default pipeline ranks deviations within each source (average ranks for
ties, scaled to (0, 1]), compares the two sources through a softmax over the
normalized ranks — which for two sources reduces to the logistic of the rank
gap — and averages the magnitude and direction branches into final weights
on the 2-simplex. The alternative estimators and aggregations are ablation
variants switchable per run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, NumericError, Record, ShapeError

_ZSCORE_STD_GUARD = 1e-12
_RATIO_SUM_GUARD = 1e-12

ESTIMATORS = ("rank", "raw", "zscore", "minmax", "ratio")


@dataclass(frozen=True)
class AggregationKind(Record):
    """How the magnitude and direction branches combine into one weight.

    ``lam`` is the weight of the named branch for the weighted kinds and must
    lie in (0.5, 1); a weighted kind given none, in code or in a config
    (``merge.aggregation``), gets 0.75. It is absent otherwise.
    """

    _WEIGHTED = ("dir_weighted", "mag_weighted")
    _KINDS = ("average", "dir_weighted", "mag_weighted", "mag_only", "dir_only")
    section = "merge.aggregation"

    kind: str = field(default="average", metadata={"choices": _KINDS})
    lam: float | None = field(default=None, metadata={"key": "lambda", "kind": "number"})

    def __post_init__(self):
        super().__post_init__()
        if self.kind in self._WEIGHTED:
            object.__setattr__(self, "lam", 0.75 if self.lam is None else self.lam)
            if not (0.5 < self.lam < 1.0):
                raise ConfigError(f"merge.aggregation.lambda must be in (0.5, 1) for {self.kind}, got {self.lam}")
        elif self.lam is not None:
            raise ConfigError(f"merge.aggregation.lambda must be absent for {self.kind}, got {self.lam}")


@dataclass(frozen=True)
class SalienceWeights:
    """Branch scores and final per-column weights for the two sources.

    ``omega_ml + omega_mm == 1`` columnwise. For element-wise (1D) salience
    there is a single branch, mirrored into both branch fields.
    """

    s_mag_ml: np.ndarray
    s_dir_ml: np.ndarray
    omega_ml: np.ndarray
    omega_mm: np.ndarray


def rank_normalize(dev: np.ndarray) -> np.ndarray:
    """Average-tie ranks of a deviation vector, scaled into (0, 1].

    Ranks ascend with deviation: the largest deviation gets rank d, so a
    source that rewrites a column more strongly ranks higher there. A tied
    group occupying sorted positions ``start + 1 .. end`` gets the rank
    ``(start + 1 + end) / 2``, a half-integer and so exact in float64.
    """
    dev = np.asarray(dev, dtype=np.float64)
    if dev.ndim != 1 or dev.size == 0:
        raise ShapeError("rank_normalize expects a non-empty 1D vector")
    if not np.all(np.isfinite(dev)):
        raise NumericError("deviations contain non-finite entries")
    n = dev.size
    order = np.argsort(dev, kind="stable")
    ordered = dev[order]
    starts = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))
    ends = np.append(starts[1:], n)
    ranks = np.empty(n, dtype=np.float64)
    ranks[order] = np.repeat((starts + 1 + ends) / 2.0, ends - starts)
    return ranks / n


def salience_pair(r_ml, r_mm):
    """Two-source softmax over scores, computed as the logistic of the gap.

    ``exp(a) / (exp(a) + exp(b))`` equals ``sigma(a - b)``, so only the gap
    matters. Evaluated canonically from the absolute gap so that swapping
    the inputs swaps the outputs bitwise and each pair sums to exactly 1.
    Accepts scalars or arrays.
    """
    gap = np.asarray(r_ml, dtype=np.float64) - np.asarray(r_mm, dtype=np.float64)
    with np.errstate(over="ignore"):    # exp overflows to inf, giving 0
        low = 1.0 / (1.0 + np.exp(np.abs(gap)))  # losing side, in [0, 0.5]
    high = 1.0 - low
    ml_wins = gap >= 0
    s_ml = np.where(ml_wins, high, low)
    s_mm = np.where(ml_wins, low, high)
    if np.ndim(s_ml) == 0:
        return float(s_ml), float(s_mm)
    return s_ml, s_mm


def estimate_salience(dev_ml: np.ndarray, dev_mm: np.ndarray, estimator: str = "rank") -> tuple[np.ndarray, np.ndarray]:
    """Cross-source salience scores from one branch's deviation vectors by
    the ``estimator`` named (one of ``ESTIMATORS``)."""
    if estimator not in ESTIMATORS:
        raise ConfigError(f"unknown estimator {estimator!r}")
    dev_ml = np.asarray(dev_ml, dtype=np.float64)
    dev_mm = np.asarray(dev_mm, dtype=np.float64)
    if dev_ml.shape != dev_mm.shape or dev_ml.ndim != 1:
        raise ShapeError(f"deviation shapes differ: {dev_ml.shape} vs {dev_mm.shape}")

    if estimator == "rank":
        return salience_pair(rank_normalize(dev_ml), rank_normalize(dev_mm))
    if estimator == "raw":
        return salience_pair(dev_ml, dev_mm)
    if estimator == "zscore":
        return salience_pair(_zscore(dev_ml), _zscore(dev_mm))
    if estimator == "minmax":
        return salience_pair(_minmax(dev_ml), _minmax(dev_mm))
    # ratio
    total = dev_ml + dev_mm
    tiny = total < _RATIO_SUM_GUARD
    safe = np.where(tiny, 1.0, total)
    s_ml = np.where(tiny, 0.5, dev_ml / safe)
    s_mm = np.where(tiny, 0.5, dev_mm / safe)
    return s_ml, s_mm


def _zscore(x: np.ndarray) -> np.ndarray:
    # exactly-rounded sums keep standardization permutation-invariant bitwise
    mean = math.fsum(x) / x.size
    centered = x - mean
    std = math.sqrt(math.fsum(centered * centered) / x.size)
    if std < _ZSCORE_STD_GUARD:
        return np.zeros_like(x)
    return centered / std


def _minmax(x: np.ndarray) -> np.ndarray:
    lo, hi = float(x.min()), float(x.max())
    if hi == lo:
        return np.full_like(x, 0.5)
    return (x - lo) / (hi - lo)


def aggregate_branches(
    s_mag_ml: np.ndarray, s_dir_ml: np.ndarray, agg: AggregationKind
) -> SalienceWeights:
    """Combine the two branches' multilingual scores into simplex weights.

    The default average is also the minimizer of the squared-distance
    consensus between the two branch score pairs on the simplex.
    """
    s_mag_ml = np.asarray(s_mag_ml, dtype=np.float64)
    s_dir_ml = np.asarray(s_dir_ml, dtype=np.float64)
    if s_mag_ml.shape != s_dir_ml.shape:
        raise ShapeError(f"branch shapes differ: {s_mag_ml.shape} vs {s_dir_ml.shape}")
    for label, s in (("magnitude", s_mag_ml), ("direction", s_dir_ml)):
        if np.any(s < 0.0) or np.any(s > 1.0):
            raise NumericError(f"{label} branch scores outside [0, 1]")

    if agg.kind == "average":
        omega_ml = 0.5 * (s_mag_ml + s_dir_ml)
    elif agg.kind == "dir_weighted":
        omega_ml = agg.lam * s_dir_ml + (1.0 - agg.lam) * s_mag_ml
    elif agg.kind == "mag_weighted":
        omega_ml = agg.lam * s_mag_ml + (1.0 - agg.lam) * s_dir_ml
    elif agg.kind == "mag_only":
        omega_ml = s_mag_ml.copy()
    else:  # dir_only
        omega_ml = s_dir_ml.copy()

    return SalienceWeights(
        s_mag_ml=s_mag_ml, s_dir_ml=s_dir_ml, omega_ml=omega_ml, omega_mm=1.0 - omega_ml
    )


def elementwise_salience(dev_ml: np.ndarray, dev_mm: np.ndarray, estimator: str = "rank") -> SalienceWeights:
    """Single-branch salience for 1D parameters: the weights are the scores,
    by the ``estimator`` named."""
    s_ml, s_mm = estimate_salience(dev_ml, dev_mm, estimator)
    return SalienceWeights(s_mag_ml=s_ml, s_dir_ml=s_ml, omega_ml=s_ml, omega_mm=s_mm)
