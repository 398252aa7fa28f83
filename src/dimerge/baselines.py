"""Classical residual-merging baselines over the aligned-triple plumbing.

All four methods operate on the two source residuals relative to the base
tensor and honor the same scope filtering and anchor pass-through as the
column-wise merge. Random drop masks come from a counter-based generator
keyed by (seed, tensor-name hash, element index), so results are identical
under any parallel schedule.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .align import AlignedTriple
from .errors import ConfigError

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


@dataclass(frozen=True)
class BaselineParams:
    """Hyperparameters for the baseline methods; defaults are config-exposed."""

    lam: float = 1.0
    dare_drop_p: float = 0.9
    ties_density: float = 0.2
    breadcrumbs_beta: float = 0.85
    breadcrumbs_gamma: float = 0.01

    def __post_init__(self):
        if not (0.0 <= self.dare_drop_p < 1.0):
            raise ConfigError(f"dare_drop_p must be in [0, 1), got {self.dare_drop_p}")
        if not (0.0 < self.ties_density <= 1.0):
            raise ConfigError(f"ties_density must be in (0, 1], got {self.ties_density}")
        if not (0.0 <= self.breadcrumbs_beta < 1.0) or not (0.0 <= self.breadcrumbs_gamma < 1.0):
            raise ConfigError("breadcrumbs fractions must be in [0, 1)")
        if self.breadcrumbs_beta + self.breadcrumbs_gamma >= 1.0:
            raise ConfigError("breadcrumbs beta + gamma must be < 1")

    def to_dict(self) -> dict:
        return {
            "lambda": self.lam,
            "dare_drop_p": self.dare_drop_p,
            "ties_density": self.ties_density,
            "breadcrumbs_beta": self.breadcrumbs_beta,
            "breadcrumbs_gamma": self.breadcrumbs_gamma,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "BaselineParams":
        defaults = cls()
        return cls(
            lam=float(data.get("lambda", defaults.lam)),
            dare_drop_p=float(data.get("dare_drop_p", defaults.dare_drop_p)),
            ties_density=float(data.get("ties_density", defaults.ties_density)),
            breadcrumbs_beta=float(data.get("breadcrumbs_beta", defaults.breadcrumbs_beta)),
            breadcrumbs_gamma=float(data.get("breadcrumbs_gamma", defaults.breadcrumbs_gamma)),
        )


# ---------------------------------------------------------------------------
# counter-based randomness
# ---------------------------------------------------------------------------


def _mix64(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


def name_hash64(name: str) -> int:
    """Stable 64-bit hash of a tensor name (independent of PYTHONHASHSEED)."""
    return int.from_bytes(hashlib.blake2b(name.encode("utf-8"), digest_size=8).digest(), "little")


def unit_uniforms(seed: int, name: str, n: int) -> np.ndarray:
    """n uniforms in [0, 1), element i depending only on (seed, name, i)."""
    with np.errstate(over="ignore"):
        base = _mix64(np.uint64(seed & 0xFFFFFFFFFFFFFFFF) + _GAMMA) ^ np.uint64(name_hash64(name))
        counters = base + (np.arange(1, n + 1, dtype=np.uint64)) * _GAMMA
        bits = _mix64(counters)
    return (bits >> np.uint64(11)).astype(np.float64) * 2.0**-53


# ---------------------------------------------------------------------------
# transforms and merges (array level)
# ---------------------------------------------------------------------------


def deltas_f32(triple: AlignedTriple) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(base, ml - base, mm - base) in float32; the residuals overwrite the
    decoded source copies, so no extra tensor-sized array stays live."""
    base, ml, mm = triple.to_f32()
    ml -= base
    mm -= base
    return base, ml, mm


def task_arithmetic_values(base: np.ndarray, delta_ml: np.ndarray, delta_mm: np.ndarray, lam: float) -> np.ndarray:
    """Sum of the two residuals added to the base, scaled by ``lam``."""
    return base + np.float32(lam) * (delta_ml + delta_mm)


def dare_values(delta: np.ndarray, p: float, seed: int, tensor_name: str) -> np.ndarray:
    """Drop each element with probability ``p`` and rescale survivors by
    ``1/(1-p)``. The mask is keyed by (seed, tensor_name, element index)."""
    if not (0.0 <= p < 1.0):
        raise ConfigError(f"drop probability must be in [0, 1), got {p}")
    if p == 0.0:
        return delta.copy()
    u = unit_uniforms(seed, tensor_name, delta.size).reshape(delta.shape)
    keep = u >= p
    return np.where(keep, delta / np.float32(1.0 - p), np.float32(0.0)).astype(delta.dtype, copy=False)


def _top_k_mask(scores: np.ndarray, keep: int) -> np.ndarray:
    """Mask of the ``keep`` largest scores; threshold ties go to lower flat
    indices. One partition finds the threshold, so the cost is linear."""
    flat = scores.ravel()
    n = flat.size
    if keep <= 0:
        return np.zeros(scores.shape, dtype=bool)
    if keep >= n:
        return np.ones(scores.shape, dtype=bool)
    threshold = np.partition(flat, n - keep)[n - keep]
    mask = flat > threshold
    at = np.flatnonzero(flat == threshold)
    mask[at[: keep - np.count_nonzero(mask)]] = True
    return mask.reshape(scores.shape)


def ties_merge_values(
    base: np.ndarray, delta_ml: np.ndarray, delta_mm: np.ndarray, density: float, lam: float
) -> np.ndarray:
    """Trim small updates per source, elect a sign per coordinate from the
    kept mass (ties elect positive), and average the agreeing residuals."""
    if not (0.0 < density <= 1.0):
        raise ConfigError(f"density must be in (0, 1], got {density}")
    keep = math.ceil(density * base.size)
    t_ml = delta_ml * _top_k_mask(np.abs(delta_ml), keep)
    t_mm = delta_mm * _top_k_mask(np.abs(delta_mm), keep)
    # elected sign: -1 where the kept mass is negative, else +1
    sign = np.less(t_ml + t_mm, 0.0).astype(np.float32)
    sign *= np.float32(-2.0)
    sign += np.float32(1.0)
    # in place from here: flipping by the elected sign (exact) makes the
    # agreeing entries the positive ones; the rest, zeros included, drop out
    t_ml *= sign
    t_mm *= sign
    agree_ml = t_ml > 0.0
    agree_mm = t_mm > 0.0
    t_ml *= agree_ml
    t_mm *= agree_mm
    t_ml += t_mm
    count = agree_ml.astype(np.float32)
    count += agree_mm
    np.maximum(count, np.float32(1.0), out=count)
    t_ml /= count
    t_ml *= sign
    t_ml += np.float32(0.0)   # turns -0.0 into +0.0 where no entry agrees
    t_ml *= np.float32(lam)
    t_ml += base
    return t_ml


def breadcrumbs_values(delta: np.ndarray, beta: float, gamma: float) -> np.ndarray:
    """Zero the bottom ``beta`` and top ``gamma`` fractions of entries by
    absolute value; threshold ties are dropped at lower flat indices first."""
    if beta < 0 or gamma < 0 or beta + gamma >= 1.0:
        raise ConfigError(f"need beta, gamma >= 0 with beta + gamma < 1, got {beta}, {gamma}")
    n = delta.size
    magnitude = np.abs(delta)
    bottom = _top_k_mask(-magnitude, int(beta * n))
    # dropped entries score -1, below every |delta|, so the top cut sees
    # only survivors (int(beta*n) + int(gamma*n) <= n)
    top = _top_k_mask(np.where(bottom, np.float32(-1.0), magnitude), int(gamma * n))
    return np.where(bottom | top, delta.dtype.type(0), delta)


def merge_baseline_values(
    method: str,
    base: np.ndarray,
    delta_ml: np.ndarray,
    delta_mm: np.ndarray,
    params: BaselineParams,
    seed: int,
    tensor_name: str,
) -> np.ndarray:
    """Dispatch one tensor through a baseline method, returning f32 values.

    DARE masks are keyed by source-qualified names so the two residuals get
    independent drop patterns.
    """
    if method == "task_arithmetic":
        return task_arithmetic_values(base, delta_ml, delta_mm, params.lam)
    if method == "dare":
        d_ml = dare_values(delta_ml, params.dare_drop_p, seed, "ml:" + tensor_name)
        d_mm = dare_values(delta_mm, params.dare_drop_p, seed, "mm:" + tensor_name)
        return task_arithmetic_values(base, d_ml, d_mm, params.lam)
    if method == "ties":
        return ties_merge_values(base, delta_ml, delta_mm, params.ties_density, params.lam)
    if method == "breadcrumbs":
        d_ml = breadcrumbs_values(delta_ml, params.breadcrumbs_beta, params.breadcrumbs_gamma)
        d_mm = breadcrumbs_values(delta_mm, params.breadcrumbs_beta, params.breadcrumbs_gamma)
        return task_arithmetic_values(base, d_ml, d_mm, params.lam)
    raise ConfigError(f"unknown baseline method {method!r}")
