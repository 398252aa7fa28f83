"""Classical residual-merging baselines: task arithmetic, DARE, TIES and
Breadcrumbs.

Their one entry point is :func:`merge_baseline_values`, which the merge's
pass 1 calls on a tensor's decoded residuals; to run a baseline on one
tensor, call :func:`~dimerge.merge.merge_tensor` with the method in its
config. So every method honors the same scope filtering and anchor
pass-through as the column-wise merge. TIES and Breadcrumbs first find their
top-k cuts over the whole residuals; then every method composes the merge
one block of rows at a time, in place, applying the cuts in flat order.
Random drop masks come from a counter-based generator keyed by (seed,
tensor-name hash, element index), so results are identical under any
parallel schedule and any block size.
"""

from __future__ import annotations

import hashlib
import logging
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError, read_section, read_value

logger = logging.getLogger(__name__)

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
        if not math.isfinite(self.lam):
            raise ConfigError(f"lambda must be finite, got {self.lam}")
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
    def from_dict(cls, data) -> "BaselineParams":
        """Read ``merge.baseline``; each key left out keeps its default."""
        defaults = cls().to_dict()
        data = read_section(data, "merge.baseline", defaults)
        return cls(*(read_value(data, "merge.baseline", key, "number", default) for key, default in defaults.items()))


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




def unit_uniforms(seed: int, name: str, n: int, start: int = 0) -> np.ndarray:
    """n uniforms in [0, 1), element i depending only on (seed, name,
    start + i), so a stream drawn in pieces equals the stream drawn whole."""
    with np.errstate(over="ignore"):
        base = _mix64(np.uint64(seed & 0xFFFFFFFFFFFFFFFF) + _GAMMA) ^ np.uint64(name_hash64(name))
        counters = base + (np.arange(start + 1, start + n + 1, dtype=np.uint64)) * _GAMMA
        bits = _mix64(counters)
    return (bits >> np.uint64(11)).astype(np.float64) * 2.0**-53


# ---------------------------------------------------------------------------
# top-k cuts
# ---------------------------------------------------------------------------


def _count_equal(values: np.ndarray, x, flags: np.ndarray) -> int:
    """Entries of the 1D ``values`` equal to ``x``, compared one chunk the
    size of the bool scratch ``flags`` at a time."""
    count = 0
    for i in range(0, values.size, flags.size):
        part = values[i:i + flags.size]
        count += np.count_nonzero(np.equal(part, x, out=flags[:part.size]))
    return count


class TopKCut:
    """The ``keep`` largest of a score array as a cut: the scores above
    ``threshold``, then the first ``ties`` scores equal to it in flat order
    (threshold ties go to lower flat indices).

    Finding the cut partitions the scores in place, so it takes linear time
    and no copy; ``flags`` is contiguous bool scratch of any size.
    :meth:`select` then marks what the cut admits one block at a time, the
    blocks coming in flat order.
    """

    def __init__(self, scores: np.ndarray, keep: int, flags: np.ndarray):
        flat = scores.reshape(-1)
        n = flat.size
        self.keep = min(max(keep, 0), n)
        self.threshold = np.inf
        self.ties = 0
        self.admitted = 0   # ties admitted by the blocks selected so far
        if self.keep:
            flat.partition(n - self.keep)
            top = flat[n - self.keep:]
            self.threshold = top[0]
            self.ties = _count_equal(top, self.threshold, flags.reshape(-1))

    def select(self, scores: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Mark in ``out`` (contiguous bool, of the scores' shape) the scores
        of the next block that the cut admits."""
        ties = None
        if self.admitted < self.ties:
            ties = np.flatnonzero(np.equal(scores, self.threshold, out=out))[:self.ties - self.admitted]
            self.admitted += ties.size
        np.greater(scores, self.threshold, out=out)
        if ties is not None:
            out.reshape(-1)[ties] = True
        return out

    def __str__(self) -> str:
        return f"keep {self.keep}, threshold {self.threshold:.6g}, {self.ties} ties admitted"


# ---------------------------------------------------------------------------
# block transforms: in place on a block of rows of the residuals
# ---------------------------------------------------------------------------


def _task_arithmetic_block(base: np.ndarray, d_ml: np.ndarray, d_mm: np.ndarray, lam: float) -> np.ndarray:
    """``base + lam * (d_ml + d_mm)``, in place in ``d_ml``."""
    d_ml += d_mm
    d_ml *= np.float32(lam)
    d_ml += base
    return d_ml


def _dare_block(delta: np.ndarray, p: float, seed: int, name: str, start: int) -> np.ndarray:
    """Drop each entry with probability ``p`` and rescale the survivors by
    ``1/(1-p)``, in place; entry i draws uniform ``start + i`` of (seed, name)."""
    if p:
        drop = unit_uniforms(seed, name, delta.size, start).reshape(delta.shape) < p
        delta /= np.float32(1.0 - p)
        np.copyto(delta, delta.dtype.type(0), where=drop)
    return delta


def _ties_block(base: np.ndarray, t_ml: np.ndarray, t_mm: np.ndarray, lam: float,
                sign: np.ndarray, count: np.ndarray, agree: np.ndarray) -> np.ndarray:
    """Elect a sign per coordinate from the trimmed residuals' mass (ties
    elect positive) and average the agreeing residuals, in place in ``t_ml``.
    ``sign`` and ``count`` are float32 and ``agree`` bool scratch of the
    block's shape."""
    # elected sign: -1 where the kept mass is negative, else +1
    np.less(np.add(t_ml, t_mm, out=sign), 0.0, out=agree)
    np.copyto(sign, agree)
    sign *= np.float32(-2.0)
    sign += np.float32(1.0)
    # flipping by the elected sign (exact) makes the agreeing entries the
    # positive ones; the rest, zeros included, drop out
    t_ml *= sign
    t_mm *= sign
    t_ml *= np.greater(t_ml, 0.0, out=agree)
    np.copyto(count, agree)
    t_mm *= np.greater(t_mm, 0.0, out=agree)
    count += agree
    t_ml += t_mm
    np.maximum(count, np.float32(1.0), out=count)
    t_ml /= count
    t_ml *= sign
    t_ml += np.float32(0.0)   # turns -0.0 into +0.0 where no entry agrees
    t_ml *= np.float32(lam)
    t_ml += base
    return t_ml


def _breadcrumbs_scores(delta: np.ndarray, bottom: TopKCut, scores: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Score a block for the top cut into ``scores``: |delta|, and -1 (below
    every |delta|) for the entries the bottom cut drops, which ``mask``
    marks. So the top cut sees only survivors (int(beta*n) + int(gamma*n) <= n)."""
    np.negative(np.abs(delta, out=scores), out=scores)
    bottom.select(scores, mask)
    np.negative(scores, out=scores)
    np.copyto(scores, scores.dtype.type(-1), where=mask)
    return mask


def _breadcrumbs_cuts(delta: np.ndarray, beta: float, gamma: float, scores: np.ndarray,
                      flags: np.ndarray) -> tuple[TopKCut, TopKCut]:
    """The bottom cut (``beta`` of the entries, smallest |delta| first) and
    the top cut (``gamma``, of the survivors) of a residual of rows, scored
    into ``scores`` (of its shape) and ``flags`` (bool rows) a block at a time."""
    n = delta.size
    bottom = TopKCut(np.negative(np.abs(delta, out=scores), out=scores), int(beta * n), flags)
    for r0 in range(0, len(delta), len(flags)):
        r1 = min(r0 + len(flags), len(delta))
        _breadcrumbs_scores(delta[r0:r1], bottom, scores[r0:r1], flags[:r1 - r0])
    top = TopKCut(scores, int(gamma * n), flags)
    bottom.admitted = 0   # the compose pass selects the bottom cut again
    return bottom, top


def _breadcrumbs_block(delta: np.ndarray, bottom: TopKCut, top: TopKCut, scores: np.ndarray,
                       mask: np.ndarray) -> np.ndarray:
    """Zero, in place, the entries of a block that either cut drops."""
    np.copyto(delta, delta.dtype.type(0), where=_breadcrumbs_scores(delta, bottom, scores, mask))
    np.copyto(delta, delta.dtype.type(0), where=top.select(scores, mask))
    return delta


# ---------------------------------------------------------------------------
# methods: cut the whole residuals, then compose block by block
# ---------------------------------------------------------------------------

# slots of the caller's scratch that the methods take (0-5 are left to the
# caller: its block buffers and the decoded tensors)
_SCORES, _FLAGS, _SIGN, _COUNT = 6, 7, 8, 9
# merges the block of rows from row r0, given those rows of base, d_ml, d_mm
Compose = Callable[[int, np.ndarray, np.ndarray, np.ndarray], np.ndarray]


def _log_cuts(name: str, cuts: dict[str, TopKCut]) -> None:
    logger.debug("%s: top-k cut done: %s", name, "; ".join(f"{label} {cut}" for label, cut in cuts.items()))


def _plan_task_arithmetic(ml, mm, params: BaselineParams, seed, name, take, block) -> Compose:
    return lambda r0, base, d_ml, d_mm: _task_arithmetic_block(base, d_ml, d_mm, params.lam)


def _plan_dare(ml, mm, params: BaselineParams, seed, name, take, block) -> Compose:
    def compose(r0, base, d_ml, d_mm):
        for delta, source in ((d_ml, "ml:"), (d_mm, "mm:")):
            _dare_block(delta, params.dare_drop_p, seed, source + name, r0 * ml.shape[1])
        return _task_arithmetic_block(base, d_ml, d_mm, params.lam)

    return compose


def _plan_ties(ml, mm, params: BaselineParams, seed, name, take, block) -> Compose:
    keep = math.ceil(params.ties_density * ml.size)
    scores = take(_SCORES, ml.shape, ml.dtype)
    flags = take(_FLAGS, (block, ml.shape[1]), bool)
    cuts = [TopKCut(np.abs(delta, out=scores), keep, flags) for delta in (ml, mm)]
    _log_cuts(name, dict(zip(("ml", "mm"), cuts)))
    sign, count = (take(slot, flags.shape, np.float32) for slot in (_SIGN, _COUNT))

    def compose(r0, base, t_ml, t_mm):
        rows = len(base)
        for delta, cut in zip((t_ml, t_mm), cuts):
            delta *= cut.select(np.abs(delta, out=scores[r0:r0 + rows]), flags[:rows])
        return _ties_block(base, t_ml, t_mm, params.lam, sign[:rows], count[:rows], flags[:rows])

    return compose


def _plan_breadcrumbs(ml, mm, params: BaselineParams, seed, name, take, block) -> Compose:
    scores = take(_SCORES, ml.shape, ml.dtype)
    flags = take(_FLAGS, (block, ml.shape[1]), bool)
    cuts = [_breadcrumbs_cuts(delta, params.breadcrumbs_beta, params.breadcrumbs_gamma, scores, flags)
            for delta in (ml, mm)]
    _log_cuts(name, {f"{source} {end}": cut for source, pair in zip(("ml", "mm"), cuts)
                     for end, cut in zip(("bottom", "top"), pair)})

    def compose(r0, base, d_ml, d_mm):
        rows = len(base)
        for delta, (bottom, top) in zip((d_ml, d_mm), cuts):
            _breadcrumbs_block(delta, bottom, top, scores[r0:r0 + rows], flags[:rows])
        return _task_arithmetic_block(base, d_ml, d_mm, params.lam)

    return compose


_PLANS = {
    "task_arithmetic": _plan_task_arithmetic,
    "dare": _plan_dare,
    "ties": _plan_ties,
    "breadcrumbs": _plan_breadcrumbs,
}


def merge_baseline_values(
    method: str,
    base: np.ndarray,
    delta_ml: np.ndarray,
    delta_mm: np.ndarray,
    params: BaselineParams,
    seed: int,
    tensor_name: str,
    take: Callable[..., np.ndarray],
    block_rows: int,
) -> Callable[[int, int], np.ndarray]:
    """Plan one tensor's merge by a baseline method: TIES and Breadcrumbs cut
    the whole residuals here; the others need no cut.

    ``base`` and the residuals are contiguous float32 matrices of one shape
    (a 1D tensor being one column). Returns ``compose(r0, r1)``, rows
    ``r0:r1`` of the merge in float32, composed in place in those rows of
    ``delta_ml``. The residuals are consumed, so the rows must come in
    order, ``block_rows`` at most at a time. Scratch comes from
    ``take(slot, shape, dtype)``, as :meth:`~dimerge.merge.BlockBuffers.take`
    (slots 6-9).

    DARE masks are keyed by source-qualified names so the two residuals get
    independent drop patterns.
    """
    block = min(block_rows, len(base))
    compose = _PLANS[method](delta_ml, delta_mm, params, seed, tensor_name, take, block)
    return lambda r0, r1: compose(r0, base[r0:r1], delta_ml[r0:r1], delta_mm[r0:r1])
