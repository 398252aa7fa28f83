"""Classical residual-merging baselines: task arithmetic, DARE, TIES and
Breadcrumbs.

Their one entry point is :func:`merge_baseline_values`, which the merge's
pass 1 calls on a tensor's decoded residuals; to run a baseline on one
tensor, call :func:`~dimerge.merge.merge_tensor` with the method in its
config. So every method honors the same scope filtering and anchor
pass-through as the column-wise merge. TIES and Breadcrumbs first cut each
residual by its |delta|, found by partitioning one copy of it: TIES keeps
the top of each, Breadcrumbs drops the top and the bottom, both sides of
one cut. Then every method composes the merge one block of rows at a
time, in place, applying the cuts in flat order.
Random drop masks come from a counter-based generator keyed by (seed,
tensor-name hash, element index), so results are identical under any
parallel schedule and any block size.
"""

from __future__ import annotations

import hashlib
import logging
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConfigError, Record, read_section, read_value

logger = logging.getLogger(__name__)

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


@dataclass(frozen=True)
class BaselineParams(Record):
    """Hyperparameters for the baseline methods; defaults are config-exposed."""

    lam: float = field(default=1.0, metadata={"key": "lambda"})
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
    (threshold ties go to lower flat indices). Given ``drop``, the cut also
    takes the ``drop`` smallest of the rest: the scores below ``floor``, then
    the first ``floor_ties`` equal to it in flat order.

    Finding the cut partitions the scores in place, so it takes linear time
    and no copy; ``flags`` is contiguous bool scratch of any size.
    :meth:`select` then marks what the cut takes one block at a time, the
    blocks coming in flat order.
    """

    def __init__(self, scores: np.ndarray, keep: int, flags: np.ndarray, drop: int | None = None):
        flat, flags = scores.reshape(-1), flags.reshape(-1)
        n = flat.size
        self.keep = min(max(keep, 0), n)
        self.drop = drop if drop is None else min(max(drop, 0), n - self.keep)
        self.threshold, self.ties = np.inf, 0
        self.floor, self.floor_ties = -np.inf, 0
        if self.keep:
            flat.partition(n - self.keep)
            top = flat[n - self.keep:]
            self.threshold = top[0]
            self.ties = _count_equal(top, self.threshold, flags)
        if self.drop:
            low = flat[:n - self.keep]
            low.partition(self.drop - 1)
            self.floor = low[self.drop - 1]
            self.floor_ties = _count_equal(low[:self.drop], self.floor, flags)
        # [score, ties left to take] per tie group: where the sides meet, one
        # group whose first floor_ties are the bottom's and the next ties the top's
        if self.floor == self.threshold:
            self._ties = [[self.threshold, self.floor_ties + self.ties]]
        else:
            self._ties = [[self.floor, self.floor_ties], [self.threshold, self.ties]]

    def select(self, scores: np.ndarray, out: np.ndarray, below: np.ndarray | None = None) -> np.ndarray:
        """Mark in ``out`` (contiguous bool, of the scores' shape) the scores
        of the next block that the cut takes; a cut with a bottom side also
        needs ``below``, bool scratch of that shape."""
        ties = []
        for group in self._ties:
            if group[1]:
                ties.append(np.flatnonzero(np.equal(scores, group[0], out=out))[:group[1]])
                group[1] -= ties[-1].size
        np.greater(scores, self.threshold, out=out)
        if self.drop is not None:
            out |= np.less(scores, self.floor, out=below)
        for index in ties:
            out.reshape(-1)[index] = True
        return out

    def describe(self, label: str) -> str:
        """Each side of the cut for the log: its size, threshold and ties."""
        top = f"keep {self.keep}, threshold {self.threshold:.6g}, {self.ties} ties admitted"
        if self.drop is None:
            return f"{label} {top}"
        return (f"{label} bottom keep {self.drop}, threshold {self.floor:.6g}, {self.floor_ties} ties admitted; "
                f"{label} top {top}")


# ---------------------------------------------------------------------------
# block transforms: in place on a block of rows of the residuals
# ---------------------------------------------------------------------------


def _ties_block(base: np.ndarray, t_ml: np.ndarray, t_mm: np.ndarray, mag_ml: np.ndarray, lam: float,
                sign: np.ndarray, count: np.ndarray, agree: np.ndarray) -> np.ndarray:
    """Elect a sign per coordinate from the trimmed residuals' mass (ties
    elect positive) and average the agreeing residuals, in place in ``t_ml``.
    ``mag_ml`` is |t_ml| before the trim; ``sign`` and ``count`` are float32
    and ``agree`` bool scratch of the block's shape."""
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
    # flipped, every sum is >= 0, so one max finds any that overflowed; the
    # mean of those two agreeing residuals is in range as |a|/2 + |b|/2
    if t_ml.max() == np.inf:
        over = np.isinf(t_ml)
        t_ml[over] = mag_ml[over] / np.float32(2.0) + t_mm[over] / np.float32(2.0)
        count[over] = 1.0
    np.maximum(count, np.float32(1.0), out=count)
    t_ml /= count
    t_ml *= sign
    t_ml += np.float32(0.0)   # turns -0.0 into +0.0 where no entry agrees
    t_ml *= np.float32(lam)
    t_ml += base
    return t_ml


# ---------------------------------------------------------------------------
# methods: cut the whole residuals, then compose block by block
# ---------------------------------------------------------------------------

# slots of the caller's scratch that the methods take (0-5 are left to the
# caller: its block buffers and the decoded tensors)
_SCORES, _FLAGS, _SIGN, _COUNT = 6, 7, 8, 9
_BELOW = _SIGN   # Breadcrumbs' second bool block, in a slot TIES alone uses


def _cut_residuals(ml, mm, name: str, take, block: int, keep: int, drop: int | None = None):
    """Both residuals' cuts by |delta|, scored in the score slot and logged;
    returns the scores, the cuts' bool rows and the cuts."""
    scores = take(_SCORES, ml.shape, ml.dtype)
    flags = take(_FLAGS, (block, ml.shape[1]), bool)
    cuts = [TopKCut(np.abs(delta, out=scores), keep, flags, drop) for delta in (ml, mm)]
    logger.debug("%s: top-k cut done: %s", name,
                 "; ".join(cut.describe(label) for label, cut in zip(("ml", "mm"), cuts)))
    return scores, flags, cuts


def _plan_task_arithmetic(base, ml, mm, lam: float) -> Callable[[int, int], np.ndarray]:
    """``base + lam * (ml + mm)`` of the residuals, in place in ``ml``'s rows."""
    def compose(r0, r1):
        merged = ml[r0:r1]
        merged += mm[r0:r1]
        merged *= np.float32(lam)
        merged += base[r0:r1]
        return merged

    return compose


def _plan_dare(base, ml, mm, params: BaselineParams, seed: int, name: str) -> Callable[[int, int], np.ndarray]:
    """Drop each residual entry with probability p and rescale the survivors
    by 1/(1-p), then add as task arithmetic; entry i of a source draws
    uniform i of (seed, source-qualified name)."""
    p, merge = params.dare_drop_p, _plan_task_arithmetic(base, ml, mm, params.lam)

    def compose(r0, r1):
        for delta, source in ((ml[r0:r1], "ml:"), (mm[r0:r1], "mm:")):
            if p:
                drop = unit_uniforms(seed, source + name, delta.size, r0 * ml.shape[1]).reshape(delta.shape) < p
                delta /= np.float32(1.0 - p)
                np.copyto(delta, delta.dtype.type(0), where=drop)
        return merge(r0, r1)

    return compose


def _plan_ties(base, ml, mm, params: BaselineParams, name: str, take, block: int) -> Callable[[int, int], np.ndarray]:
    scores, flags, cuts = _cut_residuals(ml, mm, name, take, block, math.ceil(params.ties_density * ml.size))
    sign, count = (take(slot, flags.shape, np.float32) for slot in (_SIGN, _COUNT))

    def compose(r0, r1):
        rows, t_ml, t_mm = r1 - r0, ml[r0:r1], mm[r0:r1]
        # mm's cut first, so that the block's scores left for the merge are |ml|
        for delta, cut in zip((t_mm, t_ml), cuts[::-1]):
            delta *= cut.select(np.abs(delta, out=scores[r0:r1]), flags[:rows])
        return _ties_block(base[r0:r1], t_ml, t_mm, scores[r0:r1], params.lam, sign[:rows], count[:rows],
                           flags[:rows])

    return compose


def _plan_breadcrumbs(base, ml, mm, params: BaselineParams, name: str, take,
                      block: int) -> Callable[[int, int], np.ndarray]:
    """Zero the int(beta*n) smallest |delta| of each residual and the
    int(gamma*n) largest of the rest, then add as task arithmetic. One cut
    takes both: int(beta*n) + int(gamma*n) <= n, so the top of the
    survivors is the top overall, save for the ties where the sides meet."""
    keep, drop = (int(fraction * ml.size) for fraction in (params.breadcrumbs_gamma, params.breadcrumbs_beta))
    scores, flags, cuts = _cut_residuals(ml, mm, name, take, block, keep, drop)
    below = take(_BELOW, flags.shape, bool)
    merge = _plan_task_arithmetic(base, ml, mm, params.lam)

    def compose(r0, r1):
        rows = r1 - r0
        for delta, cut in zip((ml[r0:r1], mm[r0:r1]), cuts):
            dropped = cut.select(np.abs(delta, out=scores[r0:r1]), flags[:rows], below[:rows])
            np.copyto(delta, delta.dtype.type(0), where=dropped)
        return merge(r0, r1)

    return compose


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
    """
    if method == "task_arithmetic":
        return _plan_task_arithmetic(base, delta_ml, delta_mm, params.lam)
    if method == "dare":
        return _plan_dare(base, delta_ml, delta_mm, params, seed, tensor_name)
    plan = _plan_ties if method == "ties" else _plan_breadcrumbs
    return plan(base, delta_ml, delta_mm, params, tensor_name, take, min(block_rows, len(base)))
