"""Classical residual-merging baselines: task arithmetic, DARE, TIES and
Breadcrumbs.

Their one entry point is :func:`merge_baseline_values`, which the merge's
pass 1 calls on an aligned tensor; to run a baseline on one tensor, call
:func:`~dimerge.merge.merge_tensor` with the method in its config. So every
method honors the same scope filtering and anchor pass-through as the
column-wise merge. Every method composes the merge one block of rows at a
time: it reads those rows of base, ml and mm, forms both residuals and
merges them in place. TIES and Breadcrumbs first cut each residual by its
|delta|, streamed block by block into one tensor-sized array per residual
and found by partitioning it: TIES keeps the top of each, Breadcrumbs drops
the top and the bottom, both sides of one cut; the compose applies the
cuts in flat order. Task arithmetic and DARE hold nothing tensor-sized.
Every array is one of the worker's :class:`~dimerge.merge.BlockBuffers`.
Every method drops entries one way: it multiplies a residual block in place
by a kept mask. DARE draws its mask from a counter-based generator keyed by
(seed, tensor-name hash, element index), so results are identical under any
parallel schedule and any block size.
"""

from __future__ import annotations

import hashlib
import logging
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

import numpy as np

from .align import ROLES, AlignedTriple
from .errors import ConfigError, Record, read_section, read_value
from .records import all_finite, require_finite

if TYPE_CHECKING:
    from .merge import BlockBuffers

logger = logging.getLogger(__name__)

_GAMMA, _MIX1, _MIX2 = 0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB


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


def _mix64(z: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Splitmix64's finalizer, in place in the uint64 ``z`` with ``scratch`` of its shape."""
    for shift, factor in ((30, _MIX1), (27, _MIX2)):
        z ^= np.right_shift(z, shift, out=scratch)
        z *= factor
    return np.bitwise_xor(z, np.right_shift(z, 31, out=scratch), out=z)


def _draw_bits(seed: int, name: str, start: int, out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Random bits of elements ``start``, ``start + 1``, ... of (seed, name)
    in place in the 1D uint64 ``out``, with ``scratch`` of its shape; a
    stream drawn in pieces equals the stream drawn whole."""
    key = int(_mix64(np.array([(seed + _GAMMA) % 2**64], np.uint64), np.empty(1, np.uint64))[0])
    digest = hashlib.blake2b(name.encode("utf-8"), digest_size=8).digest()   # not Python's salted hash
    out.fill(_GAMMA)
    out[:1] = ((key ^ int.from_bytes(digest, "little")) + (start + 1) * _GAMMA) % 2**64
    np.cumsum(out, out=out)   # element i: that key + (start + i + 1) * gamma, modulo 2**64
    return _mix64(out, scratch)


def unit_uniforms(seed: int, name: str, n: int, start: int = 0) -> np.ndarray:
    """n uniforms in [0, 1): the top 53 bits of elements ``start`` on of DARE's (seed, name) stream."""
    bits = _draw_bits(seed, name, start, np.empty(n, np.uint64), np.empty(n, np.uint64))
    return (bits >> 11).astype(np.float64) * 2.0**-53


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
# methods: cut the streamed |delta|, then compose block by block
# ---------------------------------------------------------------------------

def _residual_rows(triple: AlignedTriple, buffers: BlockBuffers, r0: int, r1: int,
                   check: bool = True) -> list[np.ndarray]:
    """Rows ``r0:r1`` of the aligned (base, ml - base, mm - base) as float32
    matrices in the role buffers of ``buffers``, both residuals checked for
    non-finite values unless ``check`` is false; a non-finite base makes
    both non-finite. Only once a check fails are the inputs read again, in
    role order, to tell a non-finite input from finite inputs whose
    residual is past float32."""
    blocks = buffers.read(triple, r0, r1)
    with np.errstate(over="ignore", invalid="ignore"):   # checked next
        for delta in blocks[1:]:
            delta -= blocks[0]
    if check and not all(all_finite(delta) for delta in blocks[1:]):
        for role, values in zip(ROLES, blocks):
            for word, read in (("tensor", triple.decode_rows(role, r0, r1)), ("residual", values)):
                require_finite(read, f"{triple.name}: {role} {word} contains non-finite values")
    return blocks


def _cut_residuals(triple: AlignedTriple, buffers: BlockBuffers, keep: int, drop: int | None = None):
    """Pass 1 of a top-k method: each residual's |delta|, streamed block by
    block into its tensor-sized scores buffer, and cut there; logged.
    Returns ml's scores (row scratch from then on) and the cuts."""
    scores = [buffers.take(name, triple.matrix, np.float32) for name in ("scores_ml", "scores_mm")]
    blocks = buffers.blocks(*triple.matrix)
    for r0, r1 in blocks:
        for delta, out in zip(_residual_rows(triple, buffers, r0, r1)[1:], scores):
            np.abs(delta, out=out[r0:r1])
    # the cut counts its ties in the flags the compose marks, the first (and tallest) block's worth at a time
    flags = buffers.take("flags", (blocks[0][1], triple.matrix[1]), bool)
    cuts = [TopKCut(part, keep, flags, drop) for part in scores]
    logger.debug("%s: top-k cut done: %s", triple.name,
                 "; ".join(cut.describe(label) for label, cut in zip(("ml", "mm"), cuts)))
    return scores[0], cuts


def _task_arithmetic(base: np.ndarray, ml: np.ndarray, mm: np.ndarray, lam: float) -> np.ndarray:
    """``base + lam * (ml + mm)`` of a block's residuals, in place in ``ml``."""
    ml += mm
    ml += np.float32(0.0)   # two dropped negative entries sum to +0.0, as two zeros do
    ml *= np.float32(lam)
    ml += base
    return ml


def _plan_dare(triple: AlignedTriple, p: float, lam: float, seed: int,
               buffers: BlockBuffers) -> Callable[[int, int], np.ndarray]:
    """Drop each residual entry with probability p, then rescale the rest by
    1/(1-p) and add as task arithmetic, which is DARE at p = 0. Entry i of a
    source stays where bits i of (seed, source-qualified name) are at least
    ceil(p * 2**53) << 11, just where its :func:`unit_uniforms` is not below p."""
    least = np.uint64(math.ceil(p * 2.0**53) << 11)

    def compose(r0, r1):
        base, ml, mm = _residual_rows(triple, buffers, r0, r1)
        if p:
            bits, scratch = (buffers.take(buffer, (ml.size,), np.uint64) for buffer in ("bits", "bits_scratch"))
            for delta, source in ((ml, "ml:"), (mm, "mm:")):
                _draw_bits(seed, source + triple.name, r0 * delta.shape[1], bits, scratch)
                kept = buffers.take("flags", delta.shape, bool)
                delta *= np.greater_equal(bits.reshape(delta.shape), least, out=kept)
                delta /= np.float32(1.0 - p)   # after the drop: a dropped entry never overflows
        return _task_arithmetic(base, ml, mm, lam)

    return compose


def _plan_ties(triple: AlignedTriple, params: BaselineParams,
               buffers: BlockBuffers) -> Callable[[int, int], np.ndarray]:
    scores, cuts = _cut_residuals(triple, buffers, math.ceil(params.ties_density * triple.size))

    def compose(r0, r1):
        base, t_ml, t_mm = _residual_rows(triple, buffers, r0, r1, check=False)   # checked in pass 1
        flags, sign, count = (buffers.take(name, base.shape, dtype)
                              for name, dtype in (("flags", bool), ("sign", np.float32), ("count", np.float32)))
        # mm's cut first, so that the block's scores left for the merge are |ml|
        for delta, cut in zip((t_mm, t_ml), cuts[::-1]):
            delta *= cut.select(np.abs(delta, out=scores[r0:r1]), flags)
        return _ties_block(base, t_ml, t_mm, scores[r0:r1], params.lam, sign, count, flags)

    return compose


def _plan_breadcrumbs(triple: AlignedTriple, params: BaselineParams,
                      buffers: BlockBuffers) -> Callable[[int, int], np.ndarray]:
    """Zero the int(beta*n) smallest |delta| of each residual and the
    int(gamma*n) largest of the rest, then add as task arithmetic. One cut
    takes both: int(beta*n) + int(gamma*n) <= n, so the top of the
    survivors is the top overall, save for the ties where the sides meet."""
    keep, drop = (int(fraction * triple.size) for fraction in (params.breadcrumbs_gamma, params.breadcrumbs_beta))
    scores, cuts = _cut_residuals(triple, buffers, keep, drop)

    def compose(r0, r1):
        base, ml, mm = _residual_rows(triple, buffers, r0, r1, check=False)   # checked in pass 1
        flags, below = (buffers.take(name, base.shape, bool) for name in ("flags", "below"))
        for delta, cut in zip((ml, mm), cuts):
            delta *= np.logical_not(cut.select(np.abs(delta, out=scores[r0:r1]), flags, below), out=flags)
        return _task_arithmetic(base, ml, mm, params.lam)

    return compose


def merge_baseline_values(method: str, triple: AlignedTriple, params: BaselineParams, seed: int,
                          buffers: BlockBuffers) -> Callable[[int, int], np.ndarray]:
    """Plan one aligned tensor's merge by a baseline method in the worker's
    ``buffers``: TIES and Breadcrumbs stream and cut both residuals' |delta|
    here; the others need no pass 1. Returns ``compose(r0, r1)``, which
    reads rows ``r0:r1`` (in order, one of ``buffers.blocks`` at most) and
    merges them in place in ml's row buffer, a float32 matrix block."""
    if method in ("task_arithmetic", "dare"):
        return _plan_dare(triple, params.dare_drop_p if method == "dare" else 0.0, params.lam, seed, buffers)
    return (_plan_ties if method == "ties" else _plan_breadcrumbs)(triple, params, buffers)
