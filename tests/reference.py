"""Independent straight-line float64 reference for the column-wise merge.

Deliberately written without importing anything from the package under test:
plain loops, brute-force rank counting, a shifted two-term softmax, and a
compose evaluated exactly in rationals and rounded once. This is the oracle
the implementation is checked against, so it must stay naive.
"""

import hashlib
import math
from fractions import Fraction

import numpy as np


def logistic(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def softmax_pair(a: float, b: float) -> tuple[float, float]:
    m = max(a, b)
    ea, eb = math.exp(a - m), math.exp(b - m)
    return ea / (ea + eb), eb / (ea + eb)


def average_ranks(values) -> list[float]:
    """1-based ranks, ties averaged, by brute-force pairwise counting."""
    n = len(values)
    ranks = []
    for i in range(n):
        less = sum(1 for j in range(n) if values[j] < values[i])
        equal = sum(1 for j in range(n) if values[j] == values[i])
        # tied block occupies positions less+1 .. less+equal
        ranks.append(less + (equal + 1) / 2.0)
    return ranks


def column_norm(col) -> float:
    return math.sqrt(sum(float(x) * float(x) for x in col))


def column_cosine(u, v) -> float:
    nu, nv = column_norm(u), column_norm(v)
    if nu == 0.0 or nv == 0.0:
        return 0.0
    dot = sum(float(a) * float(b) for a, b in zip(u, v))
    return max(-1.0, min(1.0, dot / (nu * nv)))


def cross_alignment(delta_ml, delta_mm, epsilon=1e-8):
    """Per-column cosine between two residuals, in [-1, 1]; a 1D residual is
    one column. A column whose norm falls below epsilon on either side
    reports 0."""
    a = np.asarray(delta_ml, dtype=np.float64)
    b = np.asarray(delta_mm, dtype=np.float64)
    if a.ndim == 1:
        a, b = a[:, None], b[:, None]
    out = []
    for j in range(a.shape[1]):
        small = column_norm(a[:, j]) < epsilon or column_norm(b[:, j]) < epsilon
        out.append(0.0 if small else column_cosine(a[:, j], b[:, j]))
    return np.array(out)


def compose(base, ml, mm, w_ml) -> float:
    """The paper's ``base + w_ml·(ml − base) + w_mm·(mm − base)`` with
    ``w_mm = 1 − w_ml``, evaluated exactly in rationals and rounded once to
    float64: no cancellation, however large the base is beside ml and mm."""
    b, w = Fraction(float(base)), Fraction(w_ml)
    return float(b + w * (Fraction(float(ml)) - b) + (1 - w) * (Fraction(float(mm)) - b))


def merge_2d(base, ml, mm, epsilon=1e-8):
    """Full column pipeline in float64: decompose, deviate, rank, gate,
    average branches, compose. Returns (merged matrix, omega_ml per column)."""
    base = np.asarray(base, dtype=np.float64)
    ml = np.asarray(ml, dtype=np.float64)
    mm = np.asarray(mm, dtype=np.float64)
    d_out, d_in = base.shape

    mags = {}
    dirs = {}
    for tag, W in (("n", base), ("ml", ml), ("mm", mm)):
        mags[tag] = [column_norm(W[:, j]) for j in range(d_in)]
        dirs[tag] = [[W[i, j] / (mags[tag][j] + epsilon) for i in range(d_out)] for j in range(d_in)]

    dev_mag = {}
    dev_dir = {}
    for k in ("ml", "mm"):
        dev_mag[k] = [abs(mags[k][j] - mags["n"][j]) for j in range(d_in)]
        dev_dir[k] = []
        for j in range(d_in):
            if mags[k][j] < epsilon or mags["n"][j] < epsilon:
                cos = 0.0
            else:
                cos = column_cosine([dirs[k][j][i] for i in range(d_out)],
                                    [dirs["n"][j][i] for i in range(d_out)])
            dev_dir[k].append(1.0 - cos)

    s = {}
    for branch, dev in (("mag", dev_mag), ("dir", dev_dir)):
        r_ml = [r / d_in for r in average_ranks(dev["ml"])]
        r_mm = [r / d_in for r in average_ranks(dev["mm"])]
        s[branch] = [softmax_pair(r_ml[j], r_mm[j])[0] for j in range(d_in)]

    omega_ml = [(s["mag"][j] + s["dir"][j]) / 2.0 for j in range(d_in)]

    merged = np.empty_like(base)
    for j in range(d_in):
        for i in range(d_out):
            merged[i, j] = compose(base[i, j], ml[i, j], mm[i, j], omega_ml[j])
    return merged, np.array(omega_ml)


def merge_1d(base, ml, mm):
    """Element-wise pipeline in float64: absolute deviations, ranks, gate."""
    base = np.asarray(base, dtype=np.float64)
    ml = np.asarray(ml, dtype=np.float64)
    mm = np.asarray(mm, dtype=np.float64)
    n = base.size

    dev_ml = [abs(ml[i] - base[i]) for i in range(n)]
    dev_mm = [abs(mm[i] - base[i]) for i in range(n)]
    r_ml = [r / n for r in average_ranks(dev_ml)]
    r_mm = [r / n for r in average_ranks(dev_mm)]
    gamma_ml = [softmax_pair(r_ml[i], r_mm[i])[0] for i in range(n)]

    merged = np.empty_like(base)
    for i in range(n):
        merged[i] = compose(base[i], ml[i], mm[i], gamma_ml[i])
    return merged, np.array(gamma_ml)


def residual_terms(u, v):
    """Both sides of the squared-distance split, fully independently."""
    lhs = sum((float(a) - float(b)) ** 2 for a, b in zip(u, v))
    mu, mv = column_norm(u), column_norm(v)
    cos = column_cosine(u, v)
    rhs = (mu - mv) ** 2 + 2.0 * mu * mv * (1.0 - cos)
    return lhs, rhs


def tiled_column_dots(a, b, tile=64):
    """Per-column float64 dot products of two matrices as the streamed merge
    defines them: each ``tile``-row tile summed by one widening einsum, the
    tiles added in order onto zeros."""
    out = np.zeros(a.shape[1])
    for t in range(0, a.shape[0], tile):
        out += np.einsum("ij,ij->j", a[t:t + tile], b[t:t + tile], dtype=np.float64)
    return out


def column_sums(base, ml, mm):
    """The eight column sums of a float32 triple: |n|^2, |ml|^2, |mm|^2,
    <ml, n>, <mm, n>, then |dml|^2, |dmm|^2 and <dml, dmm> of the float32
    residuals against the base."""
    d_ml, d_mm = ml - base, mm - base
    pairs = ((base, base), (ml, ml), (mm, mm), (ml, base), (mm, base), (d_ml, d_ml), (d_mm, d_mm), (d_ml, d_mm))
    return np.array([tiled_column_dots(a, b) for a, b in pairs])


def top_k_indices(scores, keep) -> list[int]:
    """Flat indices of the ``keep`` largest scores: a stable sort on
    (-score, flat index), so threshold ties go to lower indices."""
    order = sorted(range(len(scores)), key=lambda i: (-float(scores[i]), i))
    return order[:max(keep, 0)]


_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix64(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def unit_uniforms(seed, name, n, start=0) -> list[float]:
    """The counter-based uniforms behind DARE, one Python integer at a time:
    the key mixes (seed + golden ratio) and xors in the first 8 bytes of the
    name's blake2b digest (little-endian); element i mixes key + (start + i
    + 1) * golden ratio and keeps the top 53 bits, all modulo 2**64."""
    name_hash = int.from_bytes(hashlib.blake2b(name.encode("utf-8"), digest_size=8).digest(), "little")
    key = _mix64(((seed & _MASK64) + _GOLDEN) & _MASK64) ^ name_hash
    return [(_mix64((key + (start + i + 1) * _GOLDEN) & _MASK64) >> 11) * 2.0**-53 for i in range(n)]


def dare(delta, p, seed, name):
    """DARE in float32: entry i is dropped where uniform i of (seed, name)
    falls below p, and kept divided by (1 - p) otherwise."""
    flat = np.asarray(delta, dtype=np.float32).ravel()
    scale = np.float32(1.0 - p)
    u = unit_uniforms(seed, name, flat.size)
    return np.array([np.float32(0.0) if u[i] < p else flat[i] / scale for i in range(flat.size)],
                    dtype=np.float32)


def task_arithmetic(base, delta_ml, delta_mm, lam):
    """base + lam * (delta_ml + delta_mm), element by element in float32."""
    base, d_ml, d_mm = (np.asarray(a, dtype=np.float32).ravel() for a in (base, delta_ml, delta_mm))
    return np.array([base[i] + np.float32(lam) * (d_ml[i] + d_mm[i]) for i in range(base.size)],
                    dtype=np.float32)


def ties(base, delta_ml, delta_mm, density, lam):
    """TIES element by element in float32: trim each source to its top
    ceil(density * n) magnitudes, elect the sign of the kept sum (zero
    elects positive), average the kept residuals that agree with it; a
    pair whose sum overflows float32 averages as a/2 + b/2."""
    base = np.asarray(base, dtype=np.float32).ravel()
    deltas = [np.asarray(d, dtype=np.float32).ravel() for d in (delta_ml, delta_mm)]
    keep = math.ceil(density * base.size)
    trimmed = []
    for d in deltas:
        kept = set(top_k_indices([abs(float(x)) for x in d], keep))
        trimmed.append([d[i] if i in kept else np.float32(0.0) for i in range(base.size)])
    out = []
    for i in range(base.size):
        t1, t2 = trimmed[0][i], trimmed[1][i]
        with np.errstate(over="ignore"):
            positive = not (t1 + t2 < 0.0)
            agreeing = [t for t in (t1, t2) if (t > 0.0 if positive else t < 0.0)]
            total = sum(agreeing, np.float32(0.0))
            # an agreeing pair whose float32 sum overflows still has its mean
            # in range: a/2 + b/2 (halving first would round subnormal sums)
            merged = (total / np.float32(max(len(agreeing), 1)) if np.isfinite(total)
                      else t1 / np.float32(2.0) + t2 / np.float32(2.0))
            out.append(base[i] + np.float32(lam) * merged)
    return np.array(out, dtype=np.float32)


def breadcrumbs(delta, beta, gamma):
    """Zero the int(beta * n) smallest magnitudes, then the int(gamma * n)
    largest of the rest; ties at either cut go to lower flat indices."""
    flat = np.asarray(delta).ravel()
    n = flat.size
    dropped = set(top_k_indices([-abs(float(x)) for x in flat], int(beta * n)))
    survivors = [i for i in range(n) if i not in dropped]
    top = top_k_indices([abs(float(flat[i])) for i in survivors], int(gamma * n))
    dropped.update(survivors[j] for j in top)
    return np.array([0.0 if i in dropped else flat[i] for i in range(n)], dtype=flat.dtype)


def f32_to_bf16_bits(values) -> list[int]:
    """bfloat16 bit patterns of float32 values, one element at a time: keep
    the upper 16 bits and round on the lower 16, to nearest with ties to an
    even result. A NaN keeps its sign and upper payload with the quiet bit set."""
    out = []
    for bits in np.asarray(values, dtype="<f4").view("<u4").ravel().tolist():
        upper, lower = bits >> 16, bits & 0xFFFF
        if (bits >> 23) & 0xFF == 0xFF and bits & 0x7FFFFF:
            out.append(upper | 0x0040)
        elif lower > 0x8000 or (lower == 0x8000 and upper & 1):
            out.append(upper + 1)
        else:
            out.append(upper)
    return out
