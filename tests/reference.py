"""Independent straight-line float64 reference for the column-wise merge.

Deliberately written without importing anything from the package under test:
plain loops, brute-force rank counting, and a shifted two-term softmax. This
is the oracle the implementation is checked against, so it must stay naive.
"""

import math

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
        w_ml = omega_ml[j]
        w_mm = 1.0 - w_ml
        for i in range(d_out):
            merged[i, j] = base[i, j] + w_ml * (ml[i, j] - base[i, j]) + w_mm * (mm[i, j] - base[i, j])
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
        merged[i] = base[i] + gamma_ml[i] * (ml[i] - base[i]) + (1.0 - gamma_ml[i]) * (mm[i] - base[i])
    return merged, np.array(gamma_ml)


def residual_terms(u, v):
    """Both sides of the squared-distance split, fully independently."""
    lhs = sum((float(a) - float(b)) ** 2 for a, b in zip(u, v))
    mu, mv = column_norm(u), column_norm(v)
    cos = column_cosine(u, v)
    rhs = (mu - mv) ** 2 + 2.0 * mu * mv * (1.0 - cos)
    return lhs, rhs


def top_k_indices(scores, keep) -> list[int]:
    """Flat indices of the ``keep`` largest scores: a stable sort on
    (-score, flat index), so threshold ties go to lower indices."""
    order = sorted(range(len(scores)), key=lambda i: (-float(scores[i]), i))
    return order[:max(keep, 0)]


def ties(base, delta_ml, delta_mm, density, lam):
    """TIES element by element in float32: trim each source to its top
    ceil(density * n) magnitudes, elect the sign of the kept sum (zero
    elects positive), average the kept residuals that agree with it."""
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
        positive = not (t1 + t2 < 0.0)
        agreeing = [t for t in (t1, t2) if (t > 0.0 if positive else t < 0.0)]
        merged = sum(agreeing, np.float32(0.0)) / np.float32(max(len(agreeing), 1))
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
