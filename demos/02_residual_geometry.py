"""Walkthrough: column geometry of weight residuals.

Each weight-matrix column splits into a norm (how big) and a direction
(which way). Two fine-tunes of the same base can then be compared column by
column: how much did each one rescale a column, and how far did it rotate
it? Both questions are answered from per-column norms and dot products
alone, since the cosine between two directions ignores scale. The squared
distance between a fine-tuned column and its base column splits exactly
into those two effects, which is worth seeing once with numbers.
"""

import numpy as np

from dimerge import Checkpoint, TensorRecord, diagnose

rng = np.random.default_rng(1)

base = rng.normal(size=(64, 6)).astype(np.float32)
ml = base + rng.normal(scale=0.3, size=base.shape).astype(np.float32)   # "multilingual" update
mm = base + rng.normal(scale=0.1, size=base.shape).astype(np.float32)   # "multimodal" update

# --- column norms --------------------------------------------------------------
for label, W in (("base", base), ("ml", ml), ("mm", mm)):
    print(f"column norms of {label:>4}:", np.round(np.linalg.norm(W, axis=0), 3))

# --- per-column deviations from norms and dots ---------------------------------
b64 = base.astype(np.float64)
norm_n = np.linalg.norm(b64, axis=0)
print()
for label, W in (("ml", ml), ("mm", mm)):
    w64 = W.astype(np.float64)
    norm_k = np.linalg.norm(w64, axis=0)
    cos = np.sum(w64 * b64, axis=0) / (norm_k * norm_n)
    print(f"norm gap   {label} vs base:", np.round(np.abs(norm_k - norm_n), 4))
    print(f"reorient   {label} vs base:", np.round(1.0 - cos, 4))

# the stronger update (ml, scale 0.3) rotates columns further than mm

# --- how aligned are the two updates with each other? -----------------------
d_ml, d_mm = ml - base, mm - base
cos = np.sum(d_ml * d_mm, axis=0) / (np.linalg.norm(d_ml, axis=0) * np.linalg.norm(d_mm, axis=0))
print("\ncross-residual cosine per column:", np.round(cos, 4))
print("(independent random updates hover near zero)")

# diagnose reports the same cosines, averaged over columns, per (layer, module)
name = "model.layers.0.self_attn.q_proj.weight"
[row] = diagnose(*(Checkpoint.from_records([TensorRecord.from_array(name, W)]) for W in (base, ml, mm)))
print(f"diagnose row ({row.layer}, {row.module}): cross_cos = {row.cross_cos:.4f}, "
      f"column mean above = {cos.mean():.4f}")

# --- the exact radial/angular split ------------------------------------------
j = 0
u, v = ml[:, j].astype(np.float64), b64[:, j]
m_u, m_v = np.linalg.norm(u), np.linalg.norm(v)
lhs = np.sum((u - v) ** 2)
rhs = (m_u - m_v) ** 2 + 2.0 * m_u * m_v * (1.0 - u @ v / (m_u * m_v))
print(f"\ncolumn {j}: direct squared distance   = {lhs:.12f}")
print(f"column {j}: norm-gap + rotation terms  = {rhs:.12f}")
print(f"relative gap: {abs(lhs - rhs) / lhs:.2e}")
