"""Walkthrough: the residual-heterogeneity report.

Groups backbone tensors by (layer, module type) and tabulates, per group,
the residual norm of each source, the mean reorientation against the base,
and the cosine between the two residuals. The tables are what a heatmap
plotter consumes; export is CSV/JSON.
"""

import csv
import tempfile
from pathlib import Path

import numpy as np

from dimerge import ModuleKeySchema, diagnose, export_csv, export_json
from dimerge.records import TensorRecord
from dimerge.store import Checkpoint

rng = np.random.default_rng(5)
HIDDEN = 8

shapes = {"model.embed_tokens.weight": (24, HIDDEN)}
for layer in range(3):
    shapes[f"model.layers.{layer}.self_attn.q_proj.weight"] = (HIDDEN, HIDDEN)
    shapes[f"model.layers.{layer}.mlp.up_proj.weight"] = (2 * HIDDEN, HIDDEN)
    shapes[f"model.layers.{layer}.input_layernorm.weight"] = (HIDDEN,)

base_values = {name: rng.normal(size=shape).astype(np.float32) for name, shape in shapes.items()}


def checkpoint(layer_scales):
    """Residual strength varies by layer, imitating functionally uneven updates."""
    records = []
    for name, values in base_values.items():
        layer = next((i for i in range(3) if f".layers.{i}." in name), None)
        scale = 0.02 if layer is None else layer_scales[layer]
        noisy = values + rng.normal(scale=scale, size=values.shape).astype(np.float32)
        records.append(TensorRecord.from_array(name, noisy))
    return Checkpoint.from_records(records)


base = Checkpoint.from_records(
    [TensorRecord.from_array(n, v) for n, v in base_values.items()]
)
ml = checkpoint(layer_scales=[0.01, 0.20, 0.05])   # strongest mid-layer
mm = checkpoint(layer_scales=[0.10, 0.02, 0.02])         # strongest early

rows = diagnose(base, ml, mm, ModuleKeySchema())
print(f"{'layer':>5} {'module':>10} {'norm_ml':>9} {'norm_mm':>9} {'cross':>7}")
for row in rows:
    cross = "-" if row.cross_cos is None else f"{row.cross_cos:7.3f}"
    print(f"{row.layer:>5} {row.module:>10} {row.norm_ml:9.4f} {row.norm_mm:9.4f} {cross}")

# the ml source peaks at layer 1, the mm source at layer 0: the two updates
# are heterogeneous across depth, which is what motivates per-column gating

workdir = Path(tempfile.mkdtemp(prefix="dimerge_demo_"))
export_csv(rows, workdir / "heterogeneity.csv")
export_json(rows, workdir / "heterogeneity.json")
with open(workdir / "heterogeneity.csv") as fh:
    print("\nCSV header:", next(csv.reader(fh)))
print("tables written to", workdir)
