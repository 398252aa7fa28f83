"""Walkthrough: merging a full (toy) checkpoint triple.

Three checkpoints share a two-layer backbone: a base model, a "multilingual"
fine-tune of it, and an "anchor" that additionally carries vision/projector
tensors. The merge rewrites only the shared backbone inside the anchor;
everything else is copied bit-for-bit.
"""

import json
import tempfile
from pathlib import Path

import numpy as np

from dimerge import MergeConfig, ScopeFilter, load_checkpoint, merge_checkpoint
from dimerge.records import TensorRecord
from dimerge.store import Checkpoint

rng = np.random.default_rng(7)

HIDDEN, VOCAB = 8, 32
shapes = {"model.embed_tokens.weight": (VOCAB, HIDDEN), "model.norm.weight": (HIDDEN,),
          "lm_head.weight": (VOCAB, HIDDEN)}
for layer in (0, 1):
    shapes[f"model.layers.{layer}.self_attn.q_proj.weight"] = (HIDDEN, HIDDEN)
    shapes[f"model.layers.{layer}.mlp.up_proj.weight"] = (3 * HIDDEN, HIDDEN)
    shapes[f"model.layers.{layer}.input_layernorm.weight"] = (HIDDEN,)


def checkpoint(residual_scale=0.0, extra=None):
    records = []
    local = np.random.default_rng(7)  # same base values every time
    for name, shape in shapes.items():
        values = local.normal(size=shape).astype(np.float32)
        values += rng.normal(scale=residual_scale, size=shape).astype(np.float32)
        records.append(TensorRecord.from_array(name, values))
    for name, shape in (extra or {}).items():
        records.append(TensorRecord.from_array(name, rng.normal(size=shape).astype(np.float32)))
    return Checkpoint.from_records(records)


base = checkpoint()
ml = checkpoint(residual_scale=0.05)
anchor = checkpoint(residual_scale=0.05,
                    extra={"vision_tower.patch_embed.weight": (4, 4)})

# the merge writes its output straight to disk, one tensor at a time
workdir = Path(tempfile.mkdtemp(prefix="dimerge_demo_"))
report = merge_checkpoint(base, ml, anchor, MergeConfig(), workdir / "merged")
merged = load_checkpoint(workdir / "merged")
print(f"merged {report.summary.merged_count}, passed through {report.summary.pass_through_count}, "
      f"mean omega_ml {report.summary.mean_omega_ml:.4f}")

# the vision tensor is untouched
print("vision tensor bitwise equal anchor:",
      merged["vision_tower.patch_embed.weight"].raw == anchor["vision_tower.patch_embed.weight"].raw)

# per-tensor weight statistics live in the report
entry = next(t for t in report.tensors if t.name == "model.layers.0.mlp.up_proj.weight")
print("up_proj omega_ml range:", round(entry.omega_ml_min, 4), "..", round(entry.omega_ml_max, 4))

# --- scope control -----------------------------------------------------------
for scope in (ScopeFilter.from_dict("embed_only"),
              ScopeFilter.from_dict({"preset": "layers", "layer_range": [0, 0]})):
    scoped_report = merge_checkpoint(base, ml, anchor, MergeConfig(scope=scope), workdir / "scoped")
    touched = [t.name for t in scoped_report.tensors if t.action == "merged"]
    print(f"\nscope {scope.preset!r} merged only:")
    print(json.dumps(touched, indent=2))
