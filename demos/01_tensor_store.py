"""Walkthrough: the sharded tensor store.

Builds a toy checkpoint in memory, writes it as a single file and as shards
with an index manifest, and shows that both round-trip bit-exactly. Also
demonstrates key remapping, which lines up an anchor's nested backbone keys
with the base model's naming.
"""

import tempfile
from pathlib import Path

import numpy as np

from dimerge import Checkpoint, DType, TensorRecord, load_checkpoint, remap_keys, save_checkpoint

rng = np.random.default_rng(0)
workdir = Path(tempfile.mkdtemp(prefix="dimerge_demo_"))

# --- build a small checkpoint with mixed dtypes ---------------------------
records = [
    TensorRecord.from_array("model.embed_tokens.weight", rng.normal(size=(16, 8)).astype(np.float32)),
    TensorRecord.from_array("model.layers.0.mlp.up_proj.weight",
                            rng.normal(size=(12, 8)).astype(np.float32), dtype=DType.BF16),
    TensorRecord.from_array("model.norm.weight", np.ones(8, dtype=np.float32), dtype=DType.F16),
]
ckpt = Checkpoint.from_records(records)
print(f"built checkpoint: {len(ckpt)} tensors, {ckpt.total_parameters} parameters")

# --- single file ----------------------------------------------------------
single = workdir / "single"
save_checkpoint(ckpt, single)
reloaded = load_checkpoint(single)
print("single-file round trip bit-exact:",
      all(reloaded[n].raw == ckpt[n].raw for n in ckpt.names()))

# --- sharded: a tiny shard limit forces one tensor per shard ---------------
sharded = workdir / "sharded"
files = save_checkpoint(ckpt, sharded, shard_limit=512)
print("sharded into:", [f.name for f in files])
reloaded = load_checkpoint(sharded)
print("sharded round trip bit-exact:",
      all(reloaded[n].raw == ckpt[n].raw for n in ckpt.names()))

# bf16 survives untouched: the payload is stored as raw bits, never widened
print("bf16 payload preserved:",
      reloaded["model.layers.0.mlp.up_proj.weight"].dtype is DType.BF16)

# --- remapping an anchor's nested keys -------------------------------------
nested = Checkpoint.from_records(
    [rec.renamed("language_model." + rec.name) for rec in ckpt.tensors.values()]
)
flat = remap_keys(nested, [("language_model.", "")])
print("remapped keys:", flat.names())
