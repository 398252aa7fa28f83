"""The bench's tracer against the code as it stands: ``perfbench/traced.py``
wraps module-level names where their callers look them up, so a refactor
that renames or inlines one silently blinds a per-layer metric. This test
pins which of its targets are absent today and that the baselines' span
still counts the parameters it merged. A change that fixes the wrap table
updates the expected list here on purpose."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from dimerge.records import TensorRecord
from dimerge.store import Checkpoint, save_checkpoint

ROOT = Path(__file__).resolve().parent.parent

STALE_TARGETS = [
    "dimerge.cli.save_checkpoint",
    "dimerge.store.write_tensor_file",
    "dimerge.merge.decompose",
    "dimerge.merge.magnitude_deviation",
    "dimerge.merge.direction_deviation",
    "dimerge.geometry.decompose",
    "dimerge.geometry.direction_deviation",
    "dimerge.geometry.cross_alignment",
    "dimerge.diagnostics.tensor_stats",
    "dimerge.merge.f32_to_bf16_bits",
]


def test_traced_ties_merge_reads_the_baselines_span(tmp_path):
    rng = np.random.default_rng(5)
    name = "model.layers.0.mlp.down_proj.weight"
    base = rng.normal(size=(8, 4)).astype(np.float32)
    paths = {}
    for role in ("base", "ml", "anchor"):
        values = base if role == "base" else base + rng.normal(scale=0.1, size=base.shape).astype(np.float32)
        paths[role] = tmp_path / f"{role}.safetensors"
        save_checkpoint(Checkpoint.from_records([TensorRecord.from_array(name, values)]), paths[role])
    config = {"base_path": str(paths["base"]), "multilingual_path": str(paths["ml"]),
              "anchor_path": str(paths["anchor"]), "output_path": str(tmp_path / "merged.safetensors"),
              "merge": {"method": "ties"}}
    (tmp_path / "run.json").write_text(json.dumps(config))
    trace = tmp_path / "trace.json"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    subprocess.run([sys.executable, str(ROOT / "perfbench" / "traced.py"), str(trace), "--", "merge",
                    "--config", str(tmp_path / "run.json"), "--threads", "1"],
                   check=True, env=env, capture_output=True, timeout=120)
    result = json.loads(trace.read_text())
    assert Path(result["dimerge"]).resolve().is_relative_to(ROOT / "src")
    assert sorted(result["absent"]) == sorted(STALE_TARGETS)
    counters = [span[7] for span in result["spans"] if span[1] == "baselines.merge_values"]
    assert counters == [{"params": base.size}]
