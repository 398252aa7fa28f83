"""Shared fixtures: a tiny synthetic 2-layer transformer triple, and the
one hypothesis profile every property test runs under: derandomized, with
no deadline and no example database, so a run is the same on every box."""

import errno
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from dimerge.diagnostics import diagnose
from dimerge.merge import merge_checkpoint
from dimerge.records import DType, TensorRecord, decode_f32
from dimerge.store import Checkpoint, load_checkpoint

settings.register_profile("dimerge", deadline=None, database=None, derandomize=True)
settings.load_profile("dimerge")

HIDDEN = 4
INTERMEDIATE = 6
VOCAB = 11
LAYERS = 2


def backbone_shapes() -> dict[str, tuple[int, ...]]:
    shapes: dict[str, tuple[int, ...]] = {
        "model.embed_tokens.weight": (VOCAB, HIDDEN),
        "model.norm.weight": (HIDDEN,),
        "lm_head.weight": (VOCAB, HIDDEN),
    }
    for layer in range(LAYERS):
        prefix = f"model.layers.{layer}."
        for proj in ("q_proj", "k_proj", "v_proj", "o_proj"):
            shapes[f"{prefix}self_attn.{proj}.weight"] = (HIDDEN, HIDDEN)
        shapes[f"{prefix}mlp.gate_proj.weight"] = (INTERMEDIATE, HIDDEN)
        shapes[f"{prefix}mlp.up_proj.weight"] = (INTERMEDIATE, HIDDEN)
        shapes[f"{prefix}mlp.down_proj.weight"] = (HIDDEN, INTERMEDIATE)
        shapes[f"{prefix}input_layernorm.weight"] = (HIDDEN,)
        shapes[f"{prefix}post_attention_layernorm.weight"] = (HIDDEN,)
    return shapes


ANCHOR_EXTRA_SHAPES = {
    "vision_tower.blocks.0.attn.weight": (3, 3),
    "multi_modal_projector.linear_1.weight": (HIDDEN, 3),
    "multi_modal_projector.linear_1.bias": (HIDDEN,),
}


def _records(shapes: dict, rng: np.random.Generator, dtype=DType.F32, scale=1.0):
    records = []
    for name, shape in shapes.items():
        values = rng.normal(scale=scale, size=shape).astype(np.float32)
        records.append(TensorRecord.from_array(name, values, dtype=dtype))
    return records


def make_triple(seed: int = 0, dtype: DType = DType.F32, residual_scale: float = 0.05):
    """Base, multilingual, and anchor checkpoints sharing a tiny backbone.

    Source tensors are base plus small random residuals; the anchor carries
    extra vision/projector tensors that must pass through any merge.
    """
    rng = np.random.default_rng(seed)
    shapes = backbone_shapes()
    base_records = _records(shapes, rng, dtype=dtype)
    base = Checkpoint.from_records(base_records)

    def perturb(extra: dict | None = None) -> Checkpoint:
        records = []
        for name, rec in base.tensors.items():
            res = rng.normal(scale=residual_scale, size=rec.shape).astype(np.float32)
            records.append(TensorRecord.from_array(name, rec.to_f32() + res, dtype=dtype))
        if extra:
            records.extend(_records(extra, rng, dtype=dtype))
        return Checkpoint.from_records(records)

    ml = perturb()
    anchor = perturb(extra=ANCHOR_EXTRA_SHAPES)
    return base, ml, anchor


@pytest.fixture
def triple_f32():
    return make_triple(seed=7)


@pytest.fixture
def rng():
    return np.random.default_rng(42)


def merge_and_load(base, ml, anchor, cfg, threads=None):
    """Merge into a temporary directory and read the output back; returns
    the merged checkpoint and the report. The loaded records map files that
    outlive their directory entries."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "merged"
        report = merge_checkpoint(base, ml, anchor, cfg, out, threads=threads)
        return load_checkpoint(out), report


def aligned_f32(triple):
    """The aligned region of a triple's base, ml and mm, each decoded whole
    to float32."""
    return tuple(decode_f32(triple.aligned_bits(rec), rec.dtype) for rec in (triple.base, triple.ml, triple.mm))


def one_tensor_row(base, ml, mm, **kwargs):
    """The single row ``diagnose`` reports for three float32 checkpoints of
    one tensor named "t" (no layer index: layer -1, module "other")."""
    ckpts = [Checkpoint.from_records([TensorRecord.from_array("t", np.asarray(a, dtype=np.float32))])
             for a in (base, ml, mm)]
    [row] = diagnose(*ckpts, **kwargs)
    return row


def fail_nth_replace(monkeypatch, n: int) -> list:
    """Patch ``os.replace`` so that its ``n``-th call from now on raises
    OSError (``n=0``: none does); returns the list of calls made, so a clean
    run counts the renames a failing run can stop at."""
    calls = []
    real = os.replace

    def replace(src, dst, **kwargs):
        calls.append((src, dst))
        if len(calls) == n:
            raise OSError(errno.EIO, "injected rename failure", str(dst))
        return real(src, dst, **kwargs)

    monkeypatch.setattr(os, "replace", replace)
    return calls


def change_file(path, how: str) -> None:
    """Change a tensor file as another process might while a run maps it:
    ``rewritten_in_place`` flips the low bit of its first payload byte
    through another handle (same inode and size), ``replaced_by_rename``
    renames a copy over it (a new inode), ``removed`` unlinks it."""
    path = Path(path)
    if how == "rewritten_in_place":
        with open(path, "r+b") as fh:
            offset = 8 + int.from_bytes(fh.read(8), "little")
            fh.seek(offset)
            byte = fh.read(1)[0]
            fh.seek(offset)
            fh.write(bytes([byte ^ 1]))
    elif how == "replaced_by_rename":
        copy = path.with_name(path.name + ".new")
        copy.write_bytes(path.read_bytes())
        os.replace(copy, path)
    else:
        assert how == "removed"
        path.unlink()
