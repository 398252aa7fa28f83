"""Workload definitions and the deterministic synthetic checkpoint generator.

Every workload is a (base, multilingual, anchor) triple built from
``(workload inputs, seed)`` alone and written tensor by tensor, so generation
holds a few tensors in memory at a time. Generated triples are cached under a
hash of their specification, the seed and this generator's source, and are
regenerated when the manifest does not match.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import zlib
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from tensorfile import StreamWriter, encode

ANCHOR_PREFIX = "language_model."
ROLES = ("base", "multilingual", "anchor")
CACHE_KEEP = 3
MIB = 1024 * 1024

# Residual structure per source and module kind: (column rescale spread,
# column rotation angle in radians). The multilingual fine-tune mostly
# rescales MLP and embedding columns; the multimodal anchor mostly rotates
# attention columns. Both scale by a per-column ownership profile c in [0, 1)
# (ml grows with c, the anchor with 1 - c), so the two sources dominate
# different columns and the per-column merge weights spread away from 0.5.
RESIDUAL = {
    "ml": {"attn": (0.01, 0.01), "mlp": (0.10, 0.02), "embed": (0.10, 0.02), "norm": (0.05, 0.0)},
    "mm": {"attn": (0.01, 0.10), "mlp": (0.01, 0.03), "embed": (0.01, 0.01), "norm": (0.01, 0.0)},
}
_STREAM = {"base": 0, "ml": 1, "mm": 2, "owner": 3, "anchor": 4}


@dataclass(frozen=True)
class InputSpec:
    """Shape of a synthetic LLaMA-style triple and the anchor's extras."""

    layers: int
    hidden: int
    inter: int
    vocab: int
    dtype: str = "BF16"
    vision_hidden: int = 512
    vision_blocks: int = 2
    vocab_extra: int = 0             # extra anchor rows in embed_tokens / lm_head
    shard_bytes: int | None = None   # None: one file per checkpoint

    def backbone(self) -> list[tuple[str, tuple[int, ...], str]]:
        """(name, shape, kind) of every shared backbone tensor."""
        h, i, v = self.hidden, self.inter, self.vocab
        out = [("model.embed_tokens.weight", (v, h), "embed")]
        for layer in range(self.layers):
            p = f"model.layers.{layer}."
            out += [(f"{p}self_attn.{proj}.weight", (h, h), "attn") for proj in ("q_proj", "k_proj", "v_proj", "o_proj")]
            out += [
                (f"{p}mlp.gate_proj.weight", (i, h), "mlp"),
                (f"{p}mlp.up_proj.weight", (i, h), "mlp"),
                (f"{p}mlp.down_proj.weight", (h, i), "mlp"),
                (f"{p}input_layernorm.weight", (h,), "norm"),
                (f"{p}post_attention_layernorm.weight", (h,), "norm"),
            ]
        out += [("model.norm.weight", (h,), "norm"), ("lm_head.weight", (v, h), "embed")]
        return out

    def anchor_only(self) -> list[tuple[str, tuple[int, ...]]]:
        """Vision tower and projector: anchor tensors that must pass through."""
        hv, h = self.vision_hidden, self.hidden
        out = []
        for k in range(self.vision_blocks):
            p = f"vision_tower.vision_model.encoder.layers.{k}."
            out += [
                (f"{p}self_attn.qkv.weight", (3 * hv, hv)),
                (f"{p}mlp.fc1.weight", (4 * hv, hv)),
                (f"{p}mlp.fc2.weight", (hv, 4 * hv)),
                (f"{p}layer_norm1.weight", (hv,)),
            ]
        out += [
            ("multi_modal_projector.linear_1.weight", (h, hv)),
            ("multi_modal_projector.linear_1.bias", (h,)),
            ("multi_modal_projector.linear_2.weight", (h, h)),
        ]
        return out

    def anchor_shape(self, name: str, shape: tuple[int, ...]) -> tuple[int, ...]:
        if self.vocab_extra and name in ("model.embed_tokens.weight", "lm_head.weight"):
            return (shape[0] + self.vocab_extra,) + shape[1:]
        return shape

    def params(self) -> int:
        return sum(int(np.prod(s)) for _, s, _ in self.backbone())


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    command: str                        # "merge" or "diagnose"
    inputs: InputSpec
    round_s: float                      # nominal length of one measurement round on a 2-core box
    merge: dict = field(default_factory=dict)
    shard_limit: int | None = None      # output shard size for merge
    oracle: tuple[str, ...] = ()        # merged tensors recomputed in float64
    passthrough: tuple[str, ...] = ()   # merged tensors whose extra anchor rows must stay bit-identical

    @property
    def multithreaded(self) -> bool:
        return self.command == "merge"


SMALL = InputSpec(layers=4, hidden=1024, inter=2816, vocab=8192)
# One layer and a 4096 vocab keep a TIES process near the dim3 one in length.
# Sharded F16 inputs, a vision tower and 64 extra anchor vocab rows put the
# sharded store, the anchor-overlap crop and the non-bf16 encode on this path.
TIES = InputSpec(
    layers=1, hidden=1024, inter=2816, vocab=4096, dtype="F16",
    vision_hidden=1024, vision_blocks=2, vocab_extra=64, shard_bytes=64 * MIB,
)

_ORACLE = (
    "model.layers.0.self_attn.q_proj.weight",
    "model.layers.0.mlp.down_proj.weight",
    "model.layers.0.input_layernorm.weight",
    "model.norm.weight",
)
_EXTENDED_VOCAB = ("model.embed_tokens.weight", "lm_head.weight")

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "dim3-small",
            "headline dim3 merge of a bf16 LLaVA-style triple; the column-weight kernel (geometry, salience, compose) dominates",
            "merge", SMALL, 11.0, {"method": "dim3"}, oracle=_ORACLE,
        ),
        Workload(
            "ties-small",
            "TIES on a sharded F16 triple with extended vocab: baselines top-k dominates, geometry/salience idle",
            "merge", TIES, 10.5, {"method": "ties", "shape_policy": "anchor-overlap"},
            shard_limit=64 * MIB, oracle=_ORACLE + ("lm_head.weight",), passthrough=_EXTENDED_VOCAB,
        ),
        Workload(
            "diagnose-small",
            "diagnose on the dim3-small inputs: geometry without compose, encode or checkpoint write",
            "diagnose", SMALL, 6.5,
        ),
    )
}


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------


def _rng(seed: int, name: str, stream: str) -> np.random.Generator:
    """An independent stream per (seed, tensor, role), so tensors can be
    generated one at a time in any order."""
    key = (zlib.crc32(name.encode()), _STREAM[stream])
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed % 2**64, spawn_key=key)))


def _base_tensor(seed: int, name: str, shape, kind: str) -> np.ndarray:
    rng = _rng(seed, name, "base")
    if kind == "norm":
        return (1.0 + 0.05 * rng.standard_normal(shape, dtype=np.float32)).astype(np.float32)
    return rng.standard_normal(shape, dtype=np.float32) * np.float32(0.02)


def _source_tensor(seed: int, name: str, base: np.ndarray, kind: str, source: str, owner: np.ndarray) -> np.ndarray:
    """Base plus a structured residual: per-column rescale and rotation."""
    spread, angle = RESIDUAL[source][kind]
    # a floor keeps every column's residual above the storage rounding step
    amp = 0.1 + 0.9 * (owner if source == "ml" else 1.0 - owner)
    rng = _rng(seed, name, source)
    if base.ndim == 1:
        z = rng.standard_normal(base.shape).astype(np.float32)
        return base * (1.0 + np.float32(spread) * amp * z)
    n_cols = base.shape[1]
    scale = (1.0 + spread * amp * rng.standard_normal(n_cols)).astype(np.float32)
    theta = angle * amp * rng.uniform(0.5, 1.5, n_cols)
    noise = rng.random(base.shape, dtype=np.float32) - np.float32(0.5)
    w_sq = np.einsum("ij,ij->j", base, base, dtype=np.float64)
    proj = np.einsum("ij,ij->j", noise, base, dtype=np.float64) / w_sq
    noise -= proj.astype(np.float32) * base
    n_sq = np.einsum("ij,ij->j", noise, noise, dtype=np.float64)
    # rotate each column by theta towards its orthogonal noise direction
    sin_part = (np.sin(theta) * np.sqrt(w_sq / n_sq)).astype(np.float32)
    out = noise
    out *= sin_part
    out += np.cos(theta).astype(np.float32) * base
    out *= scale
    return out


def _anchor_extra(seed: int, name: str, shape) -> np.ndarray:
    rng = _rng(seed, name, "anchor")
    if len(shape) == 1:
        return (1.0 + 0.05 * rng.standard_normal(shape, dtype=np.float32)).astype(np.float32)
    return rng.standard_normal(shape, dtype=np.float32) * np.float32(0.02)


def generate(spec: InputSpec, seed: int, out_dir: Path) -> dict[str, list[str]]:
    """Write the triple under ``out_dir/{base,multilingual,anchor}``.

    Returns the names of the files written, per role.
    """
    backbone = spec.backbone()
    dt = spec.dtype
    writers = {
        "base": StreamWriter(out_dir / "base", [(n, dt, s) for n, s, _ in backbone], spec.shard_bytes),
        "multilingual": StreamWriter(out_dir / "multilingual", [(n, dt, s) for n, s, _ in backbone], spec.shard_bytes),
        "anchor": StreamWriter(
            out_dir / "anchor",
            [(ANCHOR_PREFIX + n, dt, spec.anchor_shape(n, s)) for n, s, _ in backbone]
            + [(n, dt, s) for n, s in spec.anchor_only()],
            spec.shard_bytes,
        ),
    }
    for name, shape, kind in backbone:
        base = _base_tensor(seed, name, shape, kind)
        owner = _rng(seed, name, "owner").random(shape[-1] if len(shape) == 2 else shape[0])
        writers["base"].write(name, encode(base, dt))
        ml = _source_tensor(seed, name, base, kind, "ml", owner)
        writers["multilingual"].write(name, encode(ml, dt))
        del ml
        mm = _source_tensor(seed, name, base, kind, "mm", owner)
        a_shape = spec.anchor_shape(name, shape)
        if a_shape != shape:
            extra = _anchor_extra(seed, name, (a_shape[0] - shape[0],) + shape[1:])
            mm = np.concatenate([mm, extra])
        writers["anchor"].write(ANCHOR_PREFIX + name, encode(mm, dt))
    for name, shape in spec.anchor_only():
        writers["anchor"].write(name, encode(_anchor_extra(seed, name, shape), dt))
    return {role: w.close() for role, w in writers.items()}


# ---------------------------------------------------------------------------
# cache
# ---------------------------------------------------------------------------


def _generator_source_hash() -> str:
    here = Path(__file__).resolve().parent
    h = hashlib.sha256()
    for fname in ("workloads.py", "tensorfile.py"):
        h.update((here / fname).read_bytes())
    return h.hexdigest()


def cache_key(spec: InputSpec, seed: int) -> str:
    blob = json.dumps({"spec": asdict(spec), "seed": seed, "generator": _generator_source_hash()}, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _manifest_matches(directory: Path, key: str) -> dict | None:
    try:
        manifest = json.loads((directory / "manifest.json").read_text())
    except (OSError, ValueError):
        return None
    if manifest.get("key") != key:
        return None
    for role, sizes in manifest.get("sizes", {}).items():
        for fname, size in sizes.items():
            p = directory / role / fname
            if not p.is_file() or p.stat().st_size != size:
                return None
    return manifest


def ensure_inputs(spec: InputSpec, seed: int, cache_dir: Path) -> tuple[Path, dict, bool]:
    """Return (triple directory, manifest, generated?) for ``(spec, seed)``."""
    key = cache_key(spec, seed)
    directory = cache_dir / key
    manifest = _manifest_matches(directory, key)
    generated = manifest is None
    if generated:
        shutil.rmtree(directory, ignore_errors=True)
        tmp = cache_dir / f"{key}.tmp{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        files = generate(spec, seed, tmp)
        sizes = {role: {f: (tmp / role / f).stat().st_size for f in names} for role, names in files.items()}
        manifest = {"key": key, "spec": asdict(spec), "seed": seed, "sizes": sizes}
        (tmp / "manifest.json").write_text(json.dumps(manifest, indent=1, sort_keys=True))
        os.replace(tmp, directory)
    os.utime(directory / "manifest.json")
    _evict(cache_dir, keep=directory)
    return directory, manifest, generated


def _evict(cache_dir: Path, keep: Path) -> None:
    """Keep ``keep`` and the most recently used other triples, CACHE_KEEP in all."""
    entries = [p for p in cache_dir.iterdir() if p.is_dir() and p != keep]
    stale = [p for p in entries if ".tmp" in p.name or not (p / "manifest.json").is_file()]
    live = sorted((p for p in entries if p not in stale), key=lambda p: (p / "manifest.json").stat().st_mtime, reverse=True)
    for p in stale + live[CACHE_KEEP - 1:]:
        shutil.rmtree(p, ignore_errors=True)


def input_bytes(manifest: dict) -> int:
    return sum(sum(sizes.values()) for sizes in manifest["sizes"].values())

