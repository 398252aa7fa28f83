"""Pinned output bytes: the sha256 of the file each merge method writes for
one small deterministic triple, in each storage dtype and output dtype,
plus one anchor-overlap case and one scope case.

Other tests compare outputs between runs (worker counts, block sizes), so a
change that moves the bytes the same way everywhere passes them; these pins
do not. A change that alters the bytes on purpose updates the pins and says
why, and how many elements changed."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dimerge.merge import MERGE_METHODS, OUTPUT_DTYPES, MergeConfig, merge_checkpoint
from dimerge.records import DType, TensorRecord
from dimerge.scope import ScopeFilter
from dimerge.store import Checkpoint

SHAPES = {
    "model.embed_tokens.weight": (70, 24),
    "model.layers.0.self_attn.q_proj.weight": (24, 24),
    "model.layers.0.mlp.down_proj.weight": (24, 40),
    "model.layers.0.input_layernorm.weight": (24,),
    "model.layers.1.mlp.up_proj.weight": (40, 24),
    "model.layers.1.post_attention_layernorm.weight": (24,),
    "lm_head.weight": (70, 24),
}
ANCHOR_ONLY = {"multi_modal_projector.linear_1.weight": (24, 8)}
# the anchor's extended vocabulary under the anchor-overlap policy
WIDER = {"model.embed_tokens.weight": (83, 24), "lm_head.weight": (83, 24)}

PINS = {
    "dim3-F32-match_anchor": "d7859c6db59ad0c30deb7684dab3cd5f11723c32c7c781930a548597ba6de162",
    "dim3-F32-f32": "d7859c6db59ad0c30deb7684dab3cd5f11723c32c7c781930a548597ba6de162",
    "dim3-F16-match_anchor": "8f63586d0244a2543d75a034f15eb082d9456b5368f96db4a615f4a5f46f9d1e",
    "dim3-F16-f32": "2f17ee0a3e48e25998e945e0687604161e629902fc6fe5127fdc0491fa2c0619",
    "dim3-BF16-match_anchor": "a9bd4369bdea1592ca7998efd0853b4478e9e400e274837c950c2ffb0cc0bdf9",
    "dim3-BF16-f32": "7e8d9130061a2f76c844941688c5c10a1745e26797f19637de46bed367e9f658",
    "task_arithmetic-F32-match_anchor": "eac38e3a271713cefb2e57ced8d7bf5ce86fb1add1fb33944cd76d465622eef0",
    "task_arithmetic-F32-f32": "eac38e3a271713cefb2e57ced8d7bf5ce86fb1add1fb33944cd76d465622eef0",
    "task_arithmetic-F16-match_anchor": "d4d132f3a30ea15097f933c1e305e8ee7a8c2acaf8f6f30d08a5da53e239e890",
    "task_arithmetic-F16-f32": "b12053c1ba9f6983c8b3a34a546f59390ae904ebe7ff56c7f5175600758f337c",
    "task_arithmetic-BF16-match_anchor": "635d88b79efc092a709305b78ca2b09ef59f987bc65061dfc991a3a654769068",
    "task_arithmetic-BF16-f32": "b622f069e0f772d64299b0b274af3dca2f4b8a5e1b49f6ef7b8c302e865e8582",
    "dare-F32-match_anchor": "bc969a9754daf822391876440d223bea93b6c03578e1e8af7451264c1a59653e",
    "dare-F32-f32": "bc969a9754daf822391876440d223bea93b6c03578e1e8af7451264c1a59653e",
    "dare-F16-match_anchor": "37bf897d64ed34573eb952adf7bd5a4cc0275407e6297c967b568250b0487314",
    "dare-F16-f32": "26b9ac33bfee549daf67c57892739233043e3fe294eb6c0147fee7a46b41f5fb",
    "dare-BF16-match_anchor": "18e46471949be826f1eae3f0a0955afd5a1dc9bb424d2b2b14698d926acbbb38",
    "dare-BF16-f32": "81199a1034c63c4ebc620b85cf843c97807b1824b8071cb08c877e807c71b5bd",
    "ties-F32-match_anchor": "70107d1a06382117475103b5bfa644b8b4317323f672d13fbf58017abe4f45ae",
    "ties-F32-f32": "70107d1a06382117475103b5bfa644b8b4317323f672d13fbf58017abe4f45ae",
    "ties-F16-match_anchor": "e1a4b21c753d5fb6e166a5f1746617d914360c31ce771a033462386b37dfdb05",
    "ties-F16-f32": "2b5ec324227e70fea8861eab4ca2e51cac042724e0d6e52f00b9d8298b793b06",
    "ties-BF16-match_anchor": "ad56e6789c3cd087e6441ff7a1e1cba45524db2c16f7f0ad1578f68db450a8f6",
    "ties-BF16-f32": "65783f9c0d10278112a38a6c0ee2daa664aede498963521a1e721f2ef7f16a18",
    "breadcrumbs-F32-match_anchor": "47d0599017541fb6c5113f869937d6f2cb364890260e0f646ae9a29e12387137",
    "breadcrumbs-F32-f32": "47d0599017541fb6c5113f869937d6f2cb364890260e0f646ae9a29e12387137",
    "breadcrumbs-F16-match_anchor": "b2d7ef18e151c39f1df69ec789bae3ccc2c878b0d9d0d010f9c8b18ef387ded0",
    "breadcrumbs-F16-f32": "74a799467c4b8ff48c9e0f4246fab6cb4ced6b0d0456ce65d89cd5374adbd5cc",
    "breadcrumbs-BF16-match_anchor": "39ae7808e4b4cf4704e3a6ab33c23d971fead4fdcfec43f6ee1ca66137d0d071",
    "breadcrumbs-BF16-f32": "54af92fdee365d0f62da7504adc9bde2ff907c39fb2387a15af9b3562aed93b4",
    "dim3-BF16-anchor-overlap": "c3d0f3e8a8517c4aa8e7976aee10462a9506914faf89dc35cf6ecdcc96f4157a",
    "ties-BF16-layers-1": "99b9ed046f4438d0b989974a33833e51665f58a8a66211934414dab239dfa54c",
}


def triple(dtype: DType, anchor_shapes: dict):
    """(base, ml, anchor) checkpoints: the sources are the base plus small
    residuals; the anchor also holds a projector and, where given, larger
    tensors whose leading block is the sources' shape."""
    rng = np.random.default_rng(2024)
    base = {name: rng.normal(size=shape).astype(np.float32) for name, shape in SHAPES.items()}
    ml = {name: v + rng.normal(scale=0.05, size=v.shape).astype(np.float32) for name, v in base.items()}
    anchor = {}
    for name, v in base.items():
        values = rng.normal(size=anchor_shapes.get(name, v.shape)).astype(np.float32)
        values[tuple(slice(0, d) for d in v.shape)] = v + rng.normal(scale=0.05, size=v.shape)
        anchor[name] = values
    anchor.update({name: rng.normal(size=shape).astype(np.float32) for name, shape in ANCHOR_ONLY.items()})
    return [Checkpoint.from_records([TensorRecord.from_array(n, v, dtype) for n, v in arrays.items()])
            for arrays in (base, ml, anchor)]


def output_sha256(tmp_path, cfg: MergeConfig, dtype: DType, anchor_shapes: dict) -> str:
    out = tmp_path / "merged.safetensors"
    merge_checkpoint(*triple(dtype, anchor_shapes), cfg, out, threads=1)
    return hashlib.sha256(out.read_bytes()).hexdigest()


CASES = {f"{method}-{dtype.value}-{output_dtype}": (MergeConfig(method=method, output_dtype=output_dtype), dtype, {})
         for method in MERGE_METHODS for dtype in (DType.F32, DType.F16, DType.BF16) for output_dtype in OUTPUT_DTYPES}
CASES["dim3-BF16-anchor-overlap"] = (MergeConfig(shape_policy="anchor-overlap"), DType.BF16, WIDER)
CASES["ties-BF16-layers-1"] = (
    MergeConfig(method="ties", scope=ScopeFilter.from_dict({"preset": "layers", "layer_range": [1, 1]})),
    DType.BF16, {})


@pytest.mark.parametrize("case", CASES)
def test_output_bytes_are_pinned(tmp_path, case):
    cfg, dtype, anchor_shapes = CASES[case]
    assert output_sha256(tmp_path, cfg, dtype, anchor_shapes) == PINS[case]


# numpy's SIMD dispatch held below X86_V3 (AVX2 and FMA3)
BELOW_X86_V3 = "AVX512_SPR AVX512_ICL X86_V4 X86_V3"
SIMD_CHILD = """
import sys
import pytest
from numpy._core._multiarray_umath import __cpu_features__
print("X86_V3", __cpu_features__["X86_V3"], flush=True)
sys.exit(pytest.main(sys.argv[1:]))
"""


def test_pins_hold_below_x86_v3(tmp_path):
    """The pins again, in a child process whose numpy is held below X86_V3 by
    ``NPY_DISABLE_CPU_FEATURES``. numpy picks its SIMD kernels when it is
    imported, so a reduction whose order followed the vector width would
    write other bytes on a CPU without AVX2, while the pins above only run
    at this CPU's widest level."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:
        pytest.skip("numpy before 2.0 keeps its CPU dispatch table elsewhere")
    if not __cpu_features__.get("X86_V3"):
        pytest.skip("numpy already runs below X86_V3 here, where the pins above run")
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": BELOW_X86_V3}
    result = subprocess.run([sys.executable, "-c", SIMD_CHILD, "-q", "-p", "no:cacheprovider",
                             f"--basetemp={tmp_path}", f"{__file__}::test_output_bytes_are_pinned"],
                            env=env, cwd=Path(__file__).parents[1], capture_output=True, text=True)
    if not result.stdout.startswith("X86_V3 "):
        pytest.skip(f"numpy refuses NPY_DISABLE_CPU_FEATURES={BELOW_X86_V3!r}: {result.stderr.strip()[-300:]}")
    assert result.stdout.startswith("X86_V3 False"), result.stdout[:200]
    assert result.returncode == 0 and f"{len(PINS)} passed" in result.stdout, result.stdout[-3000:]
