"""Differential property test of the whole merge.

One to three tensors are drawn, each 1D or 2D with rows around the tile and
block edges, a dtype per role, an anchor that may overlap the sources with
extra rows and columns, and values in ±4: continuous, or from a few values
so that the top-k cuts meet ties in every row block. Each draw is merged by
any method into either output dtype, by one and by two workers, in row
blocks of one and of three tiles. The four outputs are the same bytes; a
baseline equals the naive references; a dim3 merge in float32 is within
1e-5 of the float64 reference (acceptance criterion 3); every tensor that
passes through is the anchor's, bit for bit; and ``diagnose`` gives the same
rows by one and by two workers.
"""

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dimerge.merge as merge_module
from dimerge.align import align_triple
from dimerge.baselines import BaselineParams
from dimerge.diagnostics import diagnose
from dimerge.geometry import TILE_ROWS
from dimerge.merge import MERGE_METHODS, OUTPUT_DTYPES, MergeConfig, merge_checkpoint
from dimerge.records import DType, TensorRecord, recode_bits
from dimerge.store import Checkpoint, load_checkpoint

from test_streaming import expected_baseline_bits
import reference

PROPERTY = settings(max_examples=200)

ROLES = ("base", "ml", "anchor")
DTYPES = (DType.F32, DType.F16, DType.BF16)
# row counts at and around the edges of one and of three tiles
ROWS = st.one_of(st.sampled_from([1, TILE_ROWS - 1, TILE_ROWS, TILE_ROWS + 1, 3 * TILE_ROWS, 3 * TILE_ROWS + 1]),
                 st.integers(1, 4 * TILE_ROWS))
POOL = np.array([-4.0, -1.5, -0.5, 0.0, 0.5, 1.5, 4.0], np.float32)


@st.composite
def tensors(draw, index: int):
    """One tensor's name, source shape and the anchor's (wider under overlap)."""
    rows = draw(ROWS)
    shape = (rows, draw(st.integers(1, 5))) if draw(st.booleans()) else (rows,)
    extra = draw(st.sampled_from([0, 0, 1, 3]))
    anchor_shape = tuple(d + (extra if axis == 0 else draw(st.integers(0, 2))) for axis, d in enumerate(shape))
    kind = "mlp.up_proj" if len(shape) == 2 else "input_layernorm"
    return f"model.layers.{index}.{kind}.weight", shape, anchor_shape


@st.composite
def cases(draw):
    specs = [draw(tensors(i)) for i in range(draw(st.integers(1, 3)))]
    method = draw(st.sampled_from(MERGE_METHODS))
    baseline = None if method == "dim3" else BaselineParams(
        ties_density=draw(st.sampled_from([0.2, 0.5, 1.0])),
        **dict(zip(("breadcrumbs_beta", "breadcrumbs_gamma"), draw(st.sampled_from([(0.85, 0.01), (0.3, 0.3)])))))
    cfg = MergeConfig(method=method, baseline=baseline, output_dtype=draw(st.sampled_from(OUTPUT_DTYPES)),
                      shape_policy="anchor-overlap", seed=draw(st.integers(0, 3)))
    dtypes = [draw(st.sampled_from(DTYPES)) for _ in ROLES]
    pooled = draw(st.booleans())
    return specs, cfg, dtypes, pooled, draw(st.integers(0, 2**32 - 1))


def checkpoints(specs, dtypes, pooled, seed):
    """(base, ml, anchor), the anchor's overlap filled in and with one
    anchor-only tensor besides."""
    rng = np.random.default_rng(seed)
    records = {role: [] for role in ROLES}
    for name, shape, anchor_shape in specs:
        for role, dtype in zip(ROLES, dtypes):
            size = anchor_shape if role == "anchor" else shape
            values = rng.choice(POOL, size) if pooled else rng.uniform(-4.0, 4.0, size).astype(np.float32)
            records[role].append(TensorRecord.from_array(name, values, dtype))
    records["anchor"].append(TensorRecord.from_array("vision.patch_embed", rng.uniform(-4, 4, (3, 2)), dtypes[2]))
    return [Checkpoint.from_records(records[role]) for role in ROLES]


@PROPERTY
@given(cases())
def test_merge_agrees_with_itself_and_the_references(case):
    specs, cfg, dtypes, pooled, seed = case
    base, ml, anchor = checkpoints(specs, dtypes, pooled, seed)
    outputs, rows = [], []
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
        for tiles in (1, 3):
            patch.setattr(merge_module, "_block_rows", lambda cols: tiles * TILE_ROWS)
            for threads in (1, 2):
                out = Path(tmp) / f"out{tiles}{threads}"
                merge_checkpoint(base, ml, anchor, cfg, out, threads=threads)
                merged = load_checkpoint(out)
                outputs.append({name: (rec.dtype, rec.raw) for name, rec in merged.tensors.items()})
                if all(shape == anchor_shape for _, shape, anchor_shape in specs):
                    rows.append(json.dumps([row.to_dict() for row in diagnose(base, ml, anchor, threads=threads)]))
    assert all(output == outputs[0] for output in outputs[1:])
    assert all(table == rows[0] for table in rows[1:])

    merged = outputs[0]
    assert merged["vision.patch_embed"] == (anchor["vision.patch_embed"].dtype, anchor["vision.patch_embed"].raw)
    triples, _ = align_triple(base, ml, anchor, shape_policy="anchor-overlap")
    for triple in triples:
        dtype, raw = merged[triple.name]
        if cfg.method != "dim3":
            assert raw == expected_baseline_bits(triple, cfg), triple.name
            continue
        # the anchor's rows and columns past the sources' pass through, recoded
        bits = np.frombuffer(raw, f"<u{dtype.itemsize}").reshape(triple.mm.shape)
        outside = recode_bits(triple.mm.bits(), triple.mm.dtype, dtype)
        region = tuple(slice(0, d) for d in triple.shape)
        outside[region] = bits[region]
        assert bits.tobytes() == outside.tobytes(), triple.name
        if dtype is DType.F32 and not pooled:
            oracle = reference.merge_2d if triple.rank == 2 else reference.merge_1d
            want, _ = oracle(*triple.to_f32())
            got = bits[region].view(np.float32)
            assert np.max(np.abs(got - want)) <= 1e-5, triple.name
