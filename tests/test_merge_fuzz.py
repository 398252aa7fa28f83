"""Differential property test of the whole merge.

One to three tensors are drawn, each 1D or 2D with rows around the tile and
block edges, a dtype per role, an anchor that may overlap the sources with
extra rows and columns, and values: continuous in ±4; from a few values in
±4, so that the top-k cuts meet ties in every row block; or from the few
largest finite values of each role's dtype (the float32 limit for F32), so
that residuals and merges overflow float32 or the output dtype. A scope is
drawn too: a preset, or include and exclude patterns. Each draw is merged
by any method into either output dtype, by one and by two workers, in row
blocks of one and of three tiles. The four runs write the same bytes, or
fail on the same tensor: the first in order that may fail, with none before
it that must. A baseline equals the naive references; a dim3 merge in
float32 is within 1e-5 of the float64 reference (acceptance criterion 3);
every tensor out of scope or passed through is the anchor's, bit for bit;
and ``diagnose`` gives the same rows, or fails on the same tensor, by one
and by two workers.
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
from dimerge.errors import NumericError
from dimerge.geometry import TILE_ROWS
from dimerge.merge import MERGE_METHODS, OUTPUT_DTYPES, MergeConfig, merge_checkpoint
from dimerge.records import ENCODE_LIMIT, DType, TensorRecord, decode_f32, recode_bits
from dimerge.scope import ScopeFilter
from dimerge.store import Checkpoint, load_checkpoint

from conftest import aligned_f32
from test_streaming import expected_baseline_bits, expected_baseline_values
import reference

PROPERTY = settings(max_examples=200)

ROLES = ("base", "ml", "anchor")
DTYPES = (DType.F32, DType.F16, DType.BF16)
# row counts at and around the edges of one and of three tiles
ROWS = st.one_of(st.sampled_from([1, TILE_ROWS - 1, TILE_ROWS, TILE_ROWS + 1, 3 * TILE_ROWS, 3 * TILE_ROWS + 1]),
                 st.integers(1, 4 * TILE_ROWS))
POOL = np.array([-4.0, -1.5, -0.5, 0.0, 0.5, 1.5, 4.0], np.float32)
# the bits of each dtype's largest finite value
TOP_BITS = {DType.F32: 0x7F7FFFFF, DType.F16: 0x7BFF, DType.BF16: 0x7F7F}
VALUES = ("uniform", "pooled", "near_limit")
PATTERNS = st.sampled_from(["*", "*.mlp.*", "*layernorm*", "model.layers.1.*", "*embed*", "lm_head*"])
# half of them the full scope
SCOPES = st.one_of(st.just("full"), st.one_of(
    st.sampled_from(["empty", "embed_only", "llm_only", "lmhead_only"]),
    st.lists(st.integers(0, 2), min_size=2, max_size=2).map(lambda r: {"preset": "layers", "layer_range": sorted(r)}),
    st.fixed_dictionaries({"include": st.lists(PATTERNS, min_size=1, max_size=2),
                           "exclude": st.lists(PATTERNS, max_size=2)})))


def near_limit(dtype, signs):
    """The four largest finite values of ``dtype`` with each of ``signs``,
    and three small values, as float32. Of one sign, they make residuals
    in range whose sums and rescales may overflow."""
    width = f"<u{dtype.itemsize}"
    top = decode_f32(np.array(TOP_BITS[dtype], width) - np.arange(4, dtype=width), dtype)
    return np.concatenate([top * sign for sign in signs] + [[0.0, 1.5, -1.5]]).astype(np.float32)


@st.composite
def tensors(draw, index: int):
    """One tensor's name, source shape and the anchor's (wider under overlap)."""
    rows = draw(ROWS)
    shape = (rows, draw(st.integers(1, 5))) if draw(st.booleans()) else (rows,)
    extra = draw(st.sampled_from([0, 0, 1, 3]))
    anchor_shape = tuple(d + (extra if axis == 0 else draw(st.integers(0, 2))) for axis, d in enumerate(shape))
    if len(shape) == 1:
        return f"model.layers.{index}.input_layernorm.weight", shape, anchor_shape
    names = [f"model.layers.{index}.mlp.up_proj.weight", *("model.embed_tokens.weight", "lm_head.weight")[index:index + 1]]
    return draw(st.sampled_from(names)), shape, anchor_shape


@st.composite
def cases(draw):
    specs = [draw(tensors(i)) for i in range(draw(st.integers(1, 3)))]
    method = draw(st.sampled_from(MERGE_METHODS))
    baseline = None if method == "dim3" else BaselineParams(
        ties_density=draw(st.sampled_from([0.2, 0.5, 1.0])),
        **dict(zip(("breadcrumbs_beta", "breadcrumbs_gamma"), draw(st.sampled_from([(0.85, 0.01), (0.3, 0.3)])))))
    cfg = MergeConfig(method=method, baseline=baseline, output_dtype=draw(st.sampled_from(OUTPUT_DTYPES)),
                      shape_policy="anchor-overlap", seed=draw(st.integers(0, 3)),
                      scope=ScopeFilter.from_dict(draw(SCOPES)))
    dtypes = [draw(st.sampled_from(DTYPES)) for _ in ROLES]
    return specs, cfg, dtypes, draw(st.sampled_from(VALUES)), draw(st.integers(0, 2**32 - 1))


def checkpoints(specs, dtypes, values, seed):
    """(base, ml, anchor), the anchor's overlap filled in and with one
    anchor-only tensor besides."""
    rng = np.random.default_rng(seed)
    records = {role: [] for role in ROLES}
    for name, shape, anchor_shape in specs:
        signs = ((1,), (-1,), (1, -1))[rng.integers(3)]
        for role, dtype in zip(ROLES, dtypes):
            size = anchor_shape if role == "anchor" else shape
            if values == "uniform":
                array = rng.uniform(-4.0, 4.0, size).astype(np.float32)
            else:
                array = rng.choice(POOL if values == "pooled" else near_limit(dtype, signs), size)
            records[role].append(TensorRecord.from_array(name, array, dtype))
    records["anchor"].append(TensorRecord.from_array("vision.patch_embed", rng.uniform(-4, 4, (3, 2)), dtypes[2]))
    return [Checkpoint.from_records(records[role]) for role in ROLES]


def outcome(run, *args, **kwargs):
    """What ``run`` returns, or the tensor its NumericError names."""
    try:
        return run(*args, **kwargs)
    except NumericError as error:
        return str(error).split(": ")[0]


def verdict(triple, cfg):
    """Whether merging ``triple`` must "fail", must "pass" or may do
    "either": it fails where its float32 residuals (dim3: ml - mm) are not
    finite, or its merge lies past what the output dtype keeps finite. A
    dim3 merge lies between ml and mm, so it is past the limit where both
    are, on one side, and within it where both are; between, it may be
    either."""
    limit = ENCODE_LIMIT[triple.mm.dtype if cfg.output_dtype == "match_anchor" else DType.F32]
    base, ml, mm = aligned_f32(triple)
    with np.errstate(over="ignore", invalid="ignore"):
        if cfg.method == "dim3":
            if not np.isfinite(ml - mm).all():
                return "fail"
            if np.all(np.maximum(np.abs(ml), np.abs(mm)) <= limit):
                return "pass"
            beyond = (np.minimum(np.abs(ml), np.abs(mm)) > limit) & (np.sign(ml) == np.sign(mm))
            return "fail" if beyond.any() else "either"
        if not (np.isfinite(ml - base).all() and np.isfinite(mm - base).all()):
            return "fail"
        return "pass" if np.all(np.abs(expected_baseline_values(triple, cfg)) <= limit) else "fail"


@PROPERTY
@given(cases())
def test_merge_agrees_with_itself_and_the_references(case):
    specs, cfg, dtypes, values, seed = case
    base, ml, anchor = checkpoints(specs, dtypes, values, seed)
    outputs, rows = [], []
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
        for tiles in (1, 3):
            patch.setattr(merge_module, "_block_rows", lambda cols: tiles * TILE_ROWS)
            for threads in (1, 2):
                out = Path(tmp) / f"out{tiles}{threads}"
                failed = outcome(merge_checkpoint, base, ml, anchor, cfg, out, threads=threads)
                outputs.append(failed if isinstance(failed, str) else
                               {name: (rec.dtype, rec.raw) for name, rec in load_checkpoint(out).tensors.items()})
                if all(shape == anchor_shape for _, shape, anchor_shape in specs):
                    table = outcome(diagnose, base, ml, anchor, threads=threads)
                    rows.append(table if isinstance(table, str) else json.dumps([row.to_dict() for row in table]))
    assert all(output == outputs[0] for output in outputs[1:])
    assert all(table == rows[0] for table in rows[1:])

    triples, _ = align_triple(base, ml, anchor, shape_policy="anchor-overlap")
    verdicts = {triple.name: verdict(triple, cfg) if values == "near_limit" else "pass"
                for triple in triples if cfg.scope.admits(triple.name)}
    merged = outputs[0]
    if isinstance(merged, str):
        in_order = [name for name in anchor.names() if name in verdicts]
        assert verdicts.get(merged, "pass") != "pass", (merged, verdicts)
        assert "fail" not in (verdicts[name] for name in in_order[:in_order.index(merged)]), (merged, verdicts)
        return
    assert "fail" not in verdicts.values(), verdicts
    for name in anchor.names():
        if name not in verdicts:   # out of scope or anchor-only
            assert merged[name] == (anchor[name].dtype, anchor[name].raw), name
    for triple in triples:
        if triple.name not in verdicts:
            continue
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
        if dtype is DType.F32 and values == "uniform":
            oracle = reference.merge_2d if triple.rank == 2 else reference.merge_1d
            want, _ = oracle(*aligned_f32(triple))
            got = bits[region].view(np.float32)
            assert np.max(np.abs(got - want)) <= 1e-5, triple.name
