import hashlib
import json
import logging
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dimerge import diagnostics, merge
from dimerge.align import AlignedTriple
from dimerge.baselines import BaselineParams
from dimerge.errors import ConfigError, NumericError
from dimerge.merge import BASELINE_METHODS, MERGE_METHODS, OUTPUT_DTYPES, MergeConfig, merge_checkpoint, merge_tensor
from dimerge.records import DType, TensorRecord, recode_bits
from dimerge.salience import AggregationKind
from dimerge.scope import ScopeFilter
from dimerge.store import DEFAULT_SHARD_LIMIT, Checkpoint, load_checkpoint, save_checkpoint

from conftest import header_of, make_triple, merge_and_load, set_metadata
import reference


def triple_of(base, ml, mm, name="t", dtype=DType.F32):
    return AlignedTriple(
        name,
        TensorRecord.from_array(name, np.asarray(base, dtype=np.float32), dtype=dtype),
        TensorRecord.from_array(name, np.asarray(ml, dtype=np.float32), dtype=dtype),
        TensorRecord.from_array(name, np.asarray(mm, dtype=np.float32), dtype=dtype),
    )


def checkpoint_digest(ckpt: Checkpoint) -> str:
    h = hashlib.sha256()
    for name, rec in ckpt.tensors.items():
        h.update(name.encode())
        h.update(rec.dtype.value.encode())
        h.update(rec.raw)
    return h.hexdigest()


class TestMergeMatrix:
    def test_zero_residuals_reproduce_base_exactly(self, rng):
        W = rng.normal(size=(6, 5)).astype(np.float32)
        out = merge_tensor(triple_of(W, W, W), MergeConfig())
        np.testing.assert_array_equal(out.to_f32(), W)

    def test_identical_residuals_add_once(self, rng):
        W = rng.normal(size=(6, 5)).astype(np.float32)
        delta = rng.normal(scale=0.1, size=(6, 5)).astype(np.float32)
        out = merge_tensor(triple_of(W, W + delta, W + delta), MergeConfig())
        np.testing.assert_allclose(out.to_f32(), W + delta, atol=1e-6)

    def test_matches_reference_on_4x4(self, rng):
        base = rng.normal(size=(4, 4)).astype(np.float32)
        ml = (base + 0.3 * rng.normal(size=(4, 4))).astype(np.float32)
        mm = (base + 0.3 * rng.normal(size=(4, 4))).astype(np.float32)
        out = merge_tensor(triple_of(base, ml, mm), MergeConfig()).to_f32()
        want, _ = reference.merge_2d(base, ml, mm, epsilon=MergeConfig().epsilon)
        np.testing.assert_allclose(out, want, atol=1e-5)

    def test_output_matches_anchor_dtype(self, rng):
        base = rng.normal(size=(4, 4)).astype(np.float32)
        out = merge_tensor(triple_of(base, base, base, dtype=DType.BF16), MergeConfig())
        assert out.dtype is DType.BF16


class TestMergeVector:
    def test_all_equal_inputs(self):
        out = merge_tensor(triple_of([1.0, 2.0], [1.0, 2.0], [1.0, 2.0]), MergeConfig())
        np.testing.assert_array_equal(out.to_f32(), [1.0, 2.0])

    def test_disjoint_residual_gate(self):
        # deviations [1,0] vs [0,1]: ranks give the active source the higher
        # gate sigma(0.5) at its own coordinate
        base = np.array([0.0, 0.0], dtype=np.float32)
        out = merge_tensor(triple_of(base, [1.0, 0.0], [0.0, 1.0]), MergeConfig()).to_f32()
        g = reference.logistic(0.5)
        np.testing.assert_allclose(out, [g, g], atol=1e-7)

    def test_matches_reference(self, rng):
        base = rng.normal(size=17).astype(np.float32)
        ml = (base + 0.2 * rng.normal(size=17)).astype(np.float32)
        mm = (base + 0.2 * rng.normal(size=17)).astype(np.float32)
        out = merge_tensor(triple_of(base, ml, mm), MergeConfig()).to_f32()
        want, _ = reference.merge_1d(base, ml, mm)
        np.testing.assert_allclose(out, want, atol=1e-5)


class TestOracleEquivalence:
    def test_randomized_2d_triples(self, rng):
        cfg = MergeConfig()
        for _ in range(60):
            d_out = int(rng.integers(2, 65))
            d_in = int(rng.integers(2, 65))
            base = rng.normal(size=(d_out, d_in)).astype(np.float32)
            ml = (base + rng.normal(scale=0.5, size=(d_out, d_in))).astype(np.float32)
            mm = (base + rng.normal(scale=0.5, size=(d_out, d_in))).astype(np.float32)
            got = merge_tensor(triple_of(base, ml, mm), cfg).to_f32()
            want, omega = reference.merge_2d(base, ml, mm, epsilon=cfg.epsilon)
            np.testing.assert_allclose(got, want, atol=1e-5)
            lo, hi = reference.logistic(-1.0), reference.logistic(1.0)
            assert np.all(omega >= lo) and np.all(omega <= hi)

    def test_randomized_1d_triples(self, rng):
        cfg = MergeConfig()
        for _ in range(40):
            n = int(rng.integers(2, 257))
            base = rng.normal(size=n).astype(np.float32)
            ml = (base + rng.normal(scale=0.5, size=n)).astype(np.float32)
            mm = (base + rng.normal(scale=0.5, size=n)).astype(np.float32)
            got = merge_tensor(triple_of(base, ml, mm), cfg).to_f32()
            want, _ = reference.merge_1d(base, ml, mm)
            np.testing.assert_allclose(got, want, atol=1e-5)


class TestNonFiniteInput:
    @pytest.mark.parametrize("method", MERGE_METHODS)
    def test_nan_in_ml_rejected(self, method, rng):
        base = rng.normal(size=(4, 5)).astype(np.float32)
        ml = base + np.float32(0.1)
        ml[2, 3] = np.nan
        with pytest.raises(NumericError, match="^t: multilingual tensor contains non-finite values$"):
            merge_tensor(triple_of(base, ml, base), MergeConfig(method=method))

    @pytest.mark.parametrize("method", MERGE_METHODS)
    @pytest.mark.parametrize("role", ["multilingual", "anchor"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("shape", [(4, 5), (20,)])
    def test_non_finite_input_named_as_tensor(self, method, role, value, shape, rng):
        """Every method names a non-finite source as its tensor, not as a
        residual: only finite inputs can have a residual past float32."""
        base = rng.normal(size=shape).astype(np.float32)
        sources = {"multilingual": base + np.float32(0.1), "anchor": base - np.float32(0.1)}
        sources[role].reshape(-1)[7] = value
        with pytest.raises(NumericError, match=f"^t: {role} tensor contains non-finite values$"):
            merge_tensor(triple_of(base, *sources.values()), MergeConfig(method=method))

    @pytest.mark.parametrize("shape", [(4, 2), (8,)])
    def test_difference_past_float32_rejected(self, shape):
        """Finite sources 6e38 apart: dim3 forms ``ml - mm``, which is past
        float32, so the blend is not finite and the merge fails naming the
        tensor, not a tensor of infinities. Task arithmetic forms only the
        residuals, which fit, and merges them exactly."""
        base, ml, mm = (np.full(shape, v, np.float32) for v in (0.0, 3e38, -3e38))
        with pytest.raises(NumericError, match="^t: merged values are not finite in F32"):
            merge_tensor(triple_of(base, ml, mm), MergeConfig())
        merged = merge_tensor(triple_of(base, ml, mm), MergeConfig(method="task_arithmetic"))
        np.testing.assert_array_equal(merged.to_f32(), np.zeros(shape, np.float32))

    @pytest.mark.parametrize("shape", [(4, 2), (8,)])
    def test_residual_past_float32_rejected(self, shape):
        base, ml, mm = (np.full(shape, v, np.float32) for v in (3e38, -3e38, 3e38))
        with pytest.raises(NumericError, match="^t: multilingual residual"):
            merge_tensor(triple_of(base, ml, mm), MergeConfig(method="task_arithmetic"))

    @pytest.mark.parametrize("method", BASELINE_METHODS)
    def test_residual_past_float32_named_before_a_later_non_finite_source(self, method):
        """Messages go in role order: ml's residual, past float32 from finite
        inputs, comes before the anchor's NaN tensor."""
        base, ml, mm = (np.full((4, 2), v, np.float32) for v in (3e38, -3e38, 3e38))
        mm[1, 1] = np.nan
        with pytest.raises(NumericError, match="^t: multilingual residual contains non-finite values$"):
            merge_tensor(triple_of(base, ml, mm), MergeConfig(method=method))

    @pytest.mark.parametrize("shape", [(4, 2), (8,)])
    def test_difference_near_float32_max_merges(self, shape):
        """Column norms past float32's range but every difference inside it:
        the merge is checked and finite."""
        base, ml, mm = (np.full(shape, v, np.float32) for v in (0.0, 1e38, -1e38))
        merged = merge_tensor(triple_of(base, ml, mm), MergeConfig()).to_f32()
        assert np.isfinite(merged).all()
        assert (np.abs(merged) <= 1e38).all()


class TestF64Narrowing:
    """An F64 value past float32 is a numeric error naming the tensor, with
    no numpy warning before it, inside the aligned region or in the
    anchor's own rows that a narrower output re-encodes."""

    @pytest.mark.parametrize("method", MERGE_METHODS)
    def test_input_past_float32_rejected(self, method):
        records = [TensorRecord.from_array("t", np.full((4, 2), v)) for v in (0.0, 1e300, 0.5)]
        with pytest.raises(NumericError, match="^t: multilingual"):
            merge_tensor(AlignedTriple("t", *records), MergeConfig(method=method))

    @pytest.mark.parametrize("output_dtype", OUTPUT_DTYPES)
    def test_anchor_rows_past_float32(self, output_dtype):
        """A 2x2 region of a 3x2 F64 anchor whose third row is 1e300: F32
        output cannot hold that row; the anchor's own dtype keeps it."""
        base = TensorRecord.from_array("t", np.zeros((2, 2)))
        anchor = TensorRecord.from_array("t", np.array([[0.5, 0.5], [0.5, 0.5], [1e300, 1e300]]))
        triple = AlignedTriple("t", base, base, anchor, shape=(2, 2))
        cfg = MergeConfig(output_dtype=output_dtype)
        if output_dtype == "f32":
            with pytest.raises(NumericError, match="^t: anchor values are not finite in F32$"):
                merge_tensor(triple, cfg)
        else:
            np.testing.assert_array_equal(merge_tensor(triple, cfg).to_f64(),
                                          [[0.25, 0.25], [0.25, 0.25], [1e300, 1e300]])


BF16_MAX = float(np.uint32(0x7F7F0000).view(np.float32))
TINY = float(np.finfo(np.float32).smallest_subnormal)


class TestMergedOverflow:
    """Finite inputs whose merge the output dtype cannot hold: every method
    fails naming the tensor and the dtype, where it used to write infinities.
    TIES's mean of two agreeing residuals past float32 is not one: it fits."""

    @pytest.mark.parametrize("method, dtype, values, params", [
        ("task_arithmetic", DType.F16, (0.0, 40000.0, 40000.0), {}),
        ("task_arithmetic", DType.BF16, (0.0, 2e38, 2e38), {}),
        # 1e38 / (1 - p) overflows before lambda would bring it back in range
        ("dare", DType.F32, (0.0, 1e38, 0.0), {"dare_drop_p": 0.9, "lam": 0.05}),
        ("task_arithmetic", DType.F32, (0.0, 1e9, 1e9), {"lam": 1e30}),
    ], ids=["task_arithmetic_f16", "task_arithmetic_bf16", "dare_rescale", "task_arithmetic_lambda"])
    def test_overflow_rejected(self, method, dtype, values, params):
        base, ml, mm = (np.full((4, 2), v, np.float32) for v in values)
        cfg = MergeConfig(method=method, baseline=BaselineParams(**params))
        with pytest.raises(NumericError, match=f"^t: merged values are not finite in {dtype.value}$"):
            merge_tensor(triple_of(base, ml, mm, dtype=dtype), cfg)

    @pytest.mark.parametrize("ml, mm, want", [
        (3e38, 3e38, 3e38),
        (-3e38, -3e38, -3e38),
        # one pair overflows; the other's mean, 1.5 of the smallest
        # subnormal, rounds to 2 from its sum where halves would give 0 + 1
        ([3e38, TINY], [2.5e38, 2 * TINY], [np.float32(3e38) / 2 + np.float32(2.5e38) / 2, 2 * TINY]),
    ], ids=["both_past_max", "both_past_min", "with_a_subnormal_sum"])
    def test_ties_averages_a_pair_past_float32_in_range(self, ml, mm, want):
        """TIES's mean of two agreeing residuals is in range even where their
        float32 sum is not: the overflowing pair gives a/2 + b/2."""
        base, ml, mm = (np.broadcast_to(np.asarray(v, np.float32), (4, 2)) for v in (0.0, ml, mm))
        cfg = MergeConfig(method="ties", baseline=BaselineParams(ties_density=1.0))
        out = merge_tensor(triple_of(base, ml, mm), cfg)
        np.testing.assert_array_equal(out.to_f64(), np.broadcast_to(np.float32(want), (4, 2)))
        assert out.raw == reference.ties(base, ml, mm, 1.0, 1.0).tobytes()

    @pytest.mark.parametrize("dtype, ml, mm, output_dtype, want", [
        (DType.F16, 32752.0, 32752.0, "match_anchor", 65504.0),
        (DType.F16, 32752.0, 32768.0, "match_anchor", None),   # 65520 rounds to F16 inf
        (DType.F16, 32768.0, 32768.0, "match_anchor", None),
        (DType.F16, 32768.0, 32768.0, "f32", 65536.0),
        (DType.BF16, BF16_MAX / 2, BF16_MAX / 2, "match_anchor", BF16_MAX),
        # a finite float32 sum, 0x7F7F8000, that bf16 rounds to inf
        (DType.BF16, BF16_MAX / 2, 2.0 ** 127, "match_anchor", None),
    ], ids=["f16_65504", "f16_65520", "f16_65536", "f16_65536_to_f32", "bf16_max", "bf16_past_max"])
    def test_task_arithmetic_at_the_output_limit(self, dtype, ml, mm, output_dtype, want):
        """A sum at the output dtype's largest value merges to it; one that
        the output dtype rounds to infinity is an error."""
        triple = triple_of(np.zeros((4, 2)), np.full((4, 2), ml), np.full((4, 2), mm), dtype=dtype)
        cfg = MergeConfig(method="task_arithmetic", output_dtype=output_dtype)
        if want is None:
            with pytest.raises(NumericError, match=f"^t: merged values are not finite in {dtype.value}$"):
                merge_tensor(triple, cfg)
        else:
            np.testing.assert_array_equal(merge_tensor(triple, cfg).to_f64(), np.full((4, 2), want))


# largest finite value of each anchor dtype the property draws
DTYPE_MAX = {DType.F32: float(np.finfo(np.float32).max), DType.F16: 65504.0, DType.BF16: BF16_MAX}
NEAR_ONE = st.one_of(st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0]), st.floats(-1.0, 1.0))


@settings(max_examples=200)
@given(st.data())
def test_merge_is_finite_or_an_error_naming_the_tensor(data):
    """Sources near their dtype's largest value, merged by every method into
    either output dtype: the merge is finite, or a NumericError naming the
    tensor, never an infinity written with no error."""
    method = data.draw(st.sampled_from(MERGE_METHODS))
    dtype = data.draw(st.sampled_from(list(DTYPE_MAX)))
    output_dtype = data.draw(st.sampled_from(OUTPUT_DTYPES))
    shape = data.draw(st.sampled_from([(4, 2), (3, 3), (2, 1), (6,)]))
    n = int(np.prod(shape))
    base, ml, mm = (np.array(data.draw(st.lists(NEAR_ONE, min_size=n, max_size=n))).reshape(shape)
                    * DTYPE_MAX[dtype] for _ in range(3))
    baseline = None if method == "dim3" else BaselineParams(lam=data.draw(st.sampled_from([0.5, 1.0, 2.0])))
    cfg = MergeConfig(method=method, output_dtype=output_dtype, baseline=baseline)
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            merged = merge_tensor(triple_of(base, ml, mm, dtype=dtype), cfg)
        except NumericError as error:
            assert str(error).startswith("t: "), error
        else:
            assert np.isfinite(merged.to_f64()).all()


class TestFirstErrorStops:
    """At any worker count, the first tensor in order whose inputs are not
    finite is the error raised, and the tensors not yet started when any
    tensor fails are never started, even while an earlier one still runs."""

    NAMES = [f"model.layers.{i}.mlp.up_proj.weight" for i in range(20)]
    # the first tensor fails slowly and the second at once, so at 2 workers
    # the second fails while the first runs for six other tensors' time
    DELAYS = {NAMES[0]: 0.6, NAMES[1]: 0.0}

    def _checkpoints(self):
        rng = np.random.default_rng(3)
        base = {n: rng.normal(size=(8, 4)).astype(np.float32) for n in self.NAMES}
        ml = {n: v + np.float32(0.1) for n, v in base.items()}
        for name in self.NAMES[:2]:
            ml[name][0, 0] = np.nan
        return [Checkpoint.from_records([TensorRecord.from_array(n, v) for n, v in arrays.items()])
                for arrays in (base, ml, base)]

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("command", ["merge", "diagnose"])
    def test_first_error_in_order_and_no_more_work(self, tmp_path, monkeypatch, command, threads):
        module, per_tensor = (merge, "_merge_one") if command == "merge" else (diagnostics, "stream_column_sums")
        real = getattr(module, per_tensor)
        calls = []

        def counted(triple, *args):
            calls.append(triple.name)
            time.sleep(self.DELAYS.get(triple.name, 0.1))
            return real(triple, *args)

        monkeypatch.setattr(module, per_tensor, counted)
        base, ml, anchor = self._checkpoints()
        with pytest.raises(NumericError, match=f"^{self.NAMES[0]}: multilingual tensor contains non-finite"):
            if command == "merge":
                merge_checkpoint(base, ml, anchor, MergeConfig(), tmp_path / "out", threads=threads)
            else:
                diagnostics.diagnose(base, ml, anchor, threads=threads)
        assert len(calls) <= threads + 2
        assert not (tmp_path / "out").exists()

    def test_interrupt_cancels_queued_tensors(self, monkeypatch):
        """An interrupt of the thread waiting on the workers (Ctrl-C's
        ``KeyboardInterrupt``, ``SystemExit``) cancels every tensor not yet
        started and propagates once the running ones end."""

        class Interrupt(BaseException):
            pass

        def interrupted(*args, **kwargs):
            raise Interrupt

        started = []
        monkeypatch.setattr(merge, "wait", interrupted)
        with pytest.raises(Interrupt):
            merge.for_each_tensor(self.NAMES, lambda name: started.append(name) or time.sleep(0.05), threads=2)
        assert len(started) <= 2 + 2


class TestConfig:
    def test_unknown_method_rejected(self):
        with pytest.raises(ConfigError):
            MergeConfig(method="soup")

    def test_baseline_params_only_for_baselines(self):
        with pytest.raises(ConfigError):
            MergeConfig(method="dim3", baseline=BaselineParams())
        cfg = MergeConfig(method="dare")
        assert cfg.baseline is not None

    def test_question_mark_in_layer_pattern_is_one_character(self):
        scope = ScopeFilter(layer_pattern="model.layer?.{n}.*", layer_range=(0, 9))
        assert scope.admits("model.layers.3.mlp.up_proj.weight")
        assert not scope.admits("model.layer.3.mlp.up_proj.weight")
        assert not scope.admits("model.layerss.3.mlp.up_proj.weight")

    def test_round_trips_through_dict(self):
        cfg = MergeConfig(
            method="dim3",
            estimator="zscore",
            aggregation=AggregationKind("dir_weighted", 0.6),
            scope=ScopeFilter.from_dict({"preset": "layers", "layer_range": [0, 0]}),
            seed=9,
        )
        again = MergeConfig.from_dict(cfg.to_dict())
        assert again.to_dict() == cfg.to_dict()


@pytest.mark.parametrize("method", MERGE_METHODS)
def test_scalar_is_the_anchor_record_as_merge_checkpoint_writes_it(method):
    triple = triple_of(1.0, 2.0, 3.5, name="s", dtype=DType.BF16)
    cfg = MergeConfig(method=method, output_dtype="f32")
    out = merge_tensor(triple, cfg)
    assert out == triple.mm
    merged, report = merge_and_load(*(Checkpoint.from_records([r]) for r in (triple.base, triple.ml, triple.mm)), cfg)
    assert merged["s"] == out
    assert report.tensors[0].reason == "scalar"


class TestMergeCheckpoint:
    @pytest.mark.parametrize("limits", [(200, DEFAULT_SHARD_LIMIT), (DEFAULT_SHARD_LIMIT, 200)],
                             ids=["sharded_to_single", "single_to_sharded"])
    def test_replaces_a_checkpoint_of_another_layout(self, tmp_path, triple_f32, limits):
        base, ml, anchor = triple_f32
        save_checkpoint(base, tmp_path / "out", shard_limit=limits[0])
        merge_checkpoint(base, ml, anchor, MergeConfig(), tmp_path / "out", shard_limit=limits[1])
        fresh, _ = merge_and_load(base, ml, anchor, MergeConfig())
        assert checkpoint_digest(load_checkpoint(tmp_path / "out")) == checkpoint_digest(fresh)

    @pytest.mark.parametrize("anchor_limit", [DEFAULT_SHARD_LIMIT, 200], ids=["single_file", "sharded"])
    def test_output_keeps_the_anchors_metadata(self, tmp_path, triple_f32, anchor_limit):
        """Every output file, single or sharded, holds the ``__metadata__``
        of the anchor's files, and the tensors are those of a merge of the
        same anchor held in memory."""
        base, ml, anchor = triple_f32
        save_checkpoint(anchor, tmp_path / "anchor", shard_limit=anchor_limit)
        anchor_files = list((tmp_path / "anchor").glob("*.safetensors"))
        assert (len(anchor_files) > 1) == (anchor_limit == 200)
        for path in anchor_files:
            set_metadata(path, {"format": "pt", "note": "anchor"})
        loaded = load_checkpoint(tmp_path / "anchor")
        fresh, _ = merge_and_load(base, ml, anchor, MergeConfig())
        for out, limit in (("single", DEFAULT_SHARD_LIMIT), ("sharded", 200)):
            merge_checkpoint(base, ml, loaded, MergeConfig(), tmp_path / out, shard_limit=limit)
            files = sorted((tmp_path / out).glob("*.safetensors"))
            assert (len(files) > 1) == (out == "sharded")
            assert all(header_of(p)["__metadata__"] == {"format": "pt", "note": "anchor"} for p in files)
            assert checkpoint_digest(load_checkpoint(tmp_path / out)) == checkpoint_digest(fresh)

    @pytest.mark.parametrize("out", ["merged", "new/deeper/merged", "new/merged.safetensors"])
    def test_failed_merge_into_a_new_directory_leaves_none(self, tmp_path, triple_f32, out):
        base, ml, anchor = triple_f32
        name = "model.layers.1.mlp.up_proj.weight"
        values = ml[name].to_f32()
        values[0, 0] = np.nan
        ml.tensors[name] = TensorRecord.from_array(name, values)
        with pytest.raises(NumericError):
            merge_checkpoint(base, ml, anchor, MergeConfig(), tmp_path / out)
        assert not list(tmp_path.iterdir())

    def test_zero_residuals_full_scope_reproduces_anchor(self):
        base, _, anchor = make_triple(seed=3)
        merged, report = merge_and_load(base, base, _anchor_like(base, anchor), MergeConfig())
        target = _anchor_like(base, anchor)
        assert merged.names() == target.names()
        for name in merged.names():
            assert merged[name].raw == target[name].raw
        assert report.summary.merged_count == len(base)

    def test_empty_scope_is_identity_on_anchor(self, triple_f32):
        base, ml, anchor = triple_f32
        cfg = MergeConfig(scope=ScopeFilter.from_dict("empty"))
        merged, report = merge_and_load(base, ml, anchor, cfg)
        assert checkpoint_digest(merged) == checkpoint_digest(anchor)
        assert report.summary.merged_count == 0

    def test_embed_only_scope(self, triple_f32):
        base, ml, anchor = triple_f32
        cfg = MergeConfig(scope=ScopeFilter.from_dict("embed_only"))
        merged, _ = merge_and_load(base, ml, anchor, cfg)
        full, _ = merge_and_load(base, ml, anchor, MergeConfig())
        for name in anchor.names():
            if "embed_tokens" in name:
                assert merged[name].raw == full[name].raw
            else:
                assert merged[name].raw == anchor[name].raw

    def test_layer_range_composition(self, triple_f32):
        # in-range tensors equal the full merge (weights are per-tensor local),
        # everything else equals the anchor
        base, ml, anchor = triple_f32
        cfg = MergeConfig(scope=ScopeFilter.from_dict({"preset": "layers", "layer_range": [0, 0]}))
        merged, _ = merge_and_load(base, ml, anchor, cfg)
        full, _ = merge_and_load(base, ml, anchor, MergeConfig())
        for name in anchor.names():
            if cfg.scope.admits(name):
                assert merged[name].raw == full[name].raw
            else:
                assert merged[name].raw == anchor[name].raw

    def test_vision_and_projector_pass_through(self, triple_f32):
        base, ml, anchor = triple_f32
        merged, report = merge_and_load(base, ml, anchor, MergeConfig())
        for name in anchor.names():
            if name.startswith(("vision_tower", "multi_modal_projector")):
                assert merged[name].raw == anchor[name].raw
        entries = {t.name: t for t in report.tensors}
        assert entries["vision_tower.blocks.0.attn.weight"].action == "pass_through"

    @pytest.mark.parametrize("workers", [1, 2, 8])
    def test_deterministic_across_worker_counts(self, workers):
        base, ml, anchor = make_triple(seed=11)
        merged, _ = merge_and_load(base, ml, anchor, MergeConfig(), threads=workers)
        assert checkpoint_digest(merged) == _fixture_digest()

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("method", ["dim3", "ties"])
    def test_info_log_has_one_line_per_merged_tensor(self, caplog, workers, method):
        base, ml, anchor = make_triple(seed=12)
        caplog.set_level(logging.INFO, logger="dimerge")
        cfg = MergeConfig(method=method,
                          scope=ScopeFilter.from_dict({"preset": "layers", "layer_range": [0, 0]}))
        _, report = merge_and_load(base, ml, anchor, cfg, threads=workers)
        merged = {t.name for t in report.tensors if t.action == "merged"}
        assert 0 < len(merged) < len(report.tensors)
        # "merged n/N name: MB in s (MB/s)[, omega_ml mean w]"
        lines = [r.getMessage().split() for r in caplog.records if r.name == "dimerge.merge"]
        assert len(lines) == len(merged)
        counts = [line[1].split("/") for line in lines]
        assert sorted(int(n) for n, _ in counts) == list(range(1, len(merged) + 1))
        assert {int(total) for _, total in counts} == {len(merged)}
        assert {line[2].rstrip(":") for line in lines} == merged
        assert all(("omega_ml" in line) == (method == "dim3") for line in lines)
        assert not [r for r in caplog.records if r.levelno >= logging.WARNING]

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("method", ["dim3", "ties", "breadcrumbs"])
    def test_debug_log_marks_stage_boundaries(self, caplog, workers, method):
        """At DEBUG: alignment first, then per merged tensor the end of its
        first pass and, for a top-k baseline, each source's cut, then the
        writer's close last, and the store's one commit once it has been
        made; the INFO lines stay one per merged tensor."""
        base, ml, anchor = make_triple(seed=12)
        caplog.set_level(logging.DEBUG, logger="dimerge")
        cfg = MergeConfig(method=method,
                          scope=ScopeFilter.from_dict({"preset": "layers", "layer_range": [0, 0]}))
        _, report = merge_and_load(base, ml, anchor, cfg, threads=workers)
        merged = {t.name for t in report.tensors if t.action == "merged"}
        debug = [r.getMessage() for r in caplog.records if r.levelno == logging.DEBUG and r.name.startswith("dimerge.")
                 and r.name != "dimerge.store"]
        assert debug[0].startswith(f"alignment done: {len(report.alignment.aligned)} aligned, ")
        assert debug[-1].startswith("writer closed ")
        store = [r.getMessage() for r in caplog.records if r.levelno == logging.DEBUG and r.name == "dimerge.store"]
        assert store == ["committed 1 changes"]
        assert {m.split(":")[0] for m in debug if ": pass 1 done" in m} == merged
        cuts = [m for m in debug if ": top-k cut done: " in m]
        if method == "dim3":
            assert not cuts
        else:
            assert {m.split(":")[0] for m in cuts} == merged
            ends = (" bottom", " top") if method == "breadcrumbs" else ("",)
            for m in cuts:
                labels = [part.split(" keep ")[0] for part in m.split(": top-k cut done: ")[1].split("; ")]
                assert labels == [f"{source}{end}" for source in ("ml", "mm") for end in ends]
                assert all(" threshold " in part and part.endswith(" ties admitted") for part in m.split("; "))
        info = [r for r in caplog.records if r.levelno == logging.INFO and r.name == "dimerge.merge"]
        assert len(info) == len(merged)

    def test_dare_deterministic_across_workers(self):
        base, ml, anchor = make_triple(seed=11)
        cfg = MergeConfig(method="dare", seed=5)
        digests = {
            checkpoint_digest(merge_and_load(base, ml, anchor, cfg, threads=w)[0])
            for w in (1, 2, 8)
        }
        assert len(digests) == 1

    @pytest.mark.parametrize("output_dtype", ["match_anchor", "f32"])
    @pytest.mark.parametrize("dtype", [DType.F32, DType.F16, DType.BF16, DType.F64])
    def test_anchor_overlap_embeds_subblock(self, dtype, output_dtype):
        name = "model.embed_tokens.weight"
        base, ml, anchor = make_triple(seed=2, dtype=dtype)
        wider = []
        for rec in anchor.tensors.values():
            if rec.name == name:
                arr = rec.to_f64()
                extra = np.full((2, arr.shape[1]), 7.0)
                rec = TensorRecord.from_array(name, np.vstack([arr, extra]), dtype=dtype)
            wider.append(rec)
        anchor_wide = Checkpoint.from_records(wider)
        cfg = MergeConfig(shape_policy="anchor-overlap", output_dtype=output_dtype)
        out_dtype = dtype if output_dtype == "match_anchor" else DType.F32
        merged, _ = merge_and_load(base, ml, anchor_wide, cfg)
        out = merged[name]
        assert out.dtype is out_dtype
        assert out.shape == anchor_wide[name].shape
        # the anchor's extra rows are the anchor's own, re-encoded in the output dtype
        np.testing.assert_array_equal(out.bits()[-2:], recode_bits(anchor_wide[name].bits()[-2:], dtype, out_dtype))
        # the merged block is the merge of the un-widened triple
        full, _ = merge_and_load(base, ml, anchor, cfg)
        np.testing.assert_array_equal(out.bits()[:-2], full[name].bits())

    def test_report_schema(self):
        base, ml, anchor = make_triple(seed=4)
        embed = "model.embed_tokens.weight"
        rng = np.random.default_rng(4)

        def with_extras(ckpt, widen=False, drop=()):
            records = [rec for rec in ckpt.tensors.values() if rec.name not in drop]
            records += [TensorRecord.from_array("model.scale", rng.normal(size=()).astype(np.float32)),
                        TensorRecord.from_array("model.cube", rng.normal(size=(2, 2, 2)).astype(np.float32))]
            if widen:
                records = [TensorRecord.from_array(embed, np.vstack([rec.to_f32(), np.ones((2, 4), dtype=np.float32)]))
                           if rec.name == embed else rec for rec in records]
            return Checkpoint.from_records(records)

        cfg = MergeConfig(scope=ScopeFilter(exclude=("*.layers.1.*",)), shape_policy="anchor-overlap",
                          high_rank="pass_through")
        _, report = merge_and_load(with_extras(base), with_extras(ml, drop=("model.norm.weight",)),
                                     with_extras(anchor, widen=True), cfg)
        report = json.loads(json.dumps(report.to_dict()))

        assert list(report) == ["summary", "config", "alignment", "tensors"]
        assert report["config"] == cfg.to_dict()
        assert list(report["alignment"]) == [
            "aligned", "pass_through", "shape_mismatches", "extra_in_base", "extra_in_ml",
        ]
        [mismatch] = report["alignment"]["shape_mismatches"]
        assert mismatch == {"name": embed, "base_shape": [11, 4], "ml_shape": [11, 4],
                            "anchor_shape": [13, 4], "overlap_shape": [11, 4]}

        # every anchor tensor appears exactly once, merged or passed through with a known reason
        entries = report["tensors"]
        assert sorted(t["name"] for t in entries) == sorted(anchor.names() + ["model.cube", "model.scale"])
        reasons = {t["name"]: t.get("reason") for t in entries}
        assert {t["action"] for t in entries} == {"merged", "pass_through"}
        assert all((t["action"] == "merged") == (reasons[t["name"]] is None) for t in entries)
        assert set(reasons.values()) == {
            None, "anchor_only", "missing_from_ml", "high_rank", "out_of_scope", "scalar",
        }
        # alignment's reasons are the entries' own; scope and scalars are the merge's
        decided = report["alignment"]["pass_through"]
        assert decided == {name: reasons[name] for name in decided}
        assert decided["model.norm.weight"] == "missing_from_ml"
        assert decided["model.cube"] == "high_rank"
        assert not {n for n, r in reasons.items() if r in ("out_of_scope", "scalar")} & set(decided)
        merged = [t for t in entries if t["action"] == "merged"]
        assert report["summary"]["merged_count"] == len(merged)
        assert report["summary"]["pass_through_count"] == len(entries) - len(merged)

    def test_report_statistics(self, triple_f32):
        base, ml, anchor = triple_f32
        _, report = merge_and_load(base, ml, anchor, MergeConfig())
        assert report.summary.merged_count + report.summary.pass_through_count == len(anchor)
        lo, hi = reference.logistic(-1.0), reference.logistic(1.0)
        assert lo <= report.summary.mean_omega_ml <= hi
        merged_entries = [t for t in report.tensors if t.action == "merged"]
        assert all(t.omega_ml_min >= lo and t.omega_ml_max <= hi for t in merged_entries)


def _anchor_like(backbone: Checkpoint, anchor: Checkpoint) -> Checkpoint:
    """Anchor whose backbone equals ``backbone`` but keeps anchor-only keys."""
    records = []
    for name, rec in anchor.tensors.items():
        records.append(backbone[name] if name in backbone else rec)
    return Checkpoint.from_records(records)


_DIGEST_CACHE = {}


def _fixture_digest() -> str:
    if "d" not in _DIGEST_CACHE:
        base, ml, anchor = make_triple(seed=11)
        merged, _ = merge_and_load(base, ml, anchor, MergeConfig(), threads=1)
        _DIGEST_CACHE["d"] = checkpoint_digest(merged)
    return _DIGEST_CACHE["d"]
