import hashlib

import numpy as np
import pytest

from dimerge.align import AlignedTriple
from dimerge.errors import ConfigError, NumericError
from dimerge.merge import MERGE_METHODS, MergeConfig, merge_checkpoint, merge_tensor
from dimerge.records import DType, TensorRecord
from dimerge.salience import AggregationKind, EstimatorKind
from dimerge.scope import ScopeFilter
from dimerge.store import Checkpoint

from conftest import make_triple
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
        with pytest.raises(NumericError):
            merge_tensor(triple_of(base, ml, base), MergeConfig(method=method))


class TestConfig:
    def test_unknown_method_rejected(self):
        with pytest.raises(ConfigError):
            MergeConfig(method="soup").validate()

    def test_baseline_params_only_for_baselines(self):
        from dimerge.baselines import BaselineParams

        with pytest.raises(ConfigError):
            MergeConfig(method="dim3", baseline=BaselineParams()).validate()
        cfg = MergeConfig(method="dare").validate()
        assert cfg.baseline is not None

    def test_round_trips_through_dict(self):
        cfg = MergeConfig(
            method="dim3",
            estimator=EstimatorKind.ZSCORE,
            aggregation=AggregationKind.dir_weighted(0.6),
            scope=ScopeFilter.layers(0, 0),
            seed=9,
        ).validate()
        again = MergeConfig.from_dict(cfg.to_dict())
        assert again.to_dict() == cfg.to_dict()


class TestMergeCheckpoint:
    def test_zero_residuals_full_scope_reproduces_anchor(self):
        base, _, anchor = make_triple(seed=3)
        merged, report = merge_checkpoint(base, base, _anchor_like(base, anchor), MergeConfig())
        target = _anchor_like(base, anchor)
        assert merged.names() == target.names()
        for name in merged.names():
            assert merged[name].raw == target[name].raw
        assert report.merged_count == len(base)

    def test_empty_scope_is_identity_on_anchor(self, triple_f32):
        base, ml, anchor = triple_f32
        cfg = MergeConfig(scope=ScopeFilter.empty())
        merged, report = merge_checkpoint(base, ml, anchor, cfg)
        assert checkpoint_digest(merged) == checkpoint_digest(anchor)
        assert report.merged_count == 0

    def test_embed_only_scope(self, triple_f32):
        base, ml, anchor = triple_f32
        cfg = MergeConfig(scope=ScopeFilter.embed_only())
        merged, _ = merge_checkpoint(base, ml, anchor, cfg)
        full, _ = merge_checkpoint(base, ml, anchor, MergeConfig())
        for name in anchor.names():
            if "embed_tokens" in name:
                assert merged[name].raw == full[name].raw
            else:
                assert merged[name].raw == anchor[name].raw

    def test_layer_range_composition(self, triple_f32):
        # in-range tensors equal the full merge (weights are per-tensor local),
        # everything else equals the anchor
        base, ml, anchor = triple_f32
        cfg = MergeConfig(scope=ScopeFilter.layers(0, 0))
        merged, _ = merge_checkpoint(base, ml, anchor, cfg)
        full, _ = merge_checkpoint(base, ml, anchor, MergeConfig())
        for name in anchor.names():
            if cfg.scope.admits(name):
                assert merged[name].raw == full[name].raw
            else:
                assert merged[name].raw == anchor[name].raw

    def test_vision_and_projector_pass_through(self, triple_f32):
        base, ml, anchor = triple_f32
        merged, report = merge_checkpoint(base, ml, anchor, MergeConfig())
        for name in anchor.names():
            if name.startswith(("vision_tower", "multi_modal_projector")):
                assert merged[name].raw == anchor[name].raw
        entries = {t.name: t for t in report.tensors}
        assert entries["vision_tower.blocks.0.attn.weight"].action == "pass_through"

    @pytest.mark.parametrize("workers", [1, 2, 8])
    def test_deterministic_across_worker_counts(self, workers):
        base, ml, anchor = make_triple(seed=11)
        merged, _ = merge_checkpoint(base, ml, anchor, MergeConfig(), threads=workers)
        assert checkpoint_digest(merged) == _fixture_digest()

    def test_dare_deterministic_across_workers(self):
        base, ml, anchor = make_triple(seed=11)
        cfg = MergeConfig(method="dare", seed=5).validate()
        digests = {
            checkpoint_digest(merge_checkpoint(base, ml, anchor, cfg, threads=w)[0])
            for w in (1, 2, 8)
        }
        assert len(digests) == 1

    def test_anchor_overlap_embeds_subblock(self):
        base, ml, anchor = make_triple(seed=2)
        wider = []
        for name, rec in anchor.tensors.items():
            if name == "model.embed_tokens.weight":
                arr = rec.to_f32()
                extra = np.full((2, arr.shape[1]), 7.0, dtype=np.float32)
                rec = TensorRecord.from_array(name, np.vstack([arr, extra]))
            wider.append(rec)
        anchor_wide = Checkpoint.from_records(wider, role=anchor.role)
        cfg = MergeConfig(shape_policy="anchor-overlap")
        merged, _ = merge_checkpoint(base, ml, anchor_wide, cfg)
        out = merged["model.embed_tokens.weight"].to_f32()
        assert out.shape[0] == anchor_wide["model.embed_tokens.weight"].shape[0]
        np.testing.assert_array_equal(out[-2:], 7.0)  # anchor extra rows untouched
        full, _ = merge_checkpoint(base, ml, anchor, cfg)
        np.testing.assert_array_equal(out[:-2], full["model.embed_tokens.weight"].to_f32())

    def test_report_statistics(self, triple_f32):
        base, ml, anchor = triple_f32
        _, report = merge_checkpoint(base, ml, anchor, MergeConfig())
        assert report.merged_count + report.pass_through_count == len(anchor)
        lo, hi = reference.logistic(-1.0), reference.logistic(1.0)
        assert lo <= report.mean_omega_ml <= hi
        merged_entries = [t for t in report.tensors if t.action == "merged"]
        assert all(t.omega_ml_min >= lo and t.omega_ml_max <= hi for t in merged_entries)


def _anchor_like(backbone: Checkpoint, anchor: Checkpoint) -> Checkpoint:
    """Anchor whose backbone equals ``backbone`` but keeps anchor-only keys."""
    records = []
    for name, rec in anchor.tensors.items():
        records.append(backbone[name] if name in backbone else rec)
    return Checkpoint.from_records(records, role=anchor.role)


_DIGEST_CACHE = {}


def _fixture_digest() -> str:
    if "d" not in _DIGEST_CACHE:
        base, ml, anchor = make_triple(seed=11)
        merged, _ = merge_checkpoint(base, ml, anchor, MergeConfig(), threads=1)
        _DIGEST_CACHE["d"] = checkpoint_digest(merged)
    return _DIGEST_CACHE["d"]
