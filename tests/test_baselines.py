import numpy as np
import pytest

import dimerge.merge as merge_module
from dimerge.baselines import BaselineParams, unit_uniforms
from dimerge.errors import ConfigError
from dimerge.geometry import TILE_ROWS
from dimerge.merge import MergeConfig, merge_tensor
from dimerge.records import DType, TensorRecord

from conftest import merge_and_load

from test_merge import triple_of
import reference

TASK_ARITHMETIC = MergeConfig(method="task_arithmetic")
TIES_FULL_DENSITY = MergeConfig(method="ties", baseline=BaselineParams(ties_density=1.0))


def record_of(values, name="d"):
    return TensorRecord.from_array(name, np.asarray(values, dtype=np.float32))


def f32(values):
    return np.asarray(values, dtype=np.float32)


def merged_residual(delta, method, seed=0, name="d", **params):
    """One residual through ``merge_tensor`` alone: a zero base and a zero
    second residual, so the output is the method's transform of ``delta``."""
    zeros = np.zeros_like(f32(delta))
    cfg = MergeConfig(method=method, seed=seed, baseline=BaselineParams(**params))
    return merge_tensor(triple_of(zeros, delta, zeros, name=name), cfg).to_f32()


def dare(delta, p, seed=0, name="d"):
    return merged_residual(delta, "dare", seed, name, dare_drop_p=p)


def breadcrumbs(delta, beta, gamma):
    return merged_residual(delta, "breadcrumbs", breadcrumbs_beta=beta, breadcrumbs_gamma=gamma)


class TestTaskArithmetic:
    def test_zero_residuals(self, rng):
        W = rng.normal(size=(3, 3)).astype(np.float32)
        out = merge_tensor(triple_of(W, W, W), TASK_ARITHMETIC)
        np.testing.assert_array_equal(out.to_f32(), W)

    def test_scalar_sum(self):
        out = merge_tensor(triple_of([0.0], [1.0], [2.0]), TASK_ARITHMETIC)
        np.testing.assert_array_equal(out.to_f32(), [3.0])

    def test_lambda_zero_is_base(self, rng):
        W = rng.normal(size=(4, 2)).astype(np.float32)
        ml = W + rng.normal(size=(4, 2)).astype(np.float32)
        cfg = MergeConfig(method="task_arithmetic", baseline=BaselineParams(lam=0.0))
        out = merge_tensor(triple_of(W, ml, W), cfg)
        np.testing.assert_array_equal(out.to_f32(), W)


class TestUnitUniforms:
    def test_reproducible(self):
        a = unit_uniforms(7, "model.layers.0.w", 1000)
        b = unit_uniforms(7, "model.layers.0.w", 1000)
        np.testing.assert_array_equal(a, b)

    def test_keyed_by_seed_and_name(self):
        base = unit_uniforms(7, "w", 1000)
        assert not np.array_equal(base, unit_uniforms(8, "w", 1000))
        assert not np.array_equal(base, unit_uniforms(7, "w2", 1000))

    def test_prefix_stability(self):
        # element i depends only on (seed, name, i): a longer stream extends
        # a shorter one
        short = unit_uniforms(3, "w", 100)
        long = unit_uniforms(3, "w", 1000)
        np.testing.assert_array_equal(long[:100], short)

    @pytest.mark.parametrize("seed, name, n, start", [
        (0, "w", 1000, 0), (7, "model.layers.0.mlp.down_proj.weight", 300, 12_345),
        (-1, "ml:t", 64, 0), (2**64 + 5, "", 16, 2**40),
    ])
    def test_matches_reference_bit_for_bit(self, seed, name, n, start):
        got = unit_uniforms(seed, name, n, start)
        assert got.tobytes() == np.array(reference.unit_uniforms(seed, name, n, start)).tobytes()

    def test_roughly_uniform(self):
        u = unit_uniforms(0, "w", 200_000)
        assert np.all(u >= 0.0) and np.all(u < 1.0)
        assert abs(u.mean() - 0.5) < 0.005


class TestDare:
    def test_p_zero_identity(self, rng):
        delta = f32(rng.normal(size=64))
        out = dare(delta, p=0.0, seed=1)
        assert out.tobytes() == delta.tobytes()

    def test_unbiased_at_half(self):
        n = 1_000_000
        out = dare(np.ones(n, dtype=np.float32), p=0.5, seed=3)
        assert 0.99 <= out.mean() <= 1.01

    def test_survivors_rescaled(self, rng):
        delta = f32(rng.normal(size=1000))
        out = dare(delta, p=0.9, seed=0)
        kept = out != 0.0
        np.testing.assert_allclose(out[kept], delta[kept] / 0.1, rtol=1e-6)

    def test_deterministic_for_fixed_key(self):
        delta = np.ones(512, dtype=np.float32)
        a = dare(delta, p=0.5, seed=11, name="x")
        b = dare(delta, p=0.5, seed=11, name="x")
        assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("seed, p", [(0, 0.9), (5, 0.5), (11, 0.3)])
    def test_matches_reference(self, rng, seed, p):
        # both sources are dropped, each by its own source-qualified stream
        base, ml, mm = (f32(rng.normal(size=(12, 5))) for _ in range(3))
        cfg = MergeConfig(method="dare", seed=seed, baseline=BaselineParams(dare_drop_p=p, lam=0.7))
        out = merge_tensor(triple_of(base, ml, mm, name="w"), cfg).to_f32()
        expected = reference.task_arithmetic(base, reference.dare(ml - base, p, seed, "ml:w"),
                                             reference.dare(mm - base, p, seed, "mm:w"), 0.7)
        assert out.tobytes() == expected.tobytes()

    def test_expectation_over_seeds(self, rng):
        # elementwise mean over many independent masks converges to delta
        delta = rng.normal(size=32).astype(np.float32)
        trials = 10_000
        acc = np.zeros(32, dtype=np.float64)
        for seed in range(trials):
            acc += dare(delta, p=0.5, seed=seed)
        mean = acc / trials
        np.testing.assert_allclose(mean, delta, rtol=0.05, atol=0.01)

    def test_p_one_rejected(self):
        with pytest.raises(ConfigError):
            MergeConfig(method="dare", baseline=BaselineParams(dare_drop_p=1.0))

    def test_a_dropped_entry_never_overflows(self):
        """Entries that would overflow float32 once rescaled merge as zeros
        where they are dropped: the drop comes before the rescale."""
        p, n = 0.9, 64
        dropped = unit_uniforms(0, "ml:w", n) < p
        delta = np.where(dropped, np.float32(3e38), np.float32(1.0))
        zeros = np.zeros(n, np.float32)
        out = merge_tensor(triple_of(zeros, delta, zeros, name="w"),
                           MergeConfig(method="dare", baseline=BaselineParams(dare_drop_p=p)))
        assert out.raw == np.where(dropped, np.float32(0.0), np.float32(1.0) / np.float32(1.0 - p)).tobytes()

    @pytest.mark.parametrize("p", [0.1, 0.5, 0.9, 0.999])
    def test_keeps_what_the_uniforms_keep_across_blocks(self, monkeypatch, p):
        """In row blocks of one tile, DARE keeps exactly the entries whose
        uniforms are not below p. The base is -0.0 and both residuals are
        negative, so an entry dropped from both merges to +0.0, as a zeroed
        copy of each residual would."""
        shape = (3 * TILE_ROWS + 5, 7)
        base = np.full(shape, -0.0, np.float32)
        cfg = MergeConfig(method="dare", seed=5, baseline=BaselineParams(dare_drop_p=p))
        monkeypatch.setattr(merge_module, "_block_rows", lambda cols: TILE_ROWS)
        out = merge_tensor(triple_of(base, base - 1.0, base - 2.0, name="w"), cfg)
        kept = [(unit_uniforms(5, source + "w", base.size) >= p).reshape(shape) for source in ("ml:", "mm:")]
        d_ml, d_mm = (np.where(k, np.float32(-d) / np.float32(1.0 - p), np.float32(0.0)) for k, d in zip(kept, (1, 2)))
        assert np.any(kept[0] | kept[1]) and not np.all(kept[0] | kept[1])
        assert out.raw == ((d_ml + d_mm) + base).tobytes()


class TestTies:
    def test_agreeing_coordinate(self):
        out = merge_tensor(triple_of([0.0], [1.0], [1.0]), TIES_FULL_DENSITY)
        np.testing.assert_array_equal(out.to_f32(), [1.0])

    def test_hand_traced_conflict(self):
        # coord 0: kept 1, 1 -> sign +, mean 1; coord 1: kept -2, 1 -> sum -1
        # elects negative, only -2 agrees -> -2
        out = merge_tensor(triple_of([0.0, 0.0], [1.0, -2.0], [1.0, 1.0]), TIES_FULL_DENSITY)
        np.testing.assert_array_equal(out.to_f32(), [1.0, -2.0])

    def test_trim_keeps_top_fraction(self):
        out = merged_residual(f32([3.0, 0.0, 0.0, 0.0]), "ties", ties_density=0.25)
        np.testing.assert_array_equal(out, [3.0, 0.0, 0.0, 0.0])

    def test_zero_sum_elects_positive(self):
        out = merge_tensor(triple_of([0.0], [2.0], [-2.0]), TIES_FULL_DENSITY)
        np.testing.assert_array_equal(out.to_f32(), [2.0])

    def test_full_density_no_conflict_equals_delta_mean(self, rng):
        base = rng.normal(size=(5, 4)).astype(np.float32)
        delta_ml = np.abs(rng.normal(size=(5, 4))).astype(np.float32)
        delta_mm = np.abs(rng.normal(size=(5, 4))).astype(np.float32)
        out = merge_tensor(triple_of(base, base + delta_ml, base + delta_mm), TIES_FULL_DENSITY)
        # same-sign sources average, which matches task arithmetic at half scale
        half = MergeConfig(method="task_arithmetic", baseline=BaselineParams(lam=0.5))
        ta = merge_tensor(triple_of(base, base + delta_ml, base + delta_mm), half)
        np.testing.assert_allclose(out.to_f32(), ta.to_f32(), atol=1e-6)

    def test_tie_at_threshold_prefers_lower_index(self):
        out = merged_residual(f32([1.0, 1.0, 1.0, 1.0]), "ties", ties_density=0.5)
        np.testing.assert_array_equal(out, [1.0, 1.0, 0.0, 0.0])

    def test_invalid_density(self):
        with pytest.raises(ConfigError):
            MergeConfig(method="ties", baseline=BaselineParams(ties_density=0.0))

    def test_trimmed_entries_merge_to_positive_zero(self):
        """The cut keeps row 0 and trims every negative residual from both
        sources, so no entry agrees there: over a -0.0 base each merges to
        +0.0, as a zeroed copy of each residual would, never to -0.0."""
        base = np.full((4, 8), -0.0, np.float32)
        source = np.full((4, 8), -0.25, np.float32)
        source[0] = 4.0
        cfg = MergeConfig(method="ties", baseline=BaselineParams(ties_density=0.25))
        out = merge_tensor(triple_of(base, source, source, name="w", dtype=DType.BF16), cfg)
        bits = np.frombuffer(out.raw, np.uint16).reshape(4, 8)
        assert bits[1:].tolist() == [[0x0000] * 8] * 3


class TestBreadcrumbs:
    def test_identity_at_zero_fractions(self, rng):
        delta = f32(rng.normal(size=32))
        out = breadcrumbs(delta, beta=0.0, gamma=0.0)
        assert out.tobytes() == delta.tobytes()

    def test_quantile_example(self):
        out = breadcrumbs(f32([1.0, 2.0, 3.0, 4.0]), beta=0.25, gamma=0.25)
        np.testing.assert_array_equal(out, [0.0, 2.0, 3.0, 0.0])

    def test_all_equal_tie_break(self):
        out = breadcrumbs(f32([1.0, 1.0, 1.0, 1.0]), beta=0.5, gamma=0.0)
        np.testing.assert_array_equal(out, [0.0, 0.0, 1.0, 1.0])

    def test_bottom_and_top_sets_disjoint_under_ties(self):
        out = breadcrumbs(np.ones(4, dtype=np.float32), beta=0.25, gamma=0.25)
        assert (out == 0.0).sum() == 2

    def test_magnitude_based_not_signed(self):
        out = breadcrumbs(f32([-4.0, 1.0, -2.0, 3.0]), beta=0.25, gamma=0.25)
        np.testing.assert_array_equal(out, [0.0, 0.0, -2.0, 3.0])

    def test_invalid_fractions(self):
        with pytest.raises(ConfigError):
            MergeConfig(method="breadcrumbs", baseline=BaselineParams(breadcrumbs_beta=0.6,
                                                                      breadcrumbs_gamma=0.5))


class TestBaselineAssembly:
    @pytest.mark.parametrize("method", ["task_arithmetic", "dare", "ties", "breadcrumbs"])
    def test_shares_scope_and_passthrough(self, method, triple_f32):
        from dimerge.scope import ScopeFilter

        base, ml, anchor = triple_f32
        cfg = MergeConfig(method=method, scope=ScopeFilter.from_dict("embed_only"),
                          baseline=BaselineParams(dare_drop_p=0.5))
        merged, report = merge_and_load(base, ml, anchor, cfg)
        for name in anchor.names():
            if "embed_tokens" not in name:
                assert merged[name].raw == anchor[name].raw
        assert report.summary.merged_count == 1

    @pytest.mark.parametrize("lam", [np.inf, -np.inf, np.nan])
    def test_lambda_must_be_finite(self, lam):
        """The library's own check: a config cannot spell a non-finite lambda."""
        with pytest.raises(ConfigError, match="lambda must be finite"):
            BaselineParams(lam=lam)

    def test_params_validated(self):
        with pytest.raises(ConfigError):
            BaselineParams(dare_drop_p=1.0)
        with pytest.raises(ConfigError):
            BaselineParams(ties_density=0.0)
        with pytest.raises(ConfigError):
            BaselineParams(breadcrumbs_beta=0.7, breadcrumbs_gamma=0.4)
