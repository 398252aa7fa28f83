import numpy as np
import pytest

from dimerge.baselines import (
    BaselineParams,
    breadcrumbs_values,
    dare_values,
    ties_merge_values,
    unit_uniforms,
)
from dimerge.errors import ConfigError
from dimerge.merge import MergeConfig, merge_tensor
from dimerge.records import TensorRecord

from conftest import merge_and_load

from test_merge import triple_of

TASK_ARITHMETIC = MergeConfig(method="task_arithmetic")
TIES_FULL_DENSITY = MergeConfig(method="ties", baseline=BaselineParams(ties_density=1.0))


def record_of(values, name="d"):
    return TensorRecord.from_array(name, np.asarray(values, dtype=np.float32))


def f32(values):
    return np.asarray(values, dtype=np.float32)


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

    def test_roughly_uniform(self):
        u = unit_uniforms(0, "w", 200_000)
        assert np.all(u >= 0.0) and np.all(u < 1.0)
        assert abs(u.mean() - 0.5) < 0.005


class TestDare:
    def test_p_zero_identity(self, rng):
        delta = f32(rng.normal(size=64))
        out = dare_values(delta, p=0.0, seed=1, tensor_name="d")
        assert out.tobytes() == delta.tobytes()

    def test_unbiased_at_half(self):
        n = 1_000_000
        out = dare_values(np.ones(n, dtype=np.float32), p=0.5, seed=3, tensor_name="d")
        assert 0.99 <= out.mean() <= 1.01

    def test_survivors_rescaled(self, rng):
        delta = f32(rng.normal(size=1000))
        out = dare_values(delta, p=0.9, seed=0, tensor_name="d")
        kept = out != 0.0
        np.testing.assert_allclose(out[kept], delta[kept] / 0.1, rtol=1e-6)

    def test_deterministic_for_fixed_key(self):
        delta = np.ones(512, dtype=np.float32)
        a = dare_values(delta, p=0.5, seed=11, tensor_name="x")
        b = dare_values(delta, p=0.5, seed=11, tensor_name="x")
        assert a.tobytes() == b.tobytes()

    def test_expectation_over_seeds(self, rng):
        # elementwise mean over many independent masks converges to delta
        delta = rng.normal(size=32).astype(np.float32)
        trials = 10_000
        acc = np.zeros(32, dtype=np.float64)
        for seed in range(trials):
            acc += dare_values(delta, p=0.5, seed=seed, tensor_name="d")
        mean = acc / trials
        np.testing.assert_allclose(mean, delta, rtol=0.05, atol=0.01)

    def test_p_one_rejected(self):
        with pytest.raises(ConfigError):
            dare_values(f32([1.0]), p=1.0, seed=0, tensor_name="d")


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
        base = np.zeros(4, dtype=np.float32)
        out = ties_merge_values(base, np.array([3.0, 0.0, 0.0, 0.0], dtype=np.float32),
                                np.zeros(4, dtype=np.float32), density=0.25, lam=1.0)
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
        base = np.zeros(4, dtype=np.float32)
        delta = np.array([1.0, 1.0, 1.0, 1.0], dtype=np.float32)
        out = ties_merge_values(base, delta, np.zeros(4, dtype=np.float32), density=0.5, lam=1.0)
        np.testing.assert_array_equal(out, [1.0, 1.0, 0.0, 0.0])

    def test_invalid_density(self):
        with pytest.raises(ConfigError):
            ties_merge_values(f32([0.0]), f32([1.0]), f32([1.0]), density=0.0, lam=1.0)


class TestBreadcrumbs:
    def test_identity_at_zero_fractions(self, rng):
        delta = f32(rng.normal(size=32))
        out = breadcrumbs_values(delta, beta=0.0, gamma=0.0)
        assert out.tobytes() == delta.tobytes()

    def test_quantile_example(self):
        out = breadcrumbs_values(f32([1.0, 2.0, 3.0, 4.0]), beta=0.25, gamma=0.25)
        np.testing.assert_array_equal(out, [0.0, 2.0, 3.0, 0.0])

    def test_all_equal_tie_break(self):
        out = breadcrumbs_values(f32([1.0, 1.0, 1.0, 1.0]), beta=0.5, gamma=0.0)
        np.testing.assert_array_equal(out, [0.0, 0.0, 1.0, 1.0])

    def test_bottom_and_top_sets_disjoint_under_ties(self):
        out = breadcrumbs_values(np.ones(4, dtype=np.float32), beta=0.25, gamma=0.25)
        assert (out == 0.0).sum() == 2

    def test_magnitude_based_not_signed(self):
        out = breadcrumbs_values(f32([-4.0, 1.0, -2.0, 3.0]), beta=0.25, gamma=0.25)
        np.testing.assert_array_equal(out, [0.0, 0.0, -2.0, 3.0])

    def test_invalid_fractions(self):
        with pytest.raises(ConfigError):
            breadcrumbs_values(f32([1.0]), beta=0.6, gamma=0.5)


class TestBaselineAssembly:
    @pytest.mark.parametrize("method", ["task_arithmetic", "dare", "ties", "breadcrumbs"])
    def test_shares_scope_and_passthrough(self, method, triple_f32):
        from dimerge.scope import ScopeFilter

        base, ml, anchor = triple_f32
        cfg = MergeConfig(method=method, scope=ScopeFilter.embed_only(),
                          baseline=BaselineParams(dare_drop_p=0.5)).validate()
        merged, report = merge_and_load(base, ml, anchor, cfg)
        for name in anchor.names():
            if "embed_tokens" not in name:
                assert merged[name].raw == anchor[name].raw
        assert report.merged_count == 1

    def test_params_validated(self):
        with pytest.raises(ConfigError):
            BaselineParams(dare_drop_p=1.0)
        with pytest.raises(ConfigError):
            BaselineParams(ties_density=0.0)
        with pytest.raises(ConfigError):
            BaselineParams(breadcrumbs_beta=0.7, breadcrumbs_gamma=0.4)
