import numpy as np
import pytest

from dimerge.errors import ConfigError, NumericError, ShapeError
from dimerge.salience import (
    ESTIMATORS,
    AggregationKind,
    aggregate_branches,
    elementwise_salience,
    estimate_salience,
    rank_normalize,
    salience_pair,
)

import reference

ALL_AGGREGATIONS = [
    AggregationKind("average"),
    AggregationKind("dir_weighted", 0.75),
    AggregationKind("mag_weighted", 0.75),
    AggregationKind("mag_only"),
    AggregationKind("dir_only"),
]


class TestRankNormalize:
    def test_strict_ordering(self):
        np.testing.assert_allclose(rank_normalize([0.5, 0.2, 0.9]), [2 / 3, 1 / 3, 1.0])

    def test_tied_pair_averages(self):
        np.testing.assert_allclose(rank_normalize([1.0, 1.0]), [0.75, 0.75])

    def test_all_equal_length_four(self):
        np.testing.assert_allclose(rank_normalize([3.0] * 4), [0.625] * 4)

    def test_empty_rejected(self):
        with pytest.raises(ShapeError):
            rank_normalize(np.array([]))

    def test_non_finite_rejected(self):
        with pytest.raises(NumericError):
            rank_normalize([1.0, np.nan])

    def test_matches_brute_force_counting(self, rng):
        for _ in range(30):
            dev = rng.choice([0.0, 0.1, 0.5, 0.5, 2.0], size=rng.integers(1, 40))
            expected = np.array(reference.average_ranks(list(dev))) / dev.size
            np.testing.assert_allclose(rank_normalize(dev), expected)


class TestSaliencePair:
    def test_symmetry_point(self):
        s_ml, s_mm = salience_pair(1.0, 1.0)
        assert s_ml == 0.5 and s_mm == 0.5

    def test_logistic_oracle_values(self):
        # sigma(0.5) and sigma(-0.75), evaluated with an independent 64-bit
        # logistic, frozen here
        s_ml, _ = salience_pair(1.0, 0.5)
        assert s_ml == pytest.approx(0.6224593312018546, abs=1e-15)
        s_ml, s_mm = salience_pair(0.25, 1.0)
        assert s_ml == pytest.approx(0.3208213008246070, abs=1e-15)
        assert s_mm == pytest.approx(0.6791786991753930, abs=1e-15)

    def test_softmax_sigmoid_identity_grid(self):
        # pairwise softmax equals the logistic of the gap, |gap| up to 50
        a = np.linspace(-25.0, 25.0, 100)
        grid_a, grid_b = np.meshgrid(a, a)
        s_ml, s_mm = salience_pair(grid_a.ravel(), grid_b.ravel())
        for sa, sb, got in zip(grid_a.ravel(), grid_b.ravel(), s_ml):
            want, _ = reference.softmax_pair(sa, sb)
            assert abs(got - want) <= 1e-12
        np.testing.assert_array_equal(s_ml + s_mm, np.ones_like(s_ml))


class TestEstimators:
    @pytest.mark.parametrize("estimator", ESTIMATORS)
    def test_equal_deviations_are_neutral(self, estimator, rng):
        dev = rng.uniform(0.0, 2.0, size=12)
        s_ml, s_mm = estimate_salience(dev, dev.copy(), estimator)
        np.testing.assert_allclose(s_ml, 0.5)
        np.testing.assert_allclose(s_mm, 0.5)

    def test_rank_two_column_example(self):
        # ranks per source: ml -> [1, 0.5], mm -> [0.5, 1]
        s_ml, _ = estimate_salience(np.array([0.9, 0.1]), np.array([0.1, 0.9]), "rank")
        want = reference.logistic(0.5)
        np.testing.assert_allclose(s_ml, [want, 1.0 - want], atol=1e-15)

    def test_ratio_proportional_split(self):
        s_ml, s_mm = estimate_salience(np.array([3.0]), np.array([1.0]), "ratio")
        assert s_ml[0] == 0.75 and s_mm[0] == 0.25

    def test_ratio_zero_sum_guard(self):
        s_ml, _ = estimate_salience(np.zeros(3), np.zeros(3), "ratio")
        np.testing.assert_array_equal(s_ml, [0.5] * 3)

    def test_zscore_degenerate_source(self):
        # constant source standardizes to zeros, so the gate follows only
        # the other source's standardized values
        s_ml, _ = estimate_salience(np.full(3, 0.7), np.array([0.1, 0.2, 0.9]), "zscore")
        assert s_ml[2] < 0.5 < s_ml[0]

    def test_minmax_degenerate_source(self):
        s_ml, _ = estimate_salience(np.full(4, 0.3), np.full(4, 9.0), "minmax")
        np.testing.assert_allclose(s_ml, 0.5)

    @pytest.mark.parametrize("estimator", ESTIMATORS)
    def test_swap_symmetry(self, estimator, rng):
        dev_ml = rng.uniform(0.0, 1.0, size=17)
        dev_mm = rng.uniform(0.0, 1.0, size=17)
        s1 = estimate_salience(dev_ml, dev_mm, estimator)
        s2 = estimate_salience(dev_mm, dev_ml, estimator)
        np.testing.assert_array_equal(s1[0], s2[1])
        np.testing.assert_array_equal(s1[1], s2[0])

    @pytest.mark.parametrize("estimator", ESTIMATORS)
    def test_permutation_equivariance(self, estimator, rng):
        dev_ml = rng.uniform(0.0, 1.0, size=11)
        dev_mm = rng.uniform(0.0, 1.0, size=11)
        perm = rng.permutation(11)
        s_plain = estimate_salience(dev_ml, dev_mm, estimator)
        s_perm = estimate_salience(dev_ml[perm], dev_mm[perm], estimator)
        np.testing.assert_array_equal(s_perm[0], s_plain[0][perm])

    def test_rank_monotone_invariance(self, rng):
        # a strictly increasing transform of one source leaves its ranks,
        # hence all outputs, unchanged
        dev_ml = rng.uniform(0.0, 1.0, size=23)
        dev_mm = rng.uniform(0.0, 1.0, size=23)
        s_plain = estimate_salience(dev_ml, dev_mm, "rank")
        s_trans = estimate_salience(np.exp(3.0 * dev_ml) + 1.0, dev_mm, "rank")
        np.testing.assert_array_equal(s_plain[0], s_trans[0])

    def test_rank_bounds(self, rng):
        d = 32
        s_ml, s_mm = estimate_salience(rng.uniform(size=d), rng.uniform(size=d), "rank")
        lo = reference.logistic(-(d - 1) / d)
        hi = reference.logistic((d - 1) / d)
        for s in (s_ml, s_mm):
            assert np.all(s >= lo) and np.all(s <= hi)

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            estimate_salience(np.zeros(3), np.zeros(4))

    @pytest.mark.parametrize("call", [estimate_salience, elementwise_salience])
    def test_unknown_name_refused(self, call):
        with pytest.raises(ConfigError, match="unknown estimator 'bogus'"):
            call(np.array([1.0, 2.0]), np.array([2.0, 1.0]), "bogus")


class TestAggregation:
    def test_average(self):
        w = aggregate_branches(np.array([0.6]), np.array([0.4]), AggregationKind("average"))
        assert w.omega_ml[0] == pytest.approx(0.5)

    def test_mag_only(self):
        w = aggregate_branches(np.array([0.7]), np.array([0.2]), AggregationKind("mag_only"))
        assert w.omega_ml[0] == 0.7

    def test_dir_weighted(self):
        w = aggregate_branches(np.array([0.4]), np.array([0.8]), AggregationKind("dir_weighted", 0.75))
        assert w.omega_ml[0] == pytest.approx(0.7)

    @pytest.mark.parametrize("agg", ALL_AGGREGATIONS)
    def test_simplex(self, agg, rng):
        s_mag = rng.uniform(0.3, 0.7, size=40)
        s_dir = rng.uniform(0.3, 0.7, size=40)
        w = aggregate_branches(s_mag, s_dir, agg)
        np.testing.assert_array_equal(w.omega_ml + w.omega_mm, np.ones(40))

    def test_branch_shapes_must_match(self):
        with pytest.raises(ShapeError, match="branch shapes differ"):
            aggregate_branches(np.full(3, 0.5), np.full(4, 0.5), AggregationKind("average"))

    def test_out_of_range_scores_rejected(self):
        with pytest.raises(NumericError):
            aggregate_branches(np.array([1.2]), np.array([0.5]), AggregationKind("average"))

    def test_weighted_lambda_validated(self):
        with pytest.raises(ConfigError):
            AggregationKind("dir_weighted", 0.4)
        with pytest.raises(ConfigError):
            AggregationKind("average", 0.75)

    def test_average_minimizes_consensus_objective(self, rng):
        # the branch average beats +-0.05 simplex perturbations for the sum
        # of squared distances to both branch score pairs
        s_mag = rng.uniform(0.3, 0.7, size=25)
        s_dir = rng.uniform(0.3, 0.7, size=25)
        w = aggregate_branches(s_mag, s_dir, AggregationKind("average")).omega_ml

        def objective(omega_ml):
            pairs = np.stack([omega_ml, 1.0 - omega_ml])
            mag = np.stack([s_mag, 1.0 - s_mag])
            direc = np.stack([s_dir, 1.0 - s_dir])
            return np.sum((pairs - mag) ** 2, axis=0) + np.sum((pairs - direc) ** 2, axis=0)

        best = objective(w)
        for delta in (0.05, -0.05):
            perturbed = np.clip(w + delta, 0.0, 1.0)
            moved = perturbed != w
            assert np.all(objective(perturbed)[moved] > best[moved])


class TestElementwise:
    def test_equal_deviations(self):
        w = elementwise_salience(np.array([0.2, 0.2]), np.array([0.2, 0.2]))
        np.testing.assert_array_equal(w.omega_ml, [0.5, 0.5])

    def test_rank_gate_example(self):
        w = elementwise_salience(np.array([5.0, 0.0]), np.array([0.0, 5.0]))
        want = reference.logistic(0.5)
        np.testing.assert_allclose(w.omega_ml, [want, 1.0 - want], atol=1e-15)

    def test_zero_vectors_tie(self):
        w = elementwise_salience(np.zeros(4), np.zeros(4))
        np.testing.assert_array_equal(w.omega_ml, [0.5] * 4)

    def test_single_branch_mirrors(self, rng):
        w = elementwise_salience(rng.uniform(size=6), rng.uniform(size=6))
        np.testing.assert_array_equal(w.s_mag_ml, w.s_dir_ml)
        np.testing.assert_array_equal(w.omega_ml, w.s_mag_ml)
