import numpy as np
import pytest

from dimerge.errors import NumericError, ShapeError
from dimerge.geometry import EPSILON_DEFAULT, column_deviations, residual_identity_terms

from conftest import one_tensor_row
import reference


def col(*values):
    return np.array(values, dtype=np.float64).reshape(-1, 1)


def deviations(W_k, W_n, epsilon=EPSILON_DEFAULT):
    """(magnitude, direction) deviation of one source from the base."""
    dev = column_deviations(W_n, W_k, W_n, epsilon)
    return dev.mag_ml, dev.dir_ml


class TestDeviations:
    def test_three_four_five_norm(self):
        mag, _ = deviations(col(3.0, 4.0), col(0.0, 0.0))
        assert mag[0] == pytest.approx(5.0)

    def test_uniform_column_norm(self):
        mag, _ = deviations(col(1.0, 1.0, 1.0, 1.0), col(0.0, 0.0, 0.0, 0.0))
        assert mag[0] == pytest.approx(2.0)

    def test_zero_columns_have_zero_gap(self):
        # the cosine guard applies even when both columns are zero
        mag, dirdev = deviations(col(0.0, 0.0), col(0.0, 0.0))
        assert mag[0] == 0.0
        assert dirdev[0] == 1.0

    def test_magnitude_gap(self):
        mag, _ = deviations(col(3.0, 4.0), col(0.0, 3.0))
        np.testing.assert_allclose(mag, [2.0], atol=1e-9)

    def test_identical_gives_zeros(self, rng):
        W = rng.normal(size=(6, 5))
        mag, dirdev = deviations(W, W)
        np.testing.assert_array_equal(mag, np.zeros(5))
        np.testing.assert_allclose(dirdev, np.zeros(5), atol=1e-12)

    def test_columnwise_values(self):
        mag, _ = deviations(np.array([[0.1, 7.0], [0.0, 0.0]]), np.array([[0.4, 7.0], [0.0, 0.0]]))
        np.testing.assert_allclose(mag, [0.3, 0.0], atol=1e-9)

    def test_direction_deviation_extremes(self):
        _, parallel = deviations(col(1.0, 1.0), col(2.0, 2.0))
        assert parallel[0] == pytest.approx(0.0, abs=1e-7)
        _, anti = deviations(col(1.0, 0.0), col(-1.0, 0.0))
        assert anti[0] == pytest.approx(2.0, abs=1e-7)
        _, ortho = deviations(col(1.0, 0.0), col(0.0, 1.0))
        assert ortho[0] == pytest.approx(1.0, abs=1e-7)

    def test_near_zero_column_convention(self):
        _, dirdev = deviations(col(0.0, 0.0), col(1.0, 0.0))
        assert dirdev[0] == 1.0
        _, dirdev = deviations(col(1.0, 0.0), col(1e-9, 0.0))
        assert dirdev[0] == 1.0

    def test_norm_equal_to_epsilon_keeps_its_direction(self):
        """The stabilizer voids a column whose norm is below epsilon, not one
        whose norm equals it."""
        b = np.array([[0.5], [0.0]])
        dev = column_deviations(b, b, 2 * b, 0.5)
        assert dev.dir_ml.tolist() == [0.0] and dev.dir_mm.tolist() == [0.0]

    def test_positive_scaling_invariance(self, rng):
        # direction deviation ignores positive column scaling; magnitude
        # deviation scales as |c*m_k - m_N|
        W_k = rng.normal(size=(8, 6))
        W_n = rng.normal(size=(8, 6))
        _, dd_plain = deviations(W_k, W_n, 1e-12)
        for c in (0.5, 3.0):
            md, dd_scaled = deviations(c * W_k, W_n, 1e-12)
            np.testing.assert_allclose(dd_scaled, dd_plain, atol=1e-9)
            expected = np.abs(c * np.linalg.norm(W_k, axis=0) - np.linalg.norm(W_n, axis=0))
            np.testing.assert_allclose(md, expected, rtol=1e-12)

    def test_matches_reference_with_zero_column(self, rng):
        for _ in range(20):
            base, ml, mm = (rng.normal(size=(9, 7)) for _ in range(3))
            ml[:, int(rng.integers(7))] = 0.0
            base[:, int(rng.integers(7))] = 0.0
            dev = column_deviations(base, ml, mm)
            for j in range(7):
                for W, mag, dirdev in ((ml, dev.mag_ml, dev.dir_ml), (mm, dev.mag_mm, dev.dir_mm)):
                    want_mag = abs(reference.column_norm(W[:, j]) - reference.column_norm(base[:, j]))
                    want_dir = 1.0 - reference.column_cosine(W[:, j], base[:, j])
                    assert mag[j] == pytest.approx(want_mag, rel=1e-12, abs=1e-12)
                    assert dirdev[j] == pytest.approx(want_dir, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            deviations(np.zeros((2, 3)), np.zeros((2, 4)))

    def test_rejects_non_2d(self):
        with pytest.raises(ShapeError):
            deviations(np.zeros(4), np.zeros(4))

    def test_rejects_non_positive_epsilon(self):
        with pytest.raises(NumericError):
            deviations(col(1.0), col(1.0), epsilon=0.0)


class TestCrossAlignment:
    """The cross-residual cosine ``diagnose`` reports, on one-tensor
    checkpoints whose residuals are exact in float32."""

    def test_equal_residuals(self):
        d = col(1.0, 2.0)
        assert one_tensor_row(0 * d, d, d).cross_cos == pytest.approx(1.0, abs=1e-12)

    def test_opposed_residuals(self):
        d = col(1.0, 2.0)
        assert one_tensor_row(0 * d, d, -d).cross_cos == pytest.approx(-1.0, abs=1e-12)

    def test_zero_residual_convention(self):
        base = col(0.5, 0.25)
        assert one_tensor_row(base, base, base + col(1.0, 0.0)).cross_cos == 0.0
        np.testing.assert_array_equal(reference.cross_alignment(col(0.0, 0.0), col(1.0, 0.0)), [0.0])

    def test_symmetry_and_scale_invariance(self, rng):
        base = rng.normal(size=(10, 7))
        a = rng.normal(size=(10, 7))
        b = rng.normal(size=(10, 7))
        assert one_tensor_row(base, a, b).cross_cos == one_tensor_row(base, b, a).cross_cos
        # power-of-two column scales keep the float32 residuals exact
        scales = 2.0 ** rng.integers(-3, 4, size=7)
        zero = np.zeros((10, 7))
        assert one_tensor_row(zero, a * scales, b).cross_cos == pytest.approx(
            one_tensor_row(zero, a, b).cross_cos, abs=1e-12)

    def test_range(self, rng):
        a = rng.normal(size=(4, 50)).astype(np.float32)
        b = rng.normal(size=(4, 50)).astype(np.float32)
        cos = reference.cross_alignment(a, b)
        assert np.all(cos >= -1.0) and np.all(cos <= 1.0)
        row = one_tensor_row(np.zeros((4, 50)), a, b)
        assert -1.0 <= row.cross_cos <= 1.0
        assert row.cross_cos == pytest.approx(cos.mean(), abs=1e-12)


class TestResidualIdentity:
    def test_equal_columns(self):
        lhs, rhs = residual_identity_terms(np.array([3.0, 4.0]), np.array([3.0, 4.0]))
        assert lhs == 0.0 and rhs == pytest.approx(0.0, abs=1e-15)

    def test_hand_example(self):
        # u=[0,2], v=[1,0]: direct distance 5; norm gap (2-1)^2 plus
        # angular 2*2*1*(1-0) gives 1+4=5
        lhs, rhs = residual_identity_terms(np.array([0.0, 2.0]), np.array([1.0, 0.0]))
        assert lhs == pytest.approx(5.0, abs=1e-12)
        assert rhs == pytest.approx(5.0, abs=1e-12)

    def test_unequal_lengths_rejected(self):
        with pytest.raises(ShapeError, match="expected equal-length vectors"):
            residual_identity_terms(np.ones(3), np.ones(4))

    def test_zero_column_exactness(self):
        lhs, rhs = residual_identity_terms(np.zeros(3), np.array([1.0, 2.0, 2.0]))
        assert lhs == pytest.approx(9.0)
        assert rhs == pytest.approx(9.0)

    def test_randomized_identity_f64(self, rng):
        worst = 0.0
        for _ in range(1000):
            d = int(rng.integers(4, 513))
            u = rng.normal(size=d)
            v = rng.normal(size=d)
            lhs, rhs = residual_identity_terms(u, v)
            worst = max(worst, abs(lhs - rhs) / (1.0 + abs(lhs)))
        assert worst < 1e-10

    def test_matches_independent_recomputation(self, rng):
        for _ in range(50):
            u = rng.normal(size=16)
            v = rng.normal(size=16)
            lhs, rhs = residual_identity_terms(u, v)
            ref_lhs, ref_rhs = reference.residual_terms(u, v)
            assert lhs == pytest.approx(ref_lhs, rel=1e-12)
            assert rhs == pytest.approx(ref_rhs, rel=1e-12)


class TestTensorStats:
    """Per-tensor residual statistics: ``diagnose`` on one-tensor checkpoints."""

    def test_all_equal(self, rng):
        W = rng.normal(size=(5, 4)) + 1.0
        row = one_tensor_row(W, W, W)
        assert row.norm_ml == 0.0
        assert row.norm_mm == 0.0
        assert row.dirdev_ml == pytest.approx(0.0, abs=1e-6)
        assert row.cross_cos == 0.0  # zero residual columns report 0

    def test_one_sided_residual(self, rng):
        W = rng.normal(size=(4, 4))
        row = one_tensor_row(W, W + 0.1 * np.eye(4), W)
        assert row.norm_mm == 0.0
        assert row.norm_ml == pytest.approx(0.2, rel=1e-5)

    def test_matches_brute_force_on_4x4(self, rng):
        base = rng.normal(size=(4, 4)).astype(np.float32)
        ml = (base + 0.2 * rng.normal(size=(4, 4))).astype(np.float32)
        mm = (base + 0.2 * rng.normal(size=(4, 4))).astype(np.float32)
        row = one_tensor_row(base, ml, mm, epsilon=1e-8)

        b64, l64, m64 = base.astype(np.float64), ml.astype(np.float64), mm.astype(np.float64)
        exp_norm_ml = np.linalg.norm(l64 - b64)
        exp_norm_mm = np.linalg.norm(m64 - b64)
        dd_ml = np.mean([1.0 - reference.column_cosine(l64[:, j], b64[:, j]) for j in range(4)])
        dd_mm = np.mean([1.0 - reference.column_cosine(m64[:, j], b64[:, j]) for j in range(4)])
        cross = np.mean([
            reference.column_cosine((l64 - b64)[:, j], (m64 - b64)[:, j]) for j in range(4)
        ])
        assert row.norm_ml == pytest.approx(exp_norm_ml, rel=1e-6)
        assert row.norm_mm == pytest.approx(exp_norm_mm, rel=1e-6)
        assert row.dirdev_ml == pytest.approx(dd_ml, abs=1e-6)
        assert row.dirdev_mm == pytest.approx(dd_mm, abs=1e-6)
        assert row.cross_cos == pytest.approx(cross, abs=1e-6)

    def test_rejects_non_finite(self):
        with pytest.raises(NumericError, match="^t: multilingual"):
            one_tensor_row([[1.0], [2.0]], [[np.inf], [2.0]], [[1.0], [2.0]])

    def test_1d_reports_without_direction_fields(self):
        row = one_tensor_row([1.0, 2.0], [1.5, 2.0], [1.0, 2.5])
        assert row.dirdev_ml is None and row.dirdev_mm is None and row.cross_cos is None
        assert row.norm_ml == pytest.approx(0.5)
        assert row.norm_mm == pytest.approx(0.5)
