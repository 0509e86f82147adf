import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recipgeo import (
    Chart,
    ChartPoint,
    WeightVector,
    composition_residual,
    cost_log,
    cost_ratio,
    harmonic_feature_map,
    log_curvature,
    log_to_qr,
    permutation_symmetry_check,
    qr_to_log,
    reciprocal_cost_1d,
    sample_log_points,
    transform,
)
from recipgeo.errors import (
    DimensionMismatch,
    NonPositiveCoordinate,
    UnsupportedChartPair,
    ZeroArgument,
    ZeroWeightVector,
)

from conftest import assert_close


def cosh_minus_one_by_series(x: float) -> float:
    """Independent oracle: truncated Taylor series of cosh - 1."""
    total = 0.0
    term = x * x / 2.0
    k = 1
    while abs(term) > 1e-20:
        total += term
        k += 1
        term *= x * x / ((2 * k - 1) * (2 * k))
    return total


class TestWeightVector:
    def test_canonical(self):
        w = WeightVector.canonical(4)
        assert np.all(w.alpha == 0.25)
        assert w.is_canonical()

    def test_rejects_zero(self):
        with pytest.raises(ZeroWeightVector):
            WeightVector(np.zeros(3))

    def test_rejects_empty(self):
        with pytest.raises(DimensionMismatch):
            WeightVector(np.array([]))

    def test_aliases(self):
        w = WeightVector(np.array([0.3, -0.7]))
        assert w.a == 0.3 and w.b == -0.7
        assert_close(w.total, -0.4)
        assert_close(w.norm_sq, 0.09 + 0.49)


class TestChartPoint:
    def test_ratio_positivity(self):
        with pytest.raises(NonPositiveCoordinate):
            ChartPoint(Chart.RATIO, np.array([1.0, 0.0]))

    def test_qr_needs_two(self):
        with pytest.raises(UnsupportedChartPair):
            ChartPoint(Chart.QR, np.array([1.0, 2.0, 3.0]))


class TestCost:
    def test_unit_point_zero(self):
        x = ChartPoint(Chart.RATIO, np.array([1.0, 1.0]))
        assert cost_ratio(x, WeightVector(np.array([0.5, 0.5]))).J == 0.0

    def test_one_dimensional_value(self):
        x = ChartPoint(Chart.RATIO, np.array([2.0]))
        assert_close(cost_ratio(x, WeightVector(np.array([1.0]))).J, 0.25)

    def test_against_exp_route(self):
        # independent evaluation through S = (1/3) ln 4 + (1/2) ln 2
        w = WeightVector(np.array([1 / 3, 1 / 2]))
        x = ChartPoint(Chart.RATIO, np.array([4.0, 2.0]))
        S = math.log(4.0) / 3.0 + math.log(2.0) / 2.0
        R = math.exp(S)
        expected = 0.5 * (R + 1.0 / R) - 1.0
        assert_close(cost_ratio(x, w).J, expected, 1e-14)
        assert_close(cost_ratio(x, w).R, R, 1e-14)

    def test_log_chart_zero(self):
        w = WeightVector(np.array([0.4, 0.6]))
        assert cost_log(ChartPoint(Chart.LOG, np.zeros(2)), w).J == 0.0

    def test_log_invariant_along_radical(self):
        w = WeightVector(np.array([0.5, 0.5]))
        t = ChartPoint(Chart.LOG, np.array([0.7, -0.2]))
        beta = np.array([0.5, -0.5])  # alpha . beta = 0
        shifted = ChartPoint(Chart.LOG, t.coords + 3.0 * beta)
        assert_close(cost_log(t, w).J, cost_log(shifted, w).J, 1e-14)

    def test_cosh_one_series_oracle(self):
        w = WeightVector(np.array([0.5, 0.5]))
        t = ChartPoint(Chart.LOG, np.array([1.0, 1.0]))
        assert_close(cost_log(t, w).J, cosh_minus_one_by_series(1.0), 1e-14)

    def test_geometric_mean_canonical_only(self):
        x = ChartPoint(Chart.RATIO, np.array([2.0, 8.0]))
        canonical = cost_ratio(x, WeightVector.canonical(2))
        assert_close(canonical.G, 4.0, 1e-14)
        assert cost_ratio(x, WeightVector(np.array([0.3, 0.7]))).G is None

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            cost_ratio(ChartPoint(Chart.RATIO, np.ones(3)), WeightVector(np.array([1.0])))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=5))
    def test_reciprocal_symmetry_and_nonnegativity(self, logs):
        n = len(logs)
        w = WeightVector(np.linspace(0.2, 1.0, n))
        x = ChartPoint(Chart.RATIO, np.exp(np.array(logs)))
        inv = ChartPoint(Chart.RATIO, 1.0 / x.coords)
        J = cost_ratio(x, w).J
        assert J >= 0.0
        assert_close(cost_ratio(inv, w).J, J, 1e-12)

    def test_zero_iff_S_zero(self, rng):
        w = WeightVector(np.array([0.7, -0.4, 0.2]))
        for row in sample_log_points(3, 50, 5):
            s = cost_log(ChartPoint(Chart.LOG, row), w)
            if s.J == 0.0:
                assert abs(s.S) <= 1e-14

    def test_dimensional_reduction(self):
        for x in (0.5, 2.0, 7.3):
            for n in (2, 3, 5):
                point = ChartPoint(Chart.RATIO, np.full(n, x))
                assert_close(
                    cost_ratio(point, WeightVector.canonical(n)).J,
                    reciprocal_cost_1d(x),
                    1e-12,
                )

    def test_chart_consistency(self, rng):
        w = WeightVector(np.array([0.9, -0.3, 0.45]))
        for row in sample_log_points(3, 40, 9):
            x = ChartPoint(Chart.RATIO, np.exp(row))
            t = transform(x, Chart.LOG, w)
            assert_close(cost_log(t, w).J, cost_ratio(x, w).J, 1e-12)


class TestTransform:
    def test_round_trip_log_ratio(self):
        w = WeightVector(np.array([1.0, 2.0]))
        t = ChartPoint(Chart.LOG, np.array([1.0, 2.0]))
        x = transform(t, Chart.RATIO, w)
        assert_close(x.coords[0], math.e, 1e-14)
        assert_close(x.coords[1], math.e**2, 1e-14)
        back = transform(x, Chart.LOG, w)
        np.testing.assert_allclose(back.coords, t.coords, rtol=1e-14)

    def test_qr_origin(self):
        w = WeightVector(np.array([0.4, 0.9]))
        q = transform(ChartPoint(Chart.LOG, np.zeros(2)), Chart.QR, w)
        assert np.all(q.coords == 0.0)

    def test_qr_zero_cost_leaf(self):
        # equal weights put (1, -1) on the q = 0 leaf
        w = WeightVector(np.array([0.7, 0.7]))
        q = transform(ChartPoint(Chart.LOG, np.array([1.0, -1.0])), Chart.QR, w)
        assert_close(q.coords[0], 0.0, 1e-15)

    def test_qr_round_trip_and_norm(self, rng):
        w = WeightVector(np.array([0.8, -0.5]))
        factor = math.sqrt(w.norm_sq)
        for _ in range(25):
            t = ChartPoint(Chart.LOG, rng.uniform(-3, 3, 2))
            q = transform(t, Chart.QR, w)
            assert_close(
                float(np.linalg.norm(q.coords)),
                factor * float(np.linalg.norm(t.coords)),
                1e-12,
            )
            back = transform(q, Chart.LOG, w)
            np.testing.assert_allclose(back.coords, t.coords, rtol=1e-13, atol=1e-15)

    def test_qr_rotation_on_rows(self, rng):
        # the row-array rotation equals transform point by point, both ways
        w = WeightVector(np.array([0.7, -1.3]))
        st = rng.uniform(-2.0, 2.0, (25, 2))
        qr = log_to_qr(st, w.a, w.b)
        assert qr.shape == (25, 2)
        for row, qr_row in zip(st, qr):
            np.testing.assert_array_equal(transform(ChartPoint(Chart.LOG, row), Chart.QR, w).coords, qr_row)
            np.testing.assert_array_equal(transform(ChartPoint(Chart.QR, qr_row), Chart.LOG, w).coords,
                                          qr_to_log(qr_row, w.a, w.b))
        np.testing.assert_allclose(qr_to_log(qr, w.a, w.b), st, rtol=0, atol=1e-15)

    def test_qr_requires_n2(self):
        w = WeightVector(np.ones(3))
        with pytest.raises(UnsupportedChartPair):
            transform(ChartPoint(Chart.LOG, np.zeros(3)), Chart.QR, w)

    def test_ratio_chart_underflow(self):
        w = WeightVector(np.array([1.0]))
        with pytest.raises(NonPositiveCoordinate):
            transform(ChartPoint(Chart.LOG, np.array([-800.0])), Chart.RATIO, w)


class TestCompositionLaw:
    def test_cost_satisfies_law(self):
        assert abs(composition_residual(reciprocal_cost_1d, 2.0, 3.0)) < 1e-12

    def test_unit_point_exact(self):
        assert composition_residual(reciprocal_cost_1d, 1.0, 1.0) == 0.0

    def test_identity_function_fails(self):
        resid = composition_residual(lambda x: x, 2.0, 3.0)
        assert_close(resid, 6.0 + 2.0 / 3.0 - 12.0 - 4.0 - 6.0, 1e-14)

    def test_grid_residual(self):
        for x in np.exp(np.linspace(-1.5, 1.5, 20)):
            for y in np.exp(np.linspace(-1.5, 1.5, 20)):
                assert abs(composition_residual(reciprocal_cost_1d, float(x), float(y))) <= 1e-12

    def test_domain(self):
        with pytest.raises(NonPositiveCoordinate):
            composition_residual(reciprocal_cost_1d, -1.0, 2.0)


class TestLogCurvature:
    def test_small_t_limit(self):
        assert abs(log_curvature(reciprocal_cost_1d, 1e-3) - 1.0) < 1e-6

    def test_at_one(self):
        assert_close(log_curvature(reciprocal_cost_1d, 1.0), 2.0 * cosh_minus_one_by_series(1.0), 1e-12)

    def test_squared_log(self):
        f = lambda x: math.log(x) ** 2
        for t in (0.5, -1.2, 2.0):
            assert_close(log_curvature(f, t), 2.0, 1e-12)

    def test_zero_rejected(self):
        with pytest.raises(ZeroArgument):
            log_curvature(reciprocal_cost_1d, 0.0)


class TestPermutationSymmetry:
    def test_canonical_true(self):
        assert permutation_symmetry_check(WeightVector(np.array([1 / 3] * 3)), samples=40, seed=3)

    def test_opposite_pair_true(self):
        assert permutation_symmetry_check(WeightVector(np.array([0.5, -0.5])), samples=40, seed=3)

    def test_generic_false(self):
        assert not permutation_symmetry_check(WeightVector(np.array([1.0, 2.0, 3.0])), samples=10, seed=3)


class TestHarmonicFeatureMap:
    def test_at_origin(self):
        np.testing.assert_allclose(
            harmonic_feature_map(0.0, 0.0), [1, 0, 1, 0, 1, 0, 1, 0], atol=1e-15
        )

    def test_quarter_period(self):
        np.testing.assert_allclose(
            harmonic_feature_map(math.pi / 2, 0.0), [0, 1, 1, 0, 0, 1, 0, 1], atol=1e-15
        )

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.floats(-10, 10), st.floats(-10, 10))
    def test_pythagorean_pairs(self, r, s):
        phi = harmonic_feature_map(r, s)
        for k in range(4):
            assert_close(phi[2 * k] ** 2 + phi[2 * k + 1] ** 2, 1.0, 1e-12)

    def test_cost_depends_on_single_scalar(self, rng):
        # the embedded cost is cosh(S8) - 1 for the weighted feature sum
        a8 = rng.normal(size=8)
        w = WeightVector(a8 / math.sqrt(8.0))
        r, s = 0.3, -1.1
        phi = ChartPoint(Chart.LOG, harmonic_feature_map(r, s))
        S8 = float(np.dot(a8, harmonic_feature_map(r, s))) / math.sqrt(8.0)
        assert_close(cost_log(phi, w).J, math.cosh(S8) - 1.0, 1e-13)
