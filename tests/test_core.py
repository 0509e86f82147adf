import math
import warnings

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
from recipgeo import connection, flows, hessian, infogeo
from recipgeo.core import S_MAX, S_at, alpha_dot, cost, cost_from_S, cost_ratio_rows
from recipgeo.errors import (
    DimensionMismatch,
    NonPositiveCoordinate,
    Overflow,
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

    def test_rejects_overflowing_norm(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(Overflow):
                WeightVector(np.array([1e200, 1e200]))

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

    @pytest.mark.parametrize("S", [1e-10, 1e-8, 1e-6, 1e-4, -1e-10, -1e-8, -1e-6, -1e-4])
    def test_no_cancellation_near_zero_cost(self, S):
        # J = cosh S - 1 against its series S^2/2 + S^4/24 next to the R = 1 leaf
        J = cost_log(ChartPoint(Chart.LOG, np.array([S])), WeightVector(np.array([1.0]))).J
        series = S * S / 2.0 + S**4 / 24.0
        assert abs(J - series) <= 1e-15 * series

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


class TestCostRows:
    """The row form of the ratio-chart cost against one cost_ratio call per
    row: equal bit for bit, and the same errors."""

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_rows_match_points(self, n, rng):
        w = WeightVector(rng.uniform(-2.0, 2.0, n))
        x = np.exp(rng.uniform(-40.0, 40.0, (300, n)) * rng.uniform(0.0, 1.0, (300, 1)))
        rows = cost_ratio_rows(x, w)
        points = np.array([cost_ratio(ChartPoint(Chart.RATIO, row), w).J for row in x])
        assert rows.shape == (300,)
        np.testing.assert_array_equal(rows.view(np.int64), points.view(np.int64))

    def test_rows_match_points_near_zero_cost(self):
        w = WeightVector(np.array([1.0, -0.5]))
        S = np.array([1e-10, 1e-8, 1e-6, 1e-4, -1e-10, -1e-8, -1e-6, -1e-4])
        x = np.exp(np.stack([S + 0.3, np.full_like(S, 0.6)], axis=1))  # alpha . log x near S
        rows = cost_ratio_rows(x, w)
        points = np.array([cost_ratio(ChartPoint(Chart.RATIO, row), w).J for row in x])
        assert np.all(rows > 0.0)
        np.testing.assert_array_equal(rows.view(np.int64), points.view(np.int64))

    def test_overflow_names_first_row_past_limit(self):
        w = WeightVector(np.array([1.0, 1.0]))
        x = np.exp(np.array([[1.0, 2.0], [360.0, 360.0], [400.0, 400.0]]))
        with pytest.raises(Overflow) as rows_exc:
            cost_ratio_rows(x, w)
        with pytest.raises(Overflow) as point_exc:
            cost_ratio(ChartPoint(Chart.RATIO, x[1]), w)
        assert str(rows_exc.value) == str(point_exc.value)
        assert cost_ratio_rows(x[:1], w)[0] == cost_ratio(ChartPoint(Chart.RATIO, x[0]), w).J

    def test_rejects_bad_rows(self):
        w = WeightVector(np.array([0.5, 0.5]))
        with pytest.raises(NonPositiveCoordinate):
            cost_ratio_rows(np.array([[1.0, 2.0], [0.0, 1.0]]), w)
        with pytest.raises(DimensionMismatch):
            cost_ratio_rows(np.ones((4, 3)), w)


# Every function that reads S = alpha . t (or q = S), as a function of S at
# alpha = (1, 1), t = (S/2, S/2), returning the values that must be finite.
W11 = WeightVector(np.array([1.0, 1.0]))
LOG_AT = lambda S: ChartPoint(Chart.LOG, np.array([0.5 * S, 0.5 * S]))
RATIO_AT = lambda S: ChartPoint(Chart.RATIO, np.exp(np.array([0.5 * S, 0.5 * S])))
READS_S = {
    "S_at": lambda S: S_at(RATIO_AT(S), W11),
    "alpha_dot rows": lambda S: alpha_dot(np.array([[0.0, 0.0], LOG_AT(S).coords]), W11.alpha),
    "cost_from_S": lambda S: cost_from_S(S),
    "cost_log": lambda S: [*vars(cost_log(LOG_AT(S), W11)).values()][:3],
    "cost_ratio": lambda S: [*vars(cost_ratio(RATIO_AT(S), W11)).values()][:3],
    "cost qr": lambda S: cost(ChartPoint(Chart.QR, np.array([S, 0.0])), W11).J,
    "cost_ratio_rows": lambda S: cost_ratio_rows(np.array([[1.0, 1.0], RATIO_AT(S).coords]), W11),
    "hessian_log": lambda S: hessian.hessian_log(LOG_AT(S), W11).array,
    "hessian_ratio": lambda S: hessian.hessian_ratio(RATIO_AT(S), W11).array,
    "decompose": lambda S: np.hstack([*vars(hessian.decompose(RATIO_AT(S), W11)).values()]),
    "det_hessian_ratio": lambda S: hessian.det_hessian_ratio(RATIO_AT(S), W11),
    "singular_locus_value": lambda S: hessian.singular_locus_value(RATIO_AT(S), W11),
    "fisher_info": lambda S: infogeo.fisher_info(LOG_AT(S), W11).array,
    "bregman": lambda S: infogeo.bregman(LOG_AT(S), np.zeros(2), W11),
    "bregman step": lambda S: infogeo.bregman(LOG_AT(0.0), LOG_AT(S).coords, W11),
    "mean_function": lambda S: [infogeo.mean_function(S), infogeo.mean_slope(S)],
    "gradient_field": lambda S: flows.gradient_field(LOG_AT(S).coords, W11, flows.FlowSign.DESCENT),
    "flow_constant": lambda S: flows.flow_constant(S),
    "integrate_flow": lambda S: flows.integrate_flow(LOG_AT(S).coords, W11, flows.FlowSign.ASCENT,
                                                     (0.0, 1.0), samples=4).positions,
    "ricci_q": lambda S: connection.ricci_q(1.0, 1.0, S),
}
# sinh^2 S leaves the double range near S = 355, so cost_rate reads inf below
# the wall; so would sinh 2q inside lc_christoffel_st, which is walled at
# 2|q| <= S_MAX
PAST_ONLY = {
    "cost_rate": lambda S: flows.cost_rate(LOG_AT(S).coords, W11, flows.FlowSign.DESCENT),
    "lc_christoffel_st": lambda S: connection.lc_christoffel_st(1.0, 1.0, 0.5 * S, 0.5 * S).array,
}


class TestOverflowWall:
    @pytest.mark.parametrize("name", [*READS_S, *PAST_ONLY])
    def test_overflow_past_s_max(self, name):
        fn = {**READS_S, **PAST_ONLY}[name]
        for S in (S_MAX + 0.5, -S_MAX - 0.5):
            with pytest.raises(Overflow):
                fn(S)

    @pytest.mark.parametrize("name", list(READS_S))
    def test_finite_below_s_max(self, name):
        # S > 0 only: at S < 0 the ratio-chart Hessian entries cosh S / (x_i x_j)
        # themselves pass the double range, whatever the wall
        assert np.all(np.isfinite(np.asarray(READS_S[name](S_MAX - 0.5), dtype=float)))


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
