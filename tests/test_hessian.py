import math
import warnings

import numpy as np
import pytest

from recipgeo import (
    Chart,
    ChartPoint,
    SymMatrix,
    WeightVector,
    cost_log,
    cost_ratio,
    decompose,
    det_hessian_ratio,
    fd_hessian,
    hessian_log,
    hessian_ratio,
    pullback,
    radical_basis,
    rank,
    singular_S,
    singular_locus_value,
)
from recipgeo import fisher_info
from recipgeo.errors import DomainViolation, Overflow, ZeroCostPoint
from recipgeo.hessian import DET_ZERO_COST_S, det_direct, rank_one

from conftest import POINT_KINDS, assert_close, assert_matrix_close, bits, draw_point


class TestSymMatrix:
    def test_packing_round_trip(self, rng):
        for n in (1, 2, 3, 5):
            dense = rng.normal(size=(n, n))
            dense = dense + dense.T
            m = SymMatrix(dense)
            np.testing.assert_allclose(m.to_dense(), dense, atol=1e-15)
            assert m.array[0, n - 1] == m.array[n - 1, 0]

    def test_identity_rank(self):
        assert rank(SymMatrix(np.eye(3))) == 3

    def test_zero_rank(self):
        assert rank(SymMatrix(np.zeros((2, 2)))) == 0


class TestHessianLog:
    def test_outer_product_at_origin(self):
        w = WeightVector(np.array([0.3, -0.8]))
        m = hessian_log(ChartPoint(Chart.LOG, np.zeros(2)), w)
        assert_matrix_close(m.to_dense(), np.outer(w.alpha, w.alpha), 1e-15)

    def test_action_on_alpha(self, rng):
        w = WeightVector(np.array([0.4, 1.1, -0.6]))
        t = ChartPoint(Chart.LOG, rng.uniform(-2, 2, 3))
        m = hessian_log(t, w)
        S = cost_log(t, w).S
        expected = math.cosh(S) * w.norm_sq * w.alpha
        np.testing.assert_allclose(m.array @ w.alpha, expected, rtol=1e-13)

    def test_axis_weight(self):
        w = WeightVector(np.array([1.0, 0.0, 0.0]))
        m = hessian_log(ChartPoint(Chart.LOG, np.zeros(3)), w)
        expected = np.zeros((3, 3))
        expected[0, 0] = 1.0
        assert_matrix_close(m.to_dense(), expected, 1e-15)

    def test_rank_one_decided_at_its_largest_entry(self, rng):
        # c * max alpha_i^2 is finite exactly when every entry of c alpha alpha^T is
        for n in (1, 2, 3, 8):
            for _ in range(200):
                w = WeightVector(rng.uniform(-1.0, 1.0, n) * 10.0 ** rng.uniform(100.0, 154.0, n))
                c = float(np.nextafter(np.finfo(float).max / w.peak_sq, math.inf) * rng.uniform(0.999999, 1.000001))
                with np.errstate(over="ignore"):
                    dense = c * (w.alpha[:, None] * w.alpha)
                if np.all(np.isfinite(dense)):
                    assert bits(rank_one(c, w, "m").array) == bits(dense)
                else:
                    with pytest.raises(Overflow):
                        rank_one(c, w, "m")

    def test_rank_one_everywhere(self, rng):
        for n in (2, 3, 5):
            for _ in range(50):
                w = WeightVector(rng.uniform(-2, 2, n) + 0.1)
                t = ChartPoint(Chart.LOG, rng.uniform(-3, 3, n))
                assert rank(hessian_log(t, w), 1e-10) == 1

    def test_quadratic_form(self, rng):
        w = WeightVector(np.array([0.7, -0.2, 0.5]))
        for _ in range(30):
            t = ChartPoint(Chart.LOG, rng.uniform(-3, 3, 3))
            v = rng.normal(size=3)
            S = cost_log(t, w).S
            expected = math.cosh(S) * float(np.dot(w.alpha, v)) ** 2
            got = float(v @ hessian_log(t, w).to_dense() @ v)
            assert_close(got, expected, 1e-12)


class TestHessianRatio:
    def test_unit_point(self):
        w = WeightVector(np.array([0.3, -0.8]))
        m = hessian_ratio(ChartPoint(Chart.RATIO, np.ones(2)), w)
        assert_matrix_close(m.to_dense(), np.outer(w.alpha, w.alpha), 1e-15)

    def test_zero_cost_surface_rank_one(self):
        # y = x^{-a/b} with a = b = 1/2 at x = 4: oracle Hessian is rank one
        a = b = 0.5
        x = 4.0
        y = x ** (-a / b)
        w = WeightVector(np.array([a, b]))
        point = ChartPoint(Chart.RATIO, np.array([x, y]))
        oracle = fd_hessian(lambda p: cost_ratio(p, w).J, point)
        assert rank(oracle, 1e-6) == 1
        assert rank(hessian_ratio(point, w), 1e-10) == 1

    def test_one_dimensional_second_derivative(self):
        w = WeightVector(np.array([1.0]))
        m = hessian_ratio(ChartPoint(Chart.RATIO, np.array([2.0])), w)
        assert_close(m.array[0, 0], 0.125, 1e-14)  # d2/dx2 of (x + 1/x)/2 - 1 = x^-3

    def test_matches_fd_oracle(self, rng):
        for n in (1, 2, 3, 5):
            for _ in range(25):
                w = WeightVector(rng.uniform(0.2, 1.5, n) * np.where(rng.uniform(size=n) < 0.5, -1, 1))
                x = ChartPoint(Chart.RATIO, np.exp(rng.uniform(-1.5, 1.5, n)))
                exact = hessian_ratio(x, w)
                oracle = fd_hessian(lambda p: cost_ratio(p, w).J, x)
                assert_matrix_close(oracle.to_dense(), exact.to_dense(), 1e-6)

    @pytest.mark.parametrize("coords", [[1e-200, 1e-200], [1e200, 1e200], [math.exp(-350.5), 1.0]])
    def test_coordinate_wall(self, coords):
        # S = 0 or S = -350.5 inside its wall, 2|log x_i| > S_MAX: x_i^2 leaves the double range
        w = WeightVector(np.array([1.0, -1.0]))
        x = ChartPoint(Chart.RATIO, np.array(coords))
        for form in (hessian_ratio, decompose, det_hessian_ratio):
            with pytest.raises(Overflow):
                form(x, w)

    def test_past_the_double_range_inside_both_walls(self):
        # S = 661.1 and 2|log x_i| = 695.9: R / x_2^2 and a_scale alpha_2 / x_2^2
        # leave the double range, while the split itself stays finite
        w = WeightVector(np.array([2.0, 0.1]))
        x = ChartPoint(Chart.RATIO, np.array([1.3e151, 7.6e-152]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for form in (hessian_ratio, det_hessian_ratio):
                with pytest.raises(Overflow):
                    form(x, w)
            d = decompose(x, w)
        assert np.all(np.isfinite(d.u)) and np.all(np.isfinite(d.diag))

    def test_finite_inside_the_coordinate_wall(self):
        w = WeightVector(np.array([1.0, -1.0]))
        x = ChartPoint(Chart.RATIO, np.array([math.exp(-349.5), math.exp(-349.5)]))
        assert np.all(np.isfinite(hessian_ratio(x, w).array))


class TestDecomposition:
    def test_unit_point_fields(self):
        w = WeightVector(np.array([0.3, -0.8]))
        d = decompose(ChartPoint(Chart.RATIO, np.ones(2)), w)
        np.testing.assert_allclose(d.u, w.alpha)
        assert d.beta == 1.0
        assert d.a_scale == 0.0

    def test_reconstruction(self, rng):
        for _ in range(30):
            n = int(rng.integers(1, 5))
            w = WeightVector(rng.uniform(0.2, 1.5, n))
            x = ChartPoint(Chart.RATIO, np.exp(rng.uniform(-2, 2, n)))
            d = decompose(x, w)
            rebuilt = d.a_scale * np.diag(d.diag) + d.beta * np.outer(d.u, d.u)
            assert_matrix_close(rebuilt, hessian_ratio(x, w).to_dense(), 1e-12)


class TestDeterminant:
    def test_printed_value(self):
        w = WeightVector(np.array([1.0, 1.0]))
        x = ChartPoint(Chart.RATIO, np.array([2.0, 1.0]))
        assert_close(det_hessian_ratio(x, w), -21.0 / 64.0, 1e-12)
        # independent route: determinant of the finite-difference Hessian
        oracle = fd_hessian(lambda p: cost_ratio(p, w).J, x)
        assert_close(np.linalg.det(oracle.array), -21.0 / 64.0, 1e-5)

    def test_zero_on_zero_cost(self, rng):
        for n in (2, 3):
            w = WeightVector(rng.uniform(0.2, 1.0, n))
            t0 = rng.uniform(-2, 2, n)
            t0 -= (np.dot(w.alpha, t0) / w.norm_sq) * w.alpha
            x = ChartPoint(Chart.RATIO, np.exp(t0))
            scale = max(1.0, float(np.max(np.abs(hessian_ratio(x, w).to_dense()))))
            assert abs(det_hessian_ratio(x, w)) <= 1e-10 * scale**n

    def test_lemma_matches_direct(self, rng):
        for _ in range(40):
            n = int(rng.integers(1, 6))
            w = WeightVector(rng.uniform(0.2, 1.5, n) * np.where(rng.uniform(size=n) < 0.5, -1, 1))
            x = ChartPoint(Chart.RATIO, np.exp(rng.uniform(-2, 2, n)))
            assert_close(det_hessian_ratio(x, w), np.linalg.det(hessian_ratio(x, w).array), 1e-10)

    def test_zero_weight_component_falls_back(self):
        w = WeightVector(np.array([1.0, 0.0]))
        x = ChartPoint(Chart.RATIO, np.array([2.0, 3.0]))
        assert_close(det_hessian_ratio(x, w), np.linalg.det(hessian_ratio(x, w).array), 1e-14)

    def test_underflowing_diagonal_part_overflows(self):
        # alpha_1 / x_1^2 underflows to 0: det(A) = 0 and 1 / A_11 = inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(Overflow):
                det_hessian_ratio(ChartPoint(Chart.RATIO, np.array([1e10, 2.0])), WeightVector(np.array([1e-310, 1.0])))

    def test_one_dimensional(self):
        w = WeightVector(np.array([1.0]))
        assert_close(det_hessian_ratio(ChartPoint(Chart.RATIO, np.array([2.0])), w), 0.125, 1e-14)

    def test_direct_determinant_keeps_the_bits_of_lu(self, rng):
        for n in (1, 2, 3, 5, 8):
            for _ in range(10):
                m = rng.normal(size=(n, n))
                m = SymMatrix(m + m.T)
                assert bits([det_direct(m)]) == bits([np.linalg.det(m.array)])

    def test_direct_determinant_unwarned(self):
        # subnormal entries: the LU divides by zero on the way to det = -0.0
        w = WeightVector(np.array([-3.2477906522764906e-122, -2.1672478321195007e-68]))
        x = ChartPoint(Chart.RATIO, np.array([5.643185458960553e+44, 1.4213928485581296e+86]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            m = hessian_ratio(x, w)
            assert bits([det_direct(m), det_hessian_ratio(x, w)]) == bits([-0.0, -0.0])
            with pytest.raises(Overflow):
                det_direct(SymMatrix(np.array([[1e200, 0.0], [0.0, 1e200]])))


class TestSingularLocus:
    def test_value_one_when_sum_zero(self, rng):
        w = WeightVector(np.array([1.0, -1.0]))
        for _ in range(10):
            t = ChartPoint(Chart.LOG, rng.uniform(0.3, 2.0, 2))
            assert_close(singular_locus_value(t, w), 1.0, 1e-14)

    def test_root_location(self):
        w = WeightVector(np.array([1 / 3, 1 / 2]))
        s_star = singular_S(w)
        assert_close(s_star, 0.5 * math.log(11.0), 1e-13)
        assert_close(math.tanh(s_star), 5.0 / 6.0, 1e-14)
        # the indicator vanishes on the locus: pick t with alpha . t = S*
        t = ChartPoint(Chart.LOG, np.array([3.0 * s_star, 0.0]))
        assert abs(singular_locus_value(t, w)) < 1e-12

    def test_no_root_for_large_sum(self):
        assert singular_S(WeightVector(np.array([0.5, 0.5]))) is None
        assert singular_S(WeightVector(np.array([0.7, 0.6]))) is None

    def test_zero_sum_coincides_with_zero_cost(self):
        assert singular_S(WeightVector(np.array([1.0, -1.0]))) == 0.0

    def test_zero_cost_point_rejected(self):
        w = WeightVector(np.array([0.5, 0.5]))
        with pytest.raises(ZeroCostPoint):
            singular_locus_value(ChartPoint(Chart.LOG, np.zeros(2)), w)

    def test_sign_changes_only_across_locus(self):
        # scan S > 0: exactly one sign change, at artanh(5/6)
        w = WeightVector(np.array([1 / 3, 1 / 2]))
        s_star = singular_S(w)
        svals = np.linspace(0.01, 3.0, 400)
        signs = []
        for s in svals:
            t = ChartPoint(Chart.LOG, np.array([s / w.a / 2, s / w.b / 2]))
            signs.append(math.copysign(1.0, singular_locus_value(t, w)))
        flips = np.nonzero(np.diff(signs))[0]
        assert len(flips) == 1
        assert svals[flips[0]] < s_star < svals[flips[0] + 1]
        # S < 0 branch has no sign change for positive weight sum
        signs_neg = set()
        for s in np.linspace(-3.0, -0.01, 200):
            t = ChartPoint(Chart.LOG, np.array([s / w.a / 2, s / w.b / 2]))
            signs_neg.add(math.copysign(1.0, singular_locus_value(t, w)))
        assert signs_neg == {1.0}


class TestRadicalBasis:
    def test_two_dimensional_span(self):
        w = WeightVector(np.array([0.4, -0.9]))
        basis = radical_basis(w)
        assert basis.shape == (1, 2)
        kernel = np.array([w.b, -w.a])
        cosine = abs(np.dot(basis[0], kernel)) / np.linalg.norm(kernel)
        assert_close(cosine, 1.0, 1e-13)

    def test_kernel_membership(self, rng):
        for n in (2, 3, 5):
            w = WeightVector(rng.uniform(-1.5, 1.5, n) + 0.1)
            basis = radical_basis(w)
            t = ChartPoint(Chart.LOG, rng.uniform(-2, 2, n))
            m = hessian_log(t, w)
            for v in basis:
                assert np.max(np.abs(m.array @ v)) <= 1e-12

    def test_orthonormal(self):
        w = WeightVector.canonical(3)
        basis = radical_basis(w)
        assert basis.shape == (2, 3)
        gram = basis @ basis.T
        assert_matrix_close(gram, np.eye(2), 1e-14)
        assert np.max(np.abs(basis @ w.alpha)) < 1e-14


class TestPullback:
    def test_log_metric_to_ratio_at_unit(self):
        w = WeightVector(np.array([0.7, -0.4]))
        got = pullback(
            lambda p: hessian_log(p, w),
            ChartPoint(Chart.RATIO, np.ones(2)),
            Chart.LOG,
            Chart.RATIO,
            w,
        )
        assert_matrix_close(got.to_dense(), np.outer(w.alpha, w.alpha), 1e-14)

    def test_ratio_metric_to_log_at_origin(self):
        w = WeightVector(np.array([0.7, -0.4]))
        got = pullback(
            lambda p: hessian_ratio(p, w),
            ChartPoint(Chart.LOG, np.zeros(2)),
            Chart.RATIO,
            Chart.LOG,
            w,
        )
        # sinh(0) = 0 leaves the pure outer product
        assert_matrix_close(got.to_dense(), np.outer(w.alpha, w.alpha), 1e-14)

    def test_ratio_metric_to_log_matches_closed_form(self, rng):
        # mixed-chart table: a(a cosh S - sinh S) on the diagonal
        w = WeightVector(np.array([0.6, 1.1]))
        for _ in range(20):
            t = rng.uniform(-1.5, 1.5, 2)
            S = float(np.dot(w.alpha, t))
            a, b = w.a, w.b
            expected = np.array([
                [a * (a * math.cosh(S) - math.sinh(S)), a * b * math.cosh(S)],
                [a * b * math.cosh(S), b * (b * math.cosh(S) - math.sinh(S))],
            ])
            got = pullback(
                lambda p: hessian_ratio(p, w),
                ChartPoint(Chart.LOG, t),
                Chart.RATIO,
                Chart.LOG,
                w,
            )
            assert_matrix_close(got.to_dense(), expected, 1e-12)

    def test_round_trip(self, rng):
        w = WeightVector(np.array([0.5, 0.8, -0.3]))
        x = ChartPoint(Chart.RATIO, np.exp(rng.uniform(-1, 1, 3)))
        h_field = lambda p: hessian_ratio(p, w)
        to_log = lambda p: pullback(h_field, p, Chart.RATIO, Chart.LOG, w)
        back = pullback(to_log, x, Chart.LOG, Chart.RATIO, w)
        assert_matrix_close(back.to_dense(), h_field(x).to_dense(), 1e-12)


class TestFdHessian:
    def test_quadratic_exact(self):
        quad = lambda p: 3.0 * p.coords[0] ** 2 - 2.0 * p.coords[0] * p.coords[1] + p.coords[1] ** 2
        m = fd_hessian(quad, ChartPoint(Chart.LOG, np.array([0.3, -0.8])), h=1e-3)
        assert_matrix_close(m.to_dense(), np.array([[6.0, -2.0], [-2.0, 2.0]]), 1e-9)

    def test_richardson_ratio(self):
        # halving the step shrinks the defect ~4x (second-order stencils)
        w = WeightVector(np.array([0.6, -0.3]))
        t = ChartPoint(Chart.LOG, np.array([0.8, 0.4]))
        exact = hessian_log(t, w).to_dense()
        f = lambda p: cost_log(p, w).J
        err_h = np.max(np.abs(fd_hessian(f, t, h=2e-3).to_dense() - exact))
        err_h2 = np.max(np.abs(fd_hessian(f, t, h=1e-3).to_dense() - exact))
        assert 3.0 < err_h / err_h2 < 5.0

    def test_rank_one_for_any_ridge_function(self, rng):
        # any smooth f(alpha . t) has a rank-one log-chart Hessian
        w = WeightVector(np.array([0.8, -0.5, 0.3]))
        for f_scalar in (lambda s: math.cosh(s) - 1.0, math.exp):
            f = lambda p: f_scalar(float(np.dot(w.alpha, p.coords)))
            t = ChartPoint(Chart.LOG, rng.uniform(-1, 1, 3))
            m = fd_hessian(f, t)
            assert rank(m, 1e-6) == 1

    def test_domain_guard(self):
        w = WeightVector(np.array([1.0]))
        tight = ChartPoint(Chart.RATIO, np.array([1e-5]))
        with pytest.raises(DomainViolation):
            fd_hessian(lambda p: cost_ratio(p, w).J, tight)


def _ratio_reference(alpha, x):
    """u, diag, beta and a_scale of the split, R and 1/R, by the array
    formulas term by term."""
    S = float(np.dot(alpha, np.log(x)))
    R, Rinv = math.exp(S), math.exp(-S)
    return alpha / x, alpha / (x * x), 0.5 * (R + Rinv), -0.5 * (R - Rinv), R, Rinv


def _hessian_ratio_reference(alpha, x):
    u, _, _, _, R, Rinv = _ratio_reference(alpha, x)
    dense = 0.5 * (R + Rinv) * (u[:, None] * u)
    np.fill_diagonal(dense, 0.5 * (alpha * (alpha - 1.0) * R + alpha * (alpha + 1.0) * Rinv) / (x * x))
    return dense


def _det_reference(alpha, x):
    u, diag, beta, a_scale, _, _ = _ratio_reference(alpha, x)
    if abs(a_scale) < DET_ZERO_COST_S or np.any(alpha == 0.0):
        return float(np.linalg.det(_hessian_ratio_reference(alpha, x)))
    a_diag = a_scale * diag
    return float(np.prod(a_diag)) * (1.0 + beta * float(np.sum(u * u / a_diag)))


class TestOnePointBits:
    """The one-point closed forms, assembled on floats, against references
    written term by term with numpy arrays: 200 seeded points of each kind,
    equal bit for bit."""

    @pytest.mark.parametrize("kind", POINT_KINDS)
    def test_ratio_chart(self, kind, rng):
        routes = {"lemma": 0, "direct": 0}
        for i in range(200):
            alpha, t = draw_point(rng, kind, i)
            x = np.exp(t)
            w, p = WeightVector(alpha), ChartPoint(Chart.RATIO, x)
            u, diag, beta, a_scale, _, _ = _ratio_reference(alpha, x)
            H = hessian_ratio(p, w).array
            assert bits(H) == bits(_hessian_ratio_reference(alpha, x)) == bits(H.T)
            d = decompose(p, w)
            assert bits(d.u) == bits(u) and bits(d.diag) == bits(diag)
            assert bits([d.beta, d.a_scale]) == bits([beta, a_scale])
            assert bits([det_hessian_ratio(p, w)]) == bits([_det_reference(alpha, x)])
            routes["direct" if abs(a_scale) < DET_ZERO_COST_S or 0.0 in alpha else "lemma"] += 1
        assert routes["lemma"] >= 100 and routes["direct"] >= 40

    @pytest.mark.parametrize("kind", POINT_KINDS)
    def test_log_chart(self, kind, rng):
        for i in range(200):
            alpha, t = draw_point(rng, kind, i)
            w, p = WeightVector(alpha), ChartPoint(Chart.LOG, t)
            S = float(np.dot(alpha, t))
            assert bits(hessian_log(p, w).array) == bits(math.cosh(S) * np.outer(alpha, alpha))
            mp = math.sqrt(math.cosh(S))
            assert bits(fisher_info(p, w).array) == bits((mp * mp) * np.outer(alpha, alpha))
