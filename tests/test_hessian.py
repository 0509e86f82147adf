import math

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
from recipgeo.errors import DomainViolation, ZeroCostPoint

from conftest import assert_close, assert_matrix_close


class TestSymMatrix:
    def test_packing_round_trip(self, rng):
        for n in (1, 2, 3, 5):
            dense = rng.normal(size=(n, n))
            dense = dense + dense.T
            m = SymMatrix(dense)
            np.testing.assert_allclose(m.to_dense(), dense, atol=1e-15)
            assert m[0, n - 1] == m[n - 1, 0]

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
        np.testing.assert_allclose(m.matvec(w.alpha), expected, rtol=1e-13)

    def test_axis_weight(self):
        w = WeightVector(np.array([1.0, 0.0, 0.0]))
        m = hessian_log(ChartPoint(Chart.LOG, np.zeros(3)), w)
        expected = np.zeros((3, 3))
        expected[0, 0] = 1.0
        assert_matrix_close(m.to_dense(), expected, 1e-15)

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
        assert_close(m[0, 0], 0.125, 1e-14)  # d2/dx2 of (x + 1/x)/2 - 1 = x^-3

    def test_matches_fd_oracle(self, rng):
        for n in (1, 2, 3, 5):
            for _ in range(25):
                w = WeightVector(rng.uniform(0.2, 1.5, n) * np.where(rng.uniform(size=n) < 0.5, -1, 1))
                x = ChartPoint(Chart.RATIO, np.exp(rng.uniform(-1.5, 1.5, n)))
                exact = hessian_ratio(x, w)
                oracle = fd_hessian(lambda p: cost_ratio(p, w).J, x)
                assert_matrix_close(oracle.to_dense(), exact.to_dense(), 1e-6)


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
            assert_matrix_close(
                d.reconstruct().to_dense(), hessian_ratio(x, w).to_dense(), 1e-12
            )


class TestDeterminant:
    def test_printed_value(self):
        w = WeightVector(np.array([1.0, 1.0]))
        x = ChartPoint(Chart.RATIO, np.array([2.0, 1.0]))
        assert_close(det_hessian_ratio(x, w), -21.0 / 64.0, 1e-12)
        # independent route: determinant of the finite-difference Hessian
        oracle = fd_hessian(lambda p: cost_ratio(p, w).J, x)
        assert_close(oracle.det(), -21.0 / 64.0, 1e-5)

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
            assert_close(det_hessian_ratio(x, w), hessian_ratio(x, w).det(), 1e-10)

    def test_zero_weight_component_falls_back(self):
        w = WeightVector(np.array([1.0, 0.0]))
        x = ChartPoint(Chart.RATIO, np.array([2.0, 3.0]))
        assert_close(det_hessian_ratio(x, w), hessian_ratio(x, w).det(), 1e-14)

    def test_one_dimensional(self):
        w = WeightVector(np.array([1.0]))
        assert_close(det_hessian_ratio(ChartPoint(Chart.RATIO, np.array([2.0])), w), 0.125, 1e-14)


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
        basis = radical_basis(w).vectors
        assert basis.shape == (1, 2)
        kernel = np.array([w.b, -w.a])
        cosine = abs(np.dot(basis[0], kernel)) / np.linalg.norm(kernel)
        assert_close(cosine, 1.0, 1e-13)

    def test_kernel_membership(self, rng):
        for n in (2, 3, 5):
            w = WeightVector(rng.uniform(-1.5, 1.5, n) + 0.1)
            basis = radical_basis(w).vectors
            t = ChartPoint(Chart.LOG, rng.uniform(-2, 2, n))
            m = hessian_log(t, w)
            for v in basis:
                assert np.max(np.abs(m.matvec(v))) <= 1e-12

    def test_orthonormal(self):
        w = WeightVector.canonical(3)
        basis = radical_basis(w).vectors
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
