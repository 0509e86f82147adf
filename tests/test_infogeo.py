import math

import numpy as np
import pytest

from recipgeo import (
    Chart,
    ChartPoint,
    WeightVector,
    bregman,
    bregman_order_check,
    cost_ratio,
    fisher_info,
    hessian_log,
    itakura_saito,
    mean_function,
    mean_slope,
    symmetrized_is,
)
from recipgeo import infogeo
from recipgeo.errors import NonPositiveInput, Overflow

from conftest import assert_close, assert_matrix_close


def gauss_legendre_integral(f, a, b, order=64):
    nodes, weights = np.polynomial.legendre.leggauss(order)
    mapped = 0.5 * (b - a) * nodes + 0.5 * (a + b)
    return 0.5 * (b - a) * float(np.sum(weights * np.array([f(u) for u in mapped])))


class TestItakuraSaito:
    def test_zero_on_diagonal(self):
        assert itakura_saito(3.0, 3.0) == 0.0

    def test_forward_value(self):
        assert_close(itakura_saito(1.0, 2.0), 0.5 + math.log(2.0) - 1.0, 1e-14)

    def test_backward_value(self):
        assert_close(itakura_saito(2.0, 1.0), 2.0 - math.log(2.0) - 1.0, 1e-14)

    def test_positive_inputs_required(self):
        with pytest.raises(NonPositiveInput):
            itakura_saito(-1.0, 2.0)

class TestSymmetrizedIS:
    def test_ratio_two(self):
        # R = 2 forces the value (2 + 1/2 - 2)/2 = 1/4 = J(2)
        w = WeightVector(np.array([1.0]))
        x = ChartPoint(Chart.RATIO, np.array([2.0]))
        assert_close(symmetrized_is(x, w), 0.25, 1e-15)

    def test_zero_at_unit_ratio(self):
        w = WeightVector(np.array([0.5, 0.5]))
        assert symmetrized_is(ChartPoint(Chart.RATIO, np.array([2.0, 0.5])), w) == 0.0

    def test_identity_with_cost(self, rng):
        for _ in range(200):
            n = int(rng.integers(1, 6))
            w = WeightVector(rng.uniform(0.2, 1.5, n) * np.where(rng.uniform(size=n) < 0.5, -1, 1))
            x = ChartPoint(Chart.RATIO, np.exp(rng.uniform(-3, 3, n)))
            assert_close(symmetrized_is(x, w), cost_ratio(x, w).J, 1e-14)


class TestBregman:
    def test_zero_increment(self):
        w = WeightVector(np.array([0.4, 0.7]))
        t = ChartPoint(Chart.LOG, np.array([0.3, -0.2]))
        assert bregman(t, np.zeros(2), w) == 0.0

    def test_radical_increment_zero(self):
        w = WeightVector(np.array([0.5, 0.5]))
        t = ChartPoint(Chart.LOG, np.array([0.8, -0.1]))
        delta = np.array([1.0, -1.0])  # alpha . delta = 0 exactly
        assert bregman(t, delta, w) == 0.0

    def test_nonnegative(self, rng):
        w = WeightVector(np.array([0.6, -0.9, 0.3]))
        for _ in range(100):
            t = ChartPoint(Chart.LOG, rng.uniform(-2, 2, 3))
            delta = rng.uniform(-1, 1, 3)
            assert bregman(t, delta, w) >= -1e-13

    def test_quadratic_expansion(self, rng):
        # D(t, t+delta) - delta^T H delta / 2 = O(|delta|^3)
        w = WeightVector(np.array([0.8, 0.5]))
        t = ChartPoint(Chart.LOG, np.array([0.4, 0.9]))
        H = hessian_log(t, w).to_dense()
        direction = np.array([0.6, -0.8])
        remainders = []
        for eps in (1e-2, 5e-3, 2.5e-3):
            delta = eps * direction
            quad = 0.5 * float(delta @ H @ delta)
            remainders.append(abs(bregman(t, delta, w) - quad))
        assert remainders[0] / remainders[1] == pytest.approx(8.0, rel=0.2)
        assert remainders[1] / remainders[2] == pytest.approx(8.0, rel=0.2)


class TestBregmanOrderCheck:
    def test_cubic_slope_along_alpha(self):
        w = WeightVector(np.array([0.8, 0.5]))
        t = ChartPoint(Chart.LOG, np.array([0.7, 0.6]))
        direction = w.alpha / math.sqrt(w.norm_sq)
        fit = bregman_order_check(t, direction, w)
        assert not fit.degenerate
        assert abs(fit.slope - 3.0) <= 0.1

    def test_radical_direction_flagged(self):
        w = WeightVector(np.array([0.5, 0.5]))
        t = ChartPoint(Chart.LOG, np.array([0.7, 0.6]))
        direction = np.array([1.0, -1.0]) / math.sqrt(2.0)
        fit = bregman_order_check(t, direction, w)
        assert fit.degenerate
        assert fit.slope is None
        assert np.max(fit.remainders) <= 1e-15

    def test_symmetric_point_quartic(self):
        # at S = 0 the cubic term vanishes; the remainder decays one order
        # faster, which still clears the slope >= 3 acceptance
        w = WeightVector(np.array([1.0]))
        t = ChartPoint(Chart.LOG, np.array([0.0]))
        fit = bregman_order_check(t, np.array([1.0]), w)
        assert fit.slope >= 3.0
        assert abs(fit.slope - 4.0) <= 0.1
        eps = fit.scales[0]
        assert_close(fit.remainders[0], eps**4 / 24.0, 1e-3)


class TestMeanFunction:
    def test_at_zero(self):
        assert mean_function(0.0) == 0.0 and mean_slope(0.0) == 1.0

    def test_odd(self):
        for S in (0.3, 1.0, 2.7):
            assert_close(mean_function(-S), -mean_function(S), 1e-12)

    def test_dual_quadrature(self):
        # the closed form against 64-point Gauss-Legendre
        for S in (0.5, 1.0, 2.0, 5.0):
            gl = gauss_legendre_integral(lambda u: math.sqrt(math.cosh(u)), 0.0, S)
            assert abs(mean_function(S) - gl) <= 1e-10

    def test_slope_bounds(self, rng):
        for S in rng.uniform(-3, 3, 30):
            assert mean_slope(float(S)) >= 1.0
            if S >= 0:
                assert mean_function(float(S)) >= S - 1e-12

    @pytest.mark.parametrize("S, m", [
        (1e-8, 1.0000000000000000083e-8),
        (0.7, 0.72826851085882906181),
        (3.0, 5.1373075101335010285),
        (35.0, 56320749.015496492497),
        (699.5, 1.1092004663361100634e+152),
    ])
    def test_closed_form_pinned(self, S, m):
        # 40-digit mpmath, by quadrature and by -2i E(iS/2 | 2), which agree
        assert abs(mean_function(S) - m) <= 1e-15 * m
        assert mean_function(-S) == -mean_function(S)

    def test_carlson_rd(self):
        # R_D(x, x, x) = x^(-3/2); R_D(0, 2, 1) and R_D(1, 2, 4) to 20 digits (mpmath elliprd)
        assert_close(infogeo._carlson_rd(4.0, 4.0, 4.0), 0.125, 1e-16)
        assert_close(infogeo._carlson_rd(0.0, 2.0, 1.0), 1.7972103521033883112, 1e-15)
        assert_close(infogeo._carlson_rd(1.0, 2.0, 4.0), 0.21838072549338965369, 1e-15)

    def test_overflow_guard(self):
        with pytest.raises(Overflow):
            mean_function(800.0)
        with pytest.raises(Overflow):
            mean_slope(800.0)


class TestFisherInfo:
    def test_needs_no_quadrature(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("fisher_info ran the mean function")

        monkeypatch.setattr(infogeo, "mean_function", refuse)
        w = WeightVector(np.array([0.5, -0.8, 1.1]))
        t = np.array([0.7, -1.2, 0.4])
        S = float(w.alpha @ t)
        info = fisher_info(ChartPoint(Chart.LOG, t), w)
        assert_matrix_close(info.to_dense(), math.cosh(S) * np.outer(w.alpha, w.alpha), 1e-14)
        with pytest.raises(Overflow):
            fisher_info(ChartPoint(Chart.LOG, np.array([701.0])), WeightVector(np.array([1.0])))

    def test_outer_product_at_origin(self):
        w = WeightVector(np.array([0.3, -0.4]))
        m = fisher_info(ChartPoint(Chart.LOG, np.zeros(2)), w)
        assert_matrix_close(m.to_dense(), np.outer(w.alpha, w.alpha), 1e-14)

    def test_equals_hessian(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 5))
            w = WeightVector(rng.uniform(0.2, 1.4, n) * np.where(rng.uniform(size=n) < 0.5, -1, 1))
            t = ChartPoint(Chart.LOG, rng.uniform(-3, 3, n))
            assert_matrix_close(
                fisher_info(t, w).to_dense(), hessian_log(t, w).to_dense(), 1e-12
            )

    def test_gauss_hermite_oracle(self):
        # score quadrature for the unit-variance Gaussian with mean m(S):
        # I = E[((z - m) dm/dt)^2] reduces to (m'(S))^2 at alpha = 1
        S = 0.7
        h = 1e-5
        mp_fd = (mean_function(S + h) - mean_function(S - h)) / (2.0 * h)
        nodes, weights = np.polynomial.hermite.hermgauss(40)
        quad = float(np.sum(weights * (np.sqrt(2.0) * nodes * mp_fd) ** 2) / math.sqrt(math.pi))
        w = WeightVector(np.array([1.0]))
        closed = fisher_info(ChartPoint(Chart.LOG, np.array([S])), w).array[0, 0]
        assert_close(quad, closed, 1e-6)
        assert_close(closed, math.cosh(S), 1e-14)
