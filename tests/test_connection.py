import math

import numpy as np
import pytest

from recipgeo import (
    AffineStructure,
    Chart,
    ChartPoint,
    ChristoffelTensor,
    WeightVector,
    affine_connection,
    christoffel_from_metric,
    cost_ratio,
    curvature_from_christoffel,
    delta,
    fd_hessian,
    fisher_info,
    hessian_log,
    hessian_ratio,
    lc_christoffel_st,
    lc_christoffel_xy,
    projective_obstruction,
    pullback,
    ricci_q,
    ricci_xy,
    z_xy,
)
from recipgeo.core import S_MAX
from recipgeo.errors import Overflow, SingularLocus, SingularMetric, ZeroExponent

from conftest import assert_close, assert_matrix_close


def ratio_metric(w):
    return lambda p: hessian_ratio(ChartPoint(Chart.RATIO, p), w)


def log_metric(w):
    return lambda p: pullback(
        lambda cp: hessian_ratio(cp, w), ChartPoint(Chart.LOG, p), Chart.RATIO, Chart.LOG, w
    )


class TestDelta:
    def test_delta_roots(self):
        a, b = 1 / 3, 1 / 2
        assert delta(a, b, 1.0) == 0.0
        z_star = -(a + b + 1.0) / (a + b - 1.0)
        assert abs(delta(a, b, z_star)) < 1e-14

    def test_q_consistency(self):
        # Z = e^{2q} with q = a log x + b log y
        a, b, x, y = 0.4, -0.2, 2.5, 0.8
        q = a * math.log(x) + b * math.log(y)
        assert_close(delta(a, b, z_xy(a, b, x, y)), delta(a, b, math.exp(2.0 * q)), 1e-14)


class TestChristoffelXY:
    def test_against_oracle(self, rng):
        for _ in range(25):
            a, b = rng.uniform(0.2, 1.2, 2) * np.where(rng.uniform(size=2) < 0.5, -1, 1)
            x, y = np.exp(rng.uniform(-1.0, 1.0, 2))
            if abs(delta(a, b, z_xy(a, b, x, y))) < 0.05:
                continue
            w = WeightVector(np.array([a, b]))
            closed = lc_christoffel_xy(a, b, x, y)
            oracle = christoffel_from_metric(ratio_metric(w), np.array([x, y]))
            assert_matrix_close(closed.array, oracle.array, 1e-6)

    def test_swap_symmetry(self):
        # swapping a<->b together with x<->y swaps the two equations
        a, b, x, y = 0.7, 0.7, 2.0, 1.3
        g1 = lc_christoffel_xy(a, b, x, y)
        g2 = lc_christoffel_xy(b, a, y, x)
        assert_close(g1.array[0, 0, 0], g2.array[1, 1, 1], 1e-13)
        assert_close(g1.array[1, 0, 0], g2.array[0, 1, 1], 1e-13)

    def test_divergence_near_zero_cost(self):
        a, b = 1 / 3, 1 / 2
        # components grow like 1/Delta approaching Z = 1
        vals = []
        for eps in (1e-2, 1e-4):
            x = 1.0 + eps
            g = lc_christoffel_xy(a, b, x, 1.0)
            vals.append(abs(g.array[0, 0, 0]))
        assert vals[1] > 50.0 * vals[0]

    def test_guard_raises(self):
        with pytest.raises(SingularMetric):
            lc_christoffel_xy(0.5, 0.5, 1.0, 1.0)

    def test_zero_exponent_rejected(self):
        with pytest.raises(ZeroExponent):
            lc_christoffel_xy(0.0, 0.5, 2.0, 2.0)


class TestChristoffelST:
    def test_depends_only_on_q(self):
        a, b = 0.4, 0.9
        q = 0.8
        # two (s, t) points with equal q = as + bt
        g1 = lc_christoffel_st(a, b, q / a, 0.0)
        g2 = lc_christoffel_st(a, b, 0.0, q / b)
        assert np.max(np.abs(g1.array - g2.array)) <= 1e-12

    def test_against_oracle(self, rng):
        for _ in range(25):
            a, b = rng.uniform(0.2, 1.2, 2) * np.where(rng.uniform(size=2) < 0.5, -1, 1)
            s, t = rng.uniform(-1.5, 1.5, 2)
            q = a * s + b * t
            if abs(math.sinh(q)) < 0.1:
                continue
            if abs((a + b) * math.cosh(q) / math.sinh(q) - 1.0) < 0.05:
                continue
            w = WeightVector(np.array([a, b]))
            closed = lc_christoffel_st(a, b, s, t)
            oracle = christoffel_from_metric(log_metric(w), np.array([s, t]))
            assert_matrix_close(closed.array, oracle.array, 1e-6)

    def test_symmetric_weights_diagonal(self):
        a = b = 0.5
        q = 1.1
        g = lc_christoffel_st(a, b, q / a / 2, q / b / 2)
        assert_close(g.array[0, 0, 0], g.array[1, 1, 1], 1e-13)

    def test_guard_near_q_zero(self):
        with pytest.raises(SingularMetric):
            lc_christoffel_st(0.5, 0.5, 1e-12, -1e-12)


class TestChristoffelOracle:
    def test_constant_metric_zero(self):
        gamma = christoffel_from_metric(lambda p: np.array([[2.0, 0.3], [0.3, 1.0]]), np.array([1.0, 2.0]))
        assert np.max(np.abs(gamma.array)) <= 1e-12

    def test_polar_style_metric(self):
        # diag(1, x^2): the only nonzero symbols are G^x_yy = -x, G^y_xy = 1/x
        metric = lambda p: np.array([[1.0, 0.0], [0.0, p[0] ** 2]])
        gamma = christoffel_from_metric(metric, np.array([2.0, 0.7]))
        assert_close(gamma.array[0, 1, 1], -2.0, 1e-9)
        assert_close(gamma.array[1, 0, 1], 0.5, 1e-9)
        assert abs(gamma.array[0, 0, 0]) < 1e-10

    def test_singular_metric_rejected(self):
        with pytest.raises(SingularMetric):
            christoffel_from_metric(lambda p: np.ones((2, 2)), np.array([1.0, 1.0]))


class TestRicci:
    def test_zero_when_weights_cancel(self):
        for Z in (0.3, 2.0, 9.0):
            assert ricci_xy(1.0, -1.0, Z) == 0.0

    def test_printed_value(self):
        assert_close(ricci_xy(0.5, 0.5, 4.0), -8.0 / 9.0, 1e-13)
        assert_close(ricci_q(0.5, 0.5, math.log(2.0)), -8.0 / 9.0, 1e-13)

    def test_divergence_near_unit_Z(self):
        assert abs(ricci_xy(0.5, 0.25, 1.0 + 1e-3)) > 1e4
        with pytest.raises(SingularLocus):
            ricci_xy(0.5, 0.25, 1.0 + 1e-12)

    def test_array_matches_float_call(self):
        """The array Ricci on the locus grid: each finite entry equals its
        float call, NaN wherever the float call raises SingularLocus."""
        a, b = 1 / 3, 1 / 2
        x = np.exp(np.linspace(-3.0, 3.0, 41))
        Z = z_xy(a, b, *np.meshgrid(x, x, indexing="ij"), xp=np)
        ricci = ricci_xy(a, b, Z)
        assert np.isnan(ricci[17, 22])  # log x = -0.45, log y = 0.3: on R = 1
        singular = 0
        for z, r in zip(Z.ravel().tolist(), ricci.ravel().tolist()):
            if math.isnan(r):
                singular += 1
                with pytest.raises(SingularLocus):
                    ricci_xy(a, b, z)
            else:
                assert r == ricci_xy(a, b, z)
        assert singular == 13

    def test_chart_consistency(self, rng):
        count = 0
        while count < 50:
            a, b = rng.uniform(0.2, 1.2, 2) * np.where(rng.uniform(size=2) < 0.5, -1, 1)
            if abs(a + b) < 0.05:
                continue
            q = float(rng.uniform(0.1, 2.0)) * (1.0 if rng.uniform() < 0.5 else -1.0)
            try:
                r1 = ricci_xy(a, b, math.exp(2.0 * q))
                r2 = ricci_q(a, b, q)
            except SingularLocus:
                continue
            assert_close(r1, r2, 1e-10)
            count += 1

    def test_zero_set(self):
        # the scalar vanishes exactly on a+b = 0 or (a+b-2)Z + (a+b+2) = 0
        for a, b in ((0.5, 0.5), (0.3, 0.9), (-0.2, 0.7)):
            z_root = -(a + b + 2.0) / (a + b - 2.0)
            assert z_root > 0.0
            assert abs(ricci_xy(a, b, z_root)) <= 1e-12
            # and is nonzero just off the root
            assert abs(ricci_xy(a, b, 1.5 * z_root)) > 1e-6

    def test_q_only_dependence(self):
        # ricci_q is a function of q alone by construction; sanity check vs
        # the numerical scalar at two (s,t) with equal q
        a, b = 0.3, 0.6
        w = WeightVector(np.array([a, b]))
        q = 1.0
        sts = [(q / a, 0.0), (0.0, q / b)]
        nums = []
        for s, t in sts:
            gamma_fn = lambda p: lc_christoffel_st(a, b, p[0], p[1])
            nums.append(curvature_from_christoffel(gamma_fn, np.array([s, t]), metric_fn=log_metric(w)))
        assert_close(nums[0], nums[1], 1e-7)
        assert_close(nums[0], ricci_q(a, b, q), 1e-6)


class TestZWall:
    """The closed forms that form e^{2q} or sinh 2q are walled at 2|q| <= S_MAX
    and finite just inside it; the Ricci scalar of a float Z past the double
    range raises instead of returning NaN."""

    @pytest.mark.parametrize("q", [0.5 * S_MAX + 0.5, -0.5 * S_MAX - 0.5])
    def test_christoffel_past_the_wall(self, q):
        with pytest.raises(Overflow):
            lc_christoffel_xy(1.0, 1.0, math.exp(0.5 * q), math.exp(0.5 * q))
        with pytest.raises(Overflow):
            lc_christoffel_st(1.0, 1.0, 0.5 * q, 0.5 * q)

    @pytest.mark.parametrize("q", [0.5 * S_MAX - 0.5, -0.5 * S_MAX + 0.5])
    def test_christoffel_st_finite_inside_the_wall(self, q):
        assert np.all(np.isfinite(lc_christoffel_st(1.0, 1.0, 0.5 * q, 0.5 * q).array))

    @pytest.mark.parametrize("q", [0.25 * S_MAX - 0.5, -0.5 * S_MAX + 0.5])
    def test_christoffel_xy_finite(self, q):
        x = math.exp(0.5 * q)
        assert np.all(np.isfinite(lc_christoffel_xy(1.0, 1.0, x, x).array))

    def test_christoffel_xy_past_the_double_range(self):
        # inside the wall, but Z^2 = e^{4q} leaves the double range near q = 177
        x = math.exp(0.5 * (0.5 * S_MAX - 0.5))
        with pytest.raises(Overflow):
            lc_christoffel_xy(1.0, 1.0, x, x)

    def test_christoffel_xy_coordinate_wall(self):
        # q = 0.46 lies inside the wall, but x^2 = 1e-400 leaves the double range
        with pytest.raises(Overflow):
            lc_christoffel_xy(1.0, 1.001, 1e-200, 1e200)

    def test_ricci_past_the_double_range(self):
        with pytest.raises(Overflow):
            ricci_xy(1.0, 1.0, 1e300)
        assert math.isfinite(ricci_xy(1.0, 1.0, 1e100))

    @pytest.mark.parametrize("q", [0.5, -0.5, S_MAX])
    def test_ricci_q_past_the_double_range(self, q):
        # (a + b)^2 past the double range, with |alpha|^2 still inside it:
        # unchecked, the value reads inf / inf = NaN
        with pytest.raises(Overflow):
            ricci_q(9.4e153, 9.4e153, q)
        assert math.isfinite(ricci_q(9.4e153, -9.3e153, q))


def _log_point(rng, n):
    return ChartPoint(Chart.LOG, rng.uniform(-3.0, 3.0, n))


def _ratio_point(rng, n):
    return ChartPoint(Chart.RATIO, np.exp(rng.uniform(-1.5, 1.5, n)))


def _weights(rng, n):
    return WeightVector(rng.uniform(0.2, 1.5, n) * np.where(rng.uniform(size=n) < 0.5, -1.0, 1.0))


def _pullback(rng, n):
    w = _weights(rng, n)
    if n % 2:
        return pullback(lambda p: hessian_ratio(p, w), _log_point(rng, n), Chart.RATIO, Chart.LOG, w)
    return pullback(lambda p: hessian_log(p, w), _ratio_point(rng, n), Chart.LOG, Chart.RATIO, w)


def _fd_hessian(rng, n):
    w = _weights(rng, n)
    return fd_hessian(lambda p: cost_ratio(p, w).J, _ratio_point(rng, n))


def _christoffel_xy(rng, _n):
    w = _weights(rng, 2)
    return lc_christoffel_xy(w.a, w.b, *_ratio_point(rng, 2).coords.tolist())


def _christoffel_st(rng, _n):
    w = _weights(rng, 2)
    return lc_christoffel_st(w.a, w.b, *_log_point(rng, 2).coords.tolist())


def _christoffel_oracle(rng, _n):
    return christoffel_from_metric(ratio_metric(_weights(rng, 2)), _ratio_point(rng, 2).coords)


# Each producer of a SymMatrix or ChristoffelTensor at one seeded point
# (n from 1 to 5 for the matrices, n = 2 for the connections).
PRODUCERS = {
    "hessian_log": lambda rng, n: hessian_log(_log_point(rng, n), _weights(rng, n)),
    "hessian_ratio": lambda rng, n: hessian_ratio(_ratio_point(rng, n), _weights(rng, n)),
    "fisher_info": lambda rng, n: fisher_info(_log_point(rng, n), _weights(rng, n)),
    "pullback": _pullback,
    "fd_hessian": _fd_hessian,
    "lc_christoffel_xy": _christoffel_xy,
    "lc_christoffel_st": _christoffel_st,
    "christoffel_from_metric": _christoffel_oracle,
}


class TestBuiltSymmetric:
    @pytest.mark.parametrize("name", list(PRODUCERS))
    def test_array_equals_its_transpose(self, name, rng):
        # the wrappers keep the arrays as built, so each producer must build
        # its own symmetric: bit for bit, -0.0 against 0.0 included
        checked = 0
        for i in range(200):
            try:
                array = PRODUCERS[name](rng, 1 + i % 5).array
            except (SingularMetric, Overflow):
                continue
            bits = array.view(np.int64)
            assert np.array_equal(bits, bits.swapaxes(-1, -2)), array
            checked += 1
        assert checked >= 150


class TestCurvatureOracle:
    def test_flat_connection_zero(self):
        zero_fn = lambda p: ChristoffelTensor(np.zeros((2, 2, 2)))
        assert curvature_from_christoffel(zero_fn, np.array([1.0, 2.0])) == 0.0

    def test_sphere_sign_convention(self):
        # unit sphere metric diag(1, sin^2 theta): scalar curvature +2
        metric = lambda p: np.array([[1.0, 0.0], [0.0, math.sin(p[0]) ** 2]])
        gamma_fn = lambda p: christoffel_from_metric(metric, p)
        val = curvature_from_christoffel(gamma_fn, np.array([1.1, 0.5]), metric_fn=metric)
        assert_close(val, 2.0, 1e-5)

    def test_weight_cancellation_flat(self):
        a, b = 0.8, -0.8
        w = WeightVector(np.array([a, b]))
        gamma_fn = lambda p: lc_christoffel_xy(a, b, p[0], p[1])
        val = curvature_from_christoffel(gamma_fn, np.array([2.0, 1.4]), metric_fn=ratio_metric(w))
        assert abs(val) <= 1e-6

    def test_closed_form_value(self):
        a = b = 0.5
        w = WeightVector(np.array([a, b]))
        gamma_fn = lambda p: lc_christoffel_xy(a, b, p[0], p[1])
        val = curvature_from_christoffel(gamma_fn, np.array([2.0, 2.0]), metric_fn=ratio_metric(w))
        assert abs(val + 8.0 / 9.0) <= 1e-5


class TestOracleAnyDimension:
    def test_round_three_sphere(self):
        # diag(1, sin^2 a, sin^2 a sin^2 b): the unit 3-sphere, R = n(n - 1) = 6
        def metric(p):
            sa, sb = math.sin(p[0]) ** 2, math.sin(p[1]) ** 2
            return np.diag([1.0, sa, sa * sb])
        gamma_fn = lambda p: christoffel_from_metric(metric, p)
        val = curvature_from_christoffel(gamma_fn, np.array([1.1, 0.8, 0.3]), metric_fn=metric)
        assert_close(val, 6.0, 1e-5)

    def test_flat_space_in_spherical_coordinates(self):
        metric = lambda p: np.diag([1.0, p[0] ** 2, (p[0] * math.sin(p[1])) ** 2])
        p = np.array([1.7, 0.9, 0.4])
        gamma = christoffel_from_metric(metric, p)
        assert_close(gamma.array[0, 1, 1], -1.7, 1e-9)  # Gamma^r_theta theta = -r
        gamma_fn = lambda q: christoffel_from_metric(metric, q)
        assert abs(curvature_from_christoffel(gamma_fn, p, metric_fn=metric)) <= 1e-5

    @pytest.mark.parametrize("alpha, ricci", [
        ((0.5, 0.3, 0.2), -5.95608970694873),
        ((0.4, 0.3, 0.2, 0.1), -12.5294663718763),
    ])
    def test_log_chart_hessian_at_sigma_one(self, alpha, ricci):
        # the x-chart Hessian pulled back to log coordinates at sum(alpha) = 1
        # and S = 0.9, against a 40-digit mpmath Ricci scalar
        w = WeightVector(np.array(alpha))
        t = 0.9 * w.alpha / w.norm_sq
        gamma_fn = lambda p: christoffel_from_metric(log_metric(w), p)
        val = curvature_from_christoffel(gamma_fn, t, metric_fn=log_metric(w))
        assert_close(val, ricci, 1e-5)

    def test_singular_metric_rejected(self):
        metric = lambda p: np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [3.0, 6.0, 10.0]])
        with pytest.raises(SingularMetric):
            christoffel_from_metric(metric, np.array([0.1, 0.2, 0.3]))


class TestAffineConnections:
    def test_trivial_in_own_chart(self):
        p_log = ChartPoint(Chart.LOG, np.array([0.3, -0.4]))
        p_ratio = ChartPoint(Chart.RATIO, np.array([2.0, 4.0]))
        assert not np.any(affine_connection(AffineStructure.LOG_FLAT, Chart.LOG, p_log).array)
        assert not np.any(affine_connection(AffineStructure.RATIO_FLAT, Chart.RATIO, p_ratio).array)

    def test_log_flat_in_ratio_chart(self):
        p = ChartPoint(Chart.RATIO, np.array([2.0, 4.0]))
        gamma = affine_connection(AffineStructure.LOG_FLAT, Chart.RATIO, p)
        assert_close(gamma.array[0, 0, 0], -0.5, 1e-15)
        assert_close(gamma.array[1, 1, 1], -0.25, 1e-15)
        assert gamma.array[0, 0, 1] == 0.0 and gamma.array[1, 0, 0] == 0.0

    def test_ratio_flat_in_log_chart(self):
        p = ChartPoint(Chart.LOG, np.array([5.0, -3.0]))
        gamma = affine_connection(AffineStructure.RATIO_FLAT, Chart.LOG, p)
        assert gamma.array[0, 0, 0] == 1.0
        assert gamma.array[1, 1, 1] == 1.0
        assert gamma.array[0, 1, 1] == 0.0

    def test_flat_curvature(self, rng):
        for structure, chart in (
            (AffineStructure.LOG_FLAT, Chart.RATIO),
            (AffineStructure.RATIO_FLAT, Chart.LOG),
        ):
            coords = np.exp(rng.uniform(-1, 1, 2)) if chart is Chart.RATIO else rng.uniform(-1, 1, 2)
            gamma_fn = lambda p: affine_connection(structure, chart, ChartPoint(chart, p))
            assert abs(curvature_from_christoffel(gamma_fn, coords)) <= 1e-8

    def test_n_dimensional(self):
        p = ChartPoint(Chart.RATIO, np.array([1.0, 2.0, 4.0]))
        gamma = affine_connection(AffineStructure.LOG_FLAT, Chart.RATIO, p)
        assert gamma.array.shape == (3, 3, 3)
        assert_close(gamma.array[2, 2, 2], -0.25, 1e-15)


class TestProjectiveObstruction:
    def test_unit_point(self):
        assert projective_obstruction(ChartPoint(Chart.RATIO, np.ones(2))) == 0.5

    def test_componentwise_max(self):
        assert projective_obstruction(ChartPoint(Chart.RATIO, np.array([2.0, 4.0]))) == 0.25

    def test_one_dimensional_vacuous(self):
        assert projective_obstruction(ChartPoint(Chart.RATIO, np.array([3.0]))) == 0.0

    def test_positive_everywhere(self, rng):
        for n in (2, 3, 5):
            for _ in range(20):
                x = ChartPoint(Chart.RATIO, np.exp(rng.uniform(-3, 3, n)))
                assert projective_obstruction(x) > 0.0
