import math
import warnings

import numpy as np
import pytest

from recipgeo import (
    AffineStructure,
    Chart,
    ChartPoint,
    GeodesicState,
    TerminationReason,
    WeightVector,
    affine_geodesic_log,
    affine_geodesic_ratio,
    affine_trajectory,
    cost_log,
    delta,
    hessian_ratio,
    integrate_geodesic,
    lc_christoffel_xy,
    lc_rhs_qr,
    lc_rhs_xy,
    log_to_qr,
    qr_residual,
    radical_basis,
    tangent_constraints,
    z_xy,
)
from recipgeo import flows, geodesics
from recipgeo.connection import EPS_SINGULAR
from recipgeo.core import ROW_MATH, S_MAX
from recipgeo.errors import (
    InadmissibleInitialState,
    InvalidSampleCount,
    InvalidSpan,
    NonPositiveCoordinate,
    RecipGeoError,
    SingularMetric,
    ZeroExponent,
    ZeroQ,
    ZeroSum,
)

from conftest import assert_close, bits

W11 = WeightVector(np.array([1.0, 1.0]))


class TestTangentConstraints:
    def test_unit_surface_point(self):
        c = tangent_constraints(1.0, 0.4, 0.7)
        assert c.ratio_plus == 1.0
        assert_close(c.ratio_minus, -0.7 / 0.4, 1e-14)

    def test_symmetric_slope_zero(self):
        assert tangent_constraints(2.0, 0.5, 0.5).qr_slope == 0.0

    def test_power_value(self):
        # 1/a + 1/b = 3 + 2 = 5 at a = 1/3, b = 1/2
        c = tangent_constraints(2.0, 1 / 3, 1 / 2)
        assert_close(c.ratio_plus, 32.0, 1e-12)
        assert_close(c.qr_slope, (1 / 3 - 1 / 2) / (1 / 3 + 1 / 2), 1e-14)

    def test_opposite_branches_for_equal_weights(self):
        c = tangent_constraints(3.0, 0.5, 0.5)
        assert c.ratio_plus * c.ratio_minus < 0.0

    def test_errors(self):
        with pytest.raises(ZeroExponent):
            tangent_constraints(1.0, 0.0, 0.5)
        with pytest.raises(ZeroSum):
            tangent_constraints(1.0, 0.5, -0.5)


class TestAffineLog:
    def test_identity_at_zero(self):
        t0 = np.array([0.4, -1.0])
        np.testing.assert_array_equal(affine_geodesic_log(t0, np.array([1.0, 2.0]), 0.0), t0)

    def test_ratio_image_is_exponential(self):
        t0 = np.array([0.0, 0.0])
        v = np.array([0.3, -0.7])
        x1 = np.exp(affine_geodesic_log(t0, v, 1.0))
        x0 = np.exp(t0)
        np.testing.assert_allclose(x1 / x0, np.exp(v), rtol=1e-14)

    def test_radical_direction_keeps_cost_constant(self):
        w = WeightVector(np.array([0.6, -0.2, 0.7]))
        v = radical_basis(w)[0]
        t0 = np.array([0.5, 1.0, -0.3])
        J0 = cost_log(ChartPoint(Chart.LOG, t0), w).J
        for lam in np.linspace(-20.0, 20.0, 9):
            t = affine_geodesic_log(t0, v, float(lam))
            assert_close(cost_log(ChartPoint(Chart.LOG, t), w).J, J0, 1e-12)


class TestAffineRatio:
    def test_maximal_interval_left_motion(self):
        _, (lo, hi) = affine_geodesic_ratio(np.array([1.0, 1.0]), np.array([-1.0, 0.0]))
        assert lo == -math.inf
        assert hi == 1.0

    def test_maximal_interval_growth(self):
        _, (lo, hi) = affine_geodesic_ratio(np.array([1.0, 1.0]), np.array([1.0, 1.0]))
        assert lo == -1.0
        assert hi == math.inf

    def test_zero_velocity_unbounded(self):
        _, (lo, hi) = affine_geodesic_ratio(np.array([2.0]), np.array([0.0]))
        assert lo == -math.inf and hi == math.inf

    def test_log_image_satisfies_reduced_equation(self):
        # s(lam) = log(x0 + lam v) obeys s'' + (s')^2 = 0, checked with the
        # exact velocity and one finite-difference layer for s''
        x0, v = 2.0, -0.5
        h = 1e-5
        for lam in (0.0, 0.7, 1.5):
            sdot = lambda l: v / (x0 + l * v)
            sddot = (sdot(lam + h) - sdot(lam - h)) / (2.0 * h)
            assert abs(sddot + sdot(lam) ** 2) <= 1e-10

    def test_trajectory_truncated_at_boundary(self):
        start = ChartPoint(Chart.RATIO, np.array([1.0, 1.0]))
        traj = affine_trajectory(
            AffineStructure.RATIO_FLAT, start, np.array([-1.0, 0.0]), W11, (0.0, 5.0), num=64
        )
        assert traj.termination is TerminationReason.DOMAIN_BOUNDARY
        assert traj.lambdas[-1] < 1.0
        assert np.all(traj.positions > 0.0)

    def test_trajectory_full_span(self):
        start = ChartPoint(Chart.RATIO, np.array([1.0, 1.0]))
        traj = affine_trajectory(
            AffineStructure.RATIO_FLAT, start, np.array([1.0, 2.0]), W11, (0.0, 3.0), num=32
        )
        assert traj.termination is TerminationReason.SPAN_COMPLETE
        assert traj.lambdas[-1] == 3.0

    def test_trajectory_ends_where_log_x_reaches_s_max(self):
        # x_1 would pass the double range within the span: the run ends
        # where log x_1 reaches S_MAX, with no overflow warned about
        start = ChartPoint(Chart.RATIO, np.array([1.0, 1.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = affine_trajectory(
                AffineStructure.RATIO_FLAT, start, np.array([1e300, 0.0]), W11, (0.0, 1e10), num=3
            )
        assert traj.termination is TerminationReason.DOMAIN_BOUNDARY
        assert np.all(np.log(traj.positions) <= S_MAX)
        assert traj.lambdas[-1] > (1.0 - 1e-8) * (math.exp(S_MAX) - 1.0) / 1e300

    def test_log_flat_trajectory_ends_where_S_reaches_s_max(self):
        # S = alpha . t = 2 lam reaches S_MAX at lam = 350, before either log
        # coordinate does at lam = 700: the run ends there, and every sample's
        # cost stays inside the wall
        start = ChartPoint(Chart.RATIO, np.array([1.0, 1.0]))
        v = np.array([1.0, 1.0])
        traj = affine_trajectory(AffineStructure.LOG_FLAT, start, v, W11, (0.0, 1000.0), num=3)
        assert traj.termination is TerminationReason.DOMAIN_BOUNDARY
        assert (1.0 - 1e-8) * 350.0 < traj.lambdas[-1] < 350.0
        assert np.all(np.abs(np.log(traj.positions) @ W11.alpha) <= S_MAX)

    def test_log_flat_trajectory_accelerations(self):
        start = ChartPoint(Chart.RATIO, np.array([2.0, 1.0]))
        v = np.array([0.3, -0.4])
        traj = affine_trajectory(AffineStructure.LOG_FLAT, start, v, W11, (0.0, 2.0), num=16)
        np.testing.assert_allclose(traj.velocities, v * traj.positions, rtol=1e-13)
        np.testing.assert_allclose(traj.accelerations, v * v * traj.positions, rtol=1e-13)


class TestLcRhs:
    def test_zero_velocity(self):
        st = GeodesicState(Chart.RATIO, [2.0, 3.0], [0.0, 0.0], 0.0)
        np.testing.assert_array_equal(lc_rhs_xy(st, 0.3, 0.4), [0.0, 0.0])

    def test_contraction_consistency(self, rng):
        for _ in range(50):
            a, b = rng.uniform(0.2, 1.2, 2) * np.where(rng.uniform(size=2) < 0.5, -1, 1)
            x, y = np.exp(rng.uniform(-1, 1, 2))
            if abs(delta(a, b, z_xy(a, b, x, y))) < 0.05:
                continue
            v = rng.uniform(-2, 2, 2)
            st = GeodesicState(Chart.RATIO, [x, y], v, 0.0)
            acc = lc_rhs_xy(st, a, b)
            expected = -np.einsum("kij,i,j->k", lc_christoffel_xy(a, b, x, y).array, v, v)
            scale = max(1.0, float(np.max(np.abs(expected))))
            assert np.max(np.abs(acc - expected)) / scale <= 1e-10

    def test_swap_symmetry(self):
        a, b, x, y = 0.4, 0.9, 2.0, 1.3
        vx, vy = 0.5, -0.2
        acc1 = lc_rhs_xy(GeodesicState(Chart.RATIO, [x, y], [vx, vy], 0.0), a, b)
        acc2 = lc_rhs_xy(GeodesicState(Chart.RATIO, [y, x], [vy, vx], 0.0), b, a)
        assert_close(acc1[0], acc2[1], 1e-12)
        assert_close(acc1[1], acc2[0], 1e-12)

    @pytest.mark.parametrize("rhs, chart, position, a, b, error", [
        (lc_rhs_xy, Chart.RATIO, [1.0, 1.0], 0.4, 0.7, SingularMetric),  # R = 1: Delta = 0
        (lc_rhs_qr, Chart.QR, [0.0, 0.3], 0.4, 0.7, ZeroQ),  # the zero-cost line q = 0
        (lc_rhs_qr, Chart.QR, [math.atanh(0.5), 0.3], 0.2, 0.3, SingularMetric),  # tanh q = a + b: L = 0
    ], ids=["xy-zero-cost", "qr-zero-q", "qr-secondary-locus"])
    def test_guards(self, rhs, chart, position, a, b, error):
        with pytest.raises(RecipGeoError) as exc:
            rhs(GeodesicState(chart, position, [0.5, -0.2], 0.0), a, b)
        assert type(exc.value) is error

    def test_qr_symmetric_preserves_zero_rdot(self):
        st = GeodesicState(Chart.QR, [0.9, 0.2], [-0.5, 0.0], 0.0)
        acc = lc_rhs_qr(st, 0.5, 0.5)
        assert acc[1] == 0.0

    def test_qr_velocity_homogeneity(self):
        st1 = GeodesicState(Chart.QR, [0.9, 0.2], [-0.5, 0.3], 0.0)
        st2 = GeodesicState(Chart.QR, [0.9, 0.2], [-1.0, 0.6], 0.0)
        acc1 = lc_rhs_qr(st1, 0.4, 0.7)
        acc2 = lc_rhs_qr(st2, 0.4, 0.7)
        np.testing.assert_allclose(acc2, 4.0 * acc1, rtol=1e-12)

    def test_qr_matches_transported_xy(self, rng):
        for _ in range(30):
            a, b = rng.uniform(0.2, 1.0, 2)
            x, y = np.exp(rng.uniform(-0.8, 0.8, 2))
            q = a * math.log(x) + b * math.log(y)
            if abs(math.sinh(q)) < 0.1 or abs((a + b) * math.cosh(q) - math.sinh(q)) < 0.05:
                continue
            if abs(delta(a, b, z_xy(a, b, x, y))) < 0.05:
                continue
            vx, vy = rng.uniform(-1.5, 1.5, 2)
            lx, ly = vx / x, vy / y
            acc = lc_rhs_xy(GeodesicState(Chart.RATIO, [x, y], [vx, vy], 0.0), a, b)
            gx, gy = acc[0] / x - lx * lx, acc[1] / y - ly * ly
            expected = np.array([a * gx + b * gy, -b * gx + a * gy])
            qd, rd = a * lx + b * ly, -b * lx + a * ly
            r = -b * math.log(x) + a * math.log(y)
            got = lc_rhs_qr(GeodesicState(Chart.QR, [q, r], [qd, rd], 0.0), a, b)
            scale = max(1.0, float(np.max(np.abs(expected))))
            assert np.max(np.abs(got - expected)) / scale <= 1e-8


def _kernel_accel(kernel, a, b):
    """The kernel's acceleration at one state (4,), on floats, or at rows
    (N, 4), on arrays."""
    def form(r):
        rhs, _ = kernel(a, b, ROW_MATH if r.ndim == 2 else math)
        return np.array(rhs(None, r.T)[2:]).T
    return form


def _row_cases(rng):
    """name -> (form, rows, singular): `form` maps one point (k,) to (m,)
    and rows (N, k) to (N, m); `singular` holds the indices of the rows where
    the one-point call raises."""
    a, b = 0.7, -0.7
    x, y = np.exp(rng.uniform(-1.2, 1.2, (2, 200)))
    keep = np.abs(delta(a, b, z_xy(a, b, x, y))) >= 0.05
    x, y = np.append(x[keep], 1.3), np.append(y[keep], 1.3)  # x = y, a = -b: Z = 1 exactly
    xy_rows = np.column_stack([x, y, rng.uniform(-2.0, 2.0, (x.size, 2))])

    q = rng.uniform(-1.5, 1.5, 200)
    q = np.append(q[(np.abs(np.sinh(q)) >= 0.1) & (np.abs(0.5 * np.cosh(q) - np.sinh(q)) >= 0.05)], 0.0)
    qr_rows = np.column_stack([q, np.zeros(q.size), rng.uniform(-2.0, 2.0, (q.size, 2))])  # (q, r, q', r')

    alpha = np.array([0.6, -0.3, 0.9])
    n2 = float(alpha @ alpha)
    t_rows = np.vstack([rng.uniform(-3.0, 3.0, (200, 3)), 400.0 * alpha / n2])  # |S| = 400

    w = WeightVector(alpha)
    tau_star = flows.blowup_time(0.9, w)
    tau_rows = np.append(rng.uniform(-2.0, tau_star, 200), [tau_star + 0.1, 3.0])[:, None]  # past tau*
    return {
        "accel_xy": (_kernel_accel(geodesics._xy_kernel, a, b), xy_rows, [len(xy_rows) - 1]),
        "accel_qr": (_kernel_accel(geodesics._qr_kernel, 0.8, -0.3), qr_rows, [len(qr_rows) - 1]),
        "flow_velocity": (lambda r: flows._flow_velocity(r, alpha, -1.0), t_rows, []),
        "flow_accel": (lambda r: flows._flow_accel(r, alpha, n2), t_rows, []),
        "closed_form_S": (lambda r: np.array(flows.closed_form_S(0.9, r.T[0], w, flows.FlowSign.ASCENT))[..., None],
                          tau_rows, [len(tau_rows) - 2, len(tau_rows) - 1]),
        "radical_projections": (lambda r: flows.radical_projections(r, w), t_rows, []),
    }


class TestRowsMatchPoints:
    """Each closed form on rows against the same form at one point: equal
    bit for bit (so well within a deviation of 1e-14), NaN rows where the
    point call raises, and the same infinities where sinh(2S) overflows."""

    @pytest.mark.parametrize("name", ["accel_xy", "accel_qr", "flow_velocity", "flow_accel",
                                      "closed_form_S", "radical_projections"])
    def test_rows_match_points(self, name, rng):
        form, rows, singular = _row_cases(rng)[name]
        assert len(rows) > 150
        batched = form(rows)
        assert batched.shape[0] == len(rows)
        for i, row in enumerate(rows):
            if i in singular:
                with pytest.raises(RecipGeoError):
                    form(row)
                assert np.all(np.isnan(batched[i]))
                continue
            np.testing.assert_array_equal(batched[i], form(row), err_msg=f"{name} row {i}")
        if name == "flow_accel":
            assert np.all(np.isinf(batched[-1]))


class TestIntegrateGeodesic:
    def test_zero_velocity_constant(self):
        st = GeodesicState(Chart.RATIO, [2.0, 3.0], [0.0, 0.0], 0.0)
        traj = integrate_geodesic(st, 0.3, 0.4, (0.0, 2.0), tol=1e-10, samples=16)
        assert traj.termination is TerminationReason.SPAN_COMPLETE
        np.testing.assert_allclose(traj.positions, np.tile([2.0, 3.0], (16, 1)), rtol=1e-12)

    def test_reference_run_one(self):
        st = GeodesicState(Chart.RATIO, [4.0, 2.0], [-1.0, 1.0], 0.0)
        traj = integrate_geodesic(st, 1 / 3, 1 / 2, (0.0, 8.0), tol=1e-10)
        assert traj.termination is TerminationReason.SINGULARITY_REACHED
        res = qr_residual(traj, 1 / 3, 1 / 2)
        deltas = np.array([delta(1 / 3, 1 / 2, z_xy(1 / 3, 1 / 2, x, y)) for x, y in traj.positions])
        assert np.max(res[np.abs(deltas) > 1e-3]) <= 1e-8

    def test_reference_run_two(self):
        st = GeodesicState(Chart.RATIO, [1.0, 2.0], [-1.0, 3.0], 0.0)
        traj = integrate_geodesic(st, -2.0, 1.0, (0.0, 4.0), tol=1e-10)
        assert traj.termination is TerminationReason.SPAN_COMPLETE
        res = qr_residual(traj, -2.0, 1.0)
        deltas = np.array([delta(-2.0, 1.0, z_xy(-2.0, 1.0, x, y)) for x, y in traj.positions])
        assert np.max(res[np.abs(deltas) > 1e-3]) <= 1e-8

    def test_lambda_monotone(self):
        st = GeodesicState(Chart.RATIO, [1.0, 2.0], [-1.0, 3.0], 0.0)
        traj = integrate_geodesic(st, -2.0, 1.0, (0.0, 2.0), tol=1e-8, samples=64)
        lams = traj.lambdas
        assert np.all(np.diff(lams) > 0.0)

    def test_energy_first_integral(self):
        a, b = -2.0, 1.0
        w = WeightVector(np.array([a, b]))
        st = GeodesicState(Chart.RATIO, [1.0, 2.0], [-1.0, 3.0], 0.0)
        tol = 1e-10
        traj = integrate_geodesic(st, a, b, (0.0, 4.0), tol=tol)
        energies = [
            float(v @ hessian_ratio(ChartPoint(Chart.RATIO, x), w).to_dense() @ v)
            for x, v in zip(traj.positions, traj.velocities)
        ]
        budget = 5.0 * tol * max(traj.accepted, 1) * max(1.0, abs(energies[0]))
        assert max(energies) - min(energies) <= budget

    def test_inadmissible_start(self):
        st = GeodesicState(Chart.RATIO, [1.0, 1.0], [1.0, 0.0], 0.0)  # Z = 1
        with pytest.raises(InadmissibleInitialState):
            integrate_geodesic(st, 0.5, 0.5, (0.0, 1.0))

    def test_start_where_z_overflows(self):
        for st in (GeodesicState(Chart.RATIO, [1e200, 1e200], [1.0, 1.0], 0.0),
                   GeodesicState(Chart.QR, [360.0, 0.0], [1.0, 0.1], 0.0)):
            with pytest.raises(InadmissibleInitialState):
                integrate_geodesic(st, 1.0, 1.0, (0.0, 1.0))

    def test_invalid_span(self):
        st = GeodesicState(Chart.RATIO, [2.0, 3.0], [0.1, 0.0], 0.0)
        with pytest.raises(InvalidSpan):
            integrate_geodesic(st, 0.5, 0.5, (1.0, 1.0))

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
    def test_invalid_tol_before_start_guard(self, tol):
        # the same error from a start on R = 1 (a = b = 1) as from an admissible one
        on_locus = GeodesicState(Chart.RATIO, [1.0, 1.0], [1.0, 0.0], 0.0)
        admissible = GeodesicState(Chart.RATIO, [4.0, 2.0], [-1.0, 1.0], 0.0)
        for st, a, b in ((on_locus, 1.0, 1.0), (admissible, 1 / 3, 1 / 2)):
            with pytest.raises(InvalidSpan):
                integrate_geodesic(st, a, b, (0.0, 1.0), tol=tol)

    def test_too_few_samples(self):
        st = GeodesicState(Chart.RATIO, [2.0, 3.0], [0.1, 0.0], 0.0)
        for samples in (1, 0, -3):
            with pytest.raises(InvalidSampleCount):
                integrate_geodesic(st, 0.5, 0.5, (0.0, 1.0), samples=samples)
        start = ChartPoint(Chart.RATIO, np.array([1.0, 1.0]))
        with pytest.raises(InvalidSampleCount):
            affine_trajectory(AffineStructure.LOG_FLAT, start, np.array([1.0, 0.0]), W11, (0.0, 1.0), num=1)

    def test_arrays_and_accelerations(self):
        # one row per sample; each acceleration is the closed-form rhs there
        for chart, state, rhs in (
            (Chart.RATIO, ([1.0, 2.0], [-1.0, 3.0]), lc_rhs_xy),
            (Chart.QR, ([0.7, 0.3], [-0.2, 0.4]), lc_rhs_qr),
        ):
            st = GeodesicState(chart, *state, 0.0)
            traj = integrate_geodesic(st, 0.8, -0.3, (0.0, 1.0), tol=1e-10, samples=33)
            assert traj.chart is chart
            assert traj.lambdas.shape == (33,)
            for arr in (traj.positions, traj.velocities, traj.accelerations):
                assert arr.shape == (33, 2)
            np.testing.assert_array_equal(traj.positions[0], state[0])
            for lam, x, v, acc in zip(traj.lambdas, traj.positions, traj.velocities, traj.accelerations):
                np.testing.assert_array_equal(acc, rhs(GeodesicState(chart, x, v, lam), 0.8, -0.3))

    @pytest.mark.parametrize("a, b, state, span", [
        (1 / 3, 1 / 2, ([4.0, 2.0], [-1.0, 1.0]), (0.0, 8.0)),
        (0.8, -0.8, ([2.0, 1.0], [0.7071, 0.7071]), (0.0, 4.0)),
    ])
    def test_accelerations_up_to_singular_end(self, a, b, state, span):
        # runs that stop on Delta = 0, where 1/Delta amplifies the last bit
        # of Z: each sampled acceleration is still the rhs at its row, bit
        # for bit, wherever the rhs is defined (|Delta| >= EPS_SINGULAR)
        traj = integrate_geodesic(GeodesicState(Chart.RATIO, *state, span[0]), a, b, span)
        assert traj.termination is not TerminationReason.SPAN_COMPLETE
        deltas = delta(a, b, z_xy(a, b, *traj.positions.T))
        assert np.min(np.abs(deltas)) < geodesics.DELTA_STOP
        checked = 0
        for lam, x, v, acc, d in zip(traj.lambdas, traj.positions, traj.velocities, traj.accelerations, deltas):
            if abs(d) >= EPS_SINGULAR:
                np.testing.assert_array_equal(acc, lc_rhs_xy(GeodesicState(Chart.RATIO, x, v, lam), a, b))
                checked += 1
            else:
                assert np.all(np.isfinite(acc))
        assert checked >= len(traj.lambdas) - 2

    def test_qr_chart_symmetric_case(self):
        st = GeodesicState(Chart.QR, [1.0, 0.3], [-0.4, 0.0], 0.0)
        traj = integrate_geodesic(st, 0.5, 0.5, (0.0, 3.0), tol=1e-10, samples=128)
        assert np.max(np.abs(traj.velocities[:, 1])) <= 1e-10

    def test_termination_soundness(self):
        # the guard reports the singularity, and the final sample lies
        # within the stop level
        st = GeodesicState(Chart.RATIO, [4.0, 2.0], [-1.0, 1.0], 0.0)
        traj = integrate_geodesic(st, 1 / 3, 1 / 2, (0.0, 8.0), tol=1e-10)
        assert traj.termination is TerminationReason.SINGULARITY_REACHED
        d = delta(1 / 3, 1 / 2, z_xy(1 / 3, 1 / 2, *traj.positions[-1]))
        assert abs(d) < geodesics.DELTA_STOP

    def test_reference_run_one_stop_is_stable_in_tol(self):
        st = GeodesicState(Chart.RATIO, [4.0, 2.0], [-1.0, 1.0], 0.0)
        ends = []
        for tol in (1e-8, 1e-10, 1e-12):
            traj = integrate_geodesic(st, 1 / 3, 1 / 2, (0.0, 8.0), tol=tol, samples=2)
            assert traj.termination is TerminationReason.SINGULARITY_REACHED
            ends.append(traj.lambdas[-1])
        assert max(ends) - min(ends) <= 1e-8


def _both_charts(a, b, x0, v0, span, tol=1e-10):
    """The geodesic from ratio-chart (x0, v0) integrated in each chart."""
    x0, v0 = np.asarray(x0, dtype=float), np.asarray(v0, dtype=float)
    q0, qd0 = log_to_qr(np.log(x0), a, b), log_to_qr(v0 / x0, a, b)
    return [integrate_geodesic(GeodesicState(chart, p, v, span[0]), a, b, span, tol=tol, samples=2)
            for chart, p, v in ((Chart.RATIO, x0, v0), (Chart.QR, q0, qd0))]


class TestChartsAgree:
    @pytest.mark.parametrize("k", range(0, 40, 4))
    def test_fixed_fan(self, k):
        # every fourth of the 40 unit directions from (4, 2): both charts end
        # for the same reason at the same parameter
        th = 2.0 * math.pi * k / 40
        ratio, qr = _both_charts(1 / 3, 1 / 2, [4.0, 2.0], [math.cos(th), math.sin(th)], (0.0, 8.0))
        assert ratio.termination is qr.termination
        lam = qr.lambdas[-1]
        assert abs(ratio.lambdas[-1] - lam) <= 1e-8 * max(1.0, abs(lam))

    def test_opposite_weights_reach_the_locus(self):
        th = math.pi / 4
        ratio, qr = _both_charts(0.8, -0.8, [2.0, 1.0], [math.cos(th), math.sin(th)], (0.0, 4.0))
        assert ratio.termination is qr.termination is TerminationReason.SINGULARITY_REACHED


class TestQrResidual:
    def test_constant_trajectory_zero(self):
        st = GeodesicState(Chart.RATIO, [2.0, 3.0], [0.0, 0.0], 0.0)
        traj = integrate_geodesic(st, 0.3, 0.4, (0.0, 1.0), tol=1e-10, samples=8)
        assert np.max(qr_residual(traj, 0.3, 0.4)) == 0.0

    def test_affine_path_fails_geodesic_equations(self):
        # a log-flat affine geodesic is not a Levi-Civita geodesic: feeding
        # its own accelerations into the rotated-chart forms leaves a large
        # defect
        a, b = 1 / 3, 1 / 2
        start = ChartPoint(Chart.RATIO, np.array([4.0, 2.0]))
        traj = affine_trajectory(
            AffineStructure.LOG_FLAT, start, np.array([-0.25, 0.5]), WeightVector(np.array([a, b])), (0.0, 1.0),
            num=32
        )
        res = qr_residual(traj, a, b)
        assert np.max(res) > 1e-3

    def test_qr_chart_trajectory(self):
        # the reference run 2 integrated in the (q, r) chart, residual from
        # its stored (q'', r'') away from the singular guard
        a, b = -2.0, 1.0
        st = GeodesicState(Chart.RATIO, [1.0, 2.0], [-1.0, 3.0], 0.0)
        ratio = integrate_geodesic(st, a, b, (0.0, 4.0), tol=1e-10)
        x, y = st.position
        lx, ly = st.velocity / st.position
        s0, t0 = math.log(x), math.log(y)
        sq = GeodesicState(Chart.QR, [a * s0 + b * t0, -b * s0 + a * t0], [a * lx + b * ly, -b * lx + a * ly], 0.0)
        traj = integrate_geodesic(sq, a, b, (0.0, 4.0), tol=1e-10)
        assert traj.termination is ratio.termination
        res = qr_residual(traj, a, b)
        deltas = np.array([delta(a, b, math.exp(2.0 * q)) for q in traj.positions[:, 0]])
        far = np.abs(deltas) > 1e-3
        assert far.sum() > 400
        assert np.max(res[far]) <= 1e-8

    def test_infinite_at_q_zero(self):
        traj = integrate_geodesic(GeodesicState(Chart.QR, [0.5, 0.0], [0.1, 0.2], 0.0), 0.4, 0.7, (0.0, 1.0))
        traj.positions[3, 0] = 0.0
        res = qr_residual(traj, 0.4, 0.7)
        assert res[3] == math.inf
        assert np.all(np.isfinite(np.delete(res, 3)))

    def test_lc_trajectory_small_residual(self):
        st = GeodesicState(Chart.RATIO, [1.0, 2.0], [-1.0, 3.0], 0.0)
        traj = integrate_geodesic(st, -2.0, 1.0, (0.0, 2.0), tol=1e-10, samples=64)
        assert np.max(qr_residual(traj, -2.0, 1.0)) <= 1e-8


# -- the run's kernels against the public functions -----------------------------

def _accel_xy_reference(a, b, x, y, vx, vy):
    """(x'', y'') written out term by term from the public z_xy and delta,
    with the guard of the run's rhs: the closed form the ratio kernel
    evaluates with its (a, b) constants hoisted."""
    Z = z_xy(a, b, x, y)
    Delta = delta(a, b, Z)
    if abs(Delta) < EPS_SINGULAR:
        raise SingularMetric("reference guard")
    Z2 = Z * Z
    ax = (
        -((a + 1.0) * (a + 2.0 * b + 2.0) - 2.0 * Z * (a * a - 2.0 * a * b + 2.0)
          + (a - 1.0) * Z2 * (a + 2.0 * b - 2.0)) / (2.0 * Delta * x) * vx * vx
        - b * (2.0 * Z * (b - 2.0 * a) + (b - 1.0) * Z2 + b + 1.0) / (Delta * y) * vx * vy
        + b * x * ((b - 1.0) * Z2 + 6.0 * b * Z + b + 1.0) / (2.0 * Delta * y * y) * vy * vy
    )
    ay = (
        -((b + 1.0) * (2.0 * a + b + 2.0) - 2.0 * Z * (-2.0 * a * b + b * b + 2.0)
          + (b - 1.0) * Z2 * (2.0 * a + b - 2.0)) / (2.0 * Delta * y) * vy * vy
        - a * (2.0 * Z * (a - 2.0 * b) + (a - 1.0) * Z2 + a + 1.0) / (Delta * x) * vx * vy
        + a * y * ((a - 1.0) * Z2 + 6.0 * a * Z + a + 1.0) / (2.0 * Delta * x * x) * vx * vx
    )
    return [ax, ay]


def _accel_qr_reference(a, b, q, qd, rd):
    """(q'', r'') = (-Fq / L, -Fr / L) written out term by term, with the
    guards of the run's rhs."""
    if abs(math.sinh(q)) < EPS_SINGULAR:
        raise ZeroQ("reference guard")
    n2 = a * a + b * b
    ch, sh = math.cosh(q), math.sinh(q)
    L = 2.0 * n2 * n2 * ((a + b) * ch - sh)
    a4 = a**4 - a**3 * b + 4.0 * a * a * b * b - a * b**3 + b**4
    Fq = (
        -2.0 * a * b * (a - b) * (a + b) * qd * ch * rd
        + a * b * (a + b) ** 2 * ch * rd * rd
        + qd * qd * ((a + b) * n2 * n2 * sh - a4 * ch)
    )
    cth, csch, a3 = ch / sh, 1.0 / sh, a**3 + b**3
    Fr = (
        2.0 * (a + b) * qd * cth * rd * (n2 * n2 * ch - a3 * sh)
        - 0.5 * (a - b) * qd * qd * csch * (-a3 * math.sinh(2.0 * q) + n2 * n2 * math.cosh(2.0 * q) + 3.0 * n2 * n2)
        + a * b * (a - b) * (a + b) * ch * rd * rd
    )
    if abs(L) < EPS_SINGULAR:
        raise SingularMetric("reference guard")
    return [-Fq / L, -Fr / L]


def _draw_weights(rng, kind):
    """One (a, b) of a weight class: a + b < 1, a + b > 1 or a = -b."""
    if kind == "sum_below_1":
        a = rng.uniform(0.1, 0.8)
        return a, rng.uniform(0.05, 0.95 - a)
    if kind == "sum_above_1":
        return tuple(rng.uniform(0.55, 1.5, 2))
    a = rng.uniform(0.1, 1.5) * rng.choice([-1.0, 1.0])
    return a, -a


class _Captured(Exception):
    pass


def _run_callables(monkeypatch, state, a, b):
    """The rhs and stop that integrate_geodesic hands ode.integrate for a
    run from `state`, caught before any step is taken."""
    got = {}

    def capture(rhs, y0, span, tol=1e-10, stop=None):
        got.update(rhs=rhs, stop=stop)
        raise _Captured

    with monkeypatch.context() as m:
        m.setattr(geodesics.ode, "integrate", capture)
        with pytest.raises(_Captured):
            integrate_geodesic(state, a, b, (0.0, 1.0))
    return got["rhs"], got["stop"]


def _z_at_delta(a, b, level, side):
    """Z = 1 + side e, e > 0, where |Delta| = level, by bisection from
    Z = 1 (|Delta| grows with e on [0, 0.1] in every weight class drawn)."""
    lo, hi = 0.0, 0.1
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if abs(delta(a, b, 1.0 + side * mid)) < level:
            lo = mid
        else:
            hi = mid
    return 1.0 + side * lo


WEIGHT_CLASSES = ["sum_below_1", "sum_above_1", "opposite"]
# an admissible start for every (a, b) drawn, for the tests that need no
# particular start
START_XY = GeodesicState(Chart.RATIO, [4.0, 2.0], [0.1, 0.2], 0.0)


class TestRunKernels:
    """The rhs and stop of a run, built once per (a, b), against lc_rhs_xy,
    lc_rhs_qr and the public z_xy and delta they inline: 200 seeded points
    for each weight class, equal bit for bit."""

    @pytest.mark.parametrize("kind", WEIGHT_CLASSES)
    def test_rhs_matches_public_functions(self, kind, rng, monkeypatch):
        for _ in range(200):
            a, b = _draw_weights(rng, kind)
            while True:
                x, y = np.exp(rng.uniform(-1.5, 1.5, 2))
                if abs(delta(a, b, z_xy(a, b, x, y))) >= 1e-3:
                    break
            vx, vy = rng.uniform(-2.0, 2.0, 2)
            st = GeodesicState(Chart.RATIO, [x, y], [vx, vy], 0.0)
            rhs, _ = _run_callables(monkeypatch, st, a, b)
            got = rhs(0.0, [x, y, vx, vy])
            assert bits(got[:2]) == bits([vx, vy])
            assert bits(got[2:]) == bits(lc_rhs_xy(st, a, b)) == bits(_accel_xy_reference(a, b, x, y, vx, vy))

            s, t = math.log(x), math.log(y)
            q, r = a * s + b * t, -b * s + a * t
            qd, rd = a * vx / x + b * vy / y, -b * vx / x + a * vy / y
            sq = GeodesicState(Chart.QR, [q, r], [qd, rd], 0.0)
            rhs, _ = _run_callables(monkeypatch, sq, a, b)
            got = rhs(0.0, [q, r, qd, rd])
            assert bits(got[:2]) == bits([qd, rd])
            assert bits(got[2:]) == bits(lc_rhs_qr(sq, a, b)) == bits(_accel_qr_reference(a, b, q, qd, rd))

    @pytest.mark.parametrize("kind", WEIGHT_CLASSES)
    def test_stop_either_side_of_delta_stop(self, kind, rng, monkeypatch):
        DS = geodesics.DELTA_STOP
        seen = {TerminationReason.SINGULARITY_REACHED: 0, None: 0}
        for i in range(200):
            a, b = _draw_weights(rng, kind)
            stop_xy = _run_callables(monkeypatch, START_XY, a, b)[1]
            stop_qr = _run_callables(monkeypatch, GeodesicState(Chart.QR, [1.3, 0.2], [0.1, 0.2], 0.0), a, b)[1]
            side = 1.0 if i % 2 else -1.0
            e = _z_at_delta(a, b, DS, side) - 1.0
            for Z, expect in ((1.0 + 0.999 * e, TerminationReason.SINGULARITY_REACHED), (1.0 + 1.001 * e, None)):
                y = math.exp(rng.uniform(-1.0, 1.0))
                x = math.exp((0.5 * math.log(Z) - b * math.log(y)) / a)
                assert bool(abs(delta(a, b, z_xy(a, b, x, y))) < DS) is (expect is not None)
                assert stop_xy(0.0, [x, y, 0.1, 0.2]) is expect
                q = 0.5 * math.log(Z)
                assert bool(abs(delta(a, b, math.exp(2.0 * q))) < DS) is (expect is not None)
                assert stop_qr(0.0, [q, 0.3, 0.1, 0.2]) is expect
                seen[expect] += 1
            for x, y in ((geodesics.DELTA_DOMAIN, 1.0), (1.0, geodesics.DELTA_DOMAIN), (0.0, 2.0), (2.0, -1.0)):
                assert stop_xy(0.0, [x, y, 0.1, 0.2]) is TerminationReason.DOMAIN_BOUNDARY
        assert seen[TerminationReason.SINGULARITY_REACHED] == seen[None] == 200

    @pytest.mark.parametrize("kind", WEIGHT_CLASSES)
    def test_nonpositive_coordinate(self, kind, rng, monkeypatch):
        a, b = _draw_weights(rng, kind)
        rhs = _run_callables(monkeypatch, START_XY, a, b)[0]
        for x, y in ((0.0, 2.0), (-0.0, 2.0), (-1.0, 2.0), (2.0, 0.0), (2.0, -3.0), (-math.inf, 1.0)):
            with pytest.raises(NonPositiveCoordinate):
                rhs(0.0, [x, y, 0.1, 0.2])
            with pytest.raises(NonPositiveCoordinate):
                lc_rhs_xy(GeodesicState(Chart.RATIO, [x, y], [0.1, 0.2], 0.0), a, b)
