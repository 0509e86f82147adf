import math

import numpy as np
import pytest

from recipgeo import (
    Chart,
    ChartPoint,
    FlowSign,
    TerminationReason,
    WeightVector,
    blowup_time,
    closed_form_S,
    cost_log,
    cost_rate,
    flow_constant,
    gradient_field,
    integrate_flow,
    radical_basis,
)
from recipgeo import flows
from recipgeo.core import alpha_dot
from recipgeo.errors import BlowupTime, InvalidSampleCount

from conftest import assert_close


class TestGradientField:
    def test_zero_on_zero_cost_leaf(self):
        w = WeightVector(np.array([0.5, -0.5]))
        t = np.array([1.0, 1.0])  # alpha . t = 0
        np.testing.assert_array_equal(gradient_field(t, w, FlowSign.ASCENT), [0.0, 0.0])

    def test_parallel_to_alpha(self, rng):
        w = WeightVector(np.array([0.7, -0.3, 0.4]))
        for _ in range(20):
            t = rng.uniform(-2, 2, 3)
            g = gradient_field(t, w, FlowSign.DESCENT)
            cross = g - (np.dot(g, w.alpha) / w.norm_sq) * w.alpha
            assert np.max(np.abs(cross)) <= 1e-12 * max(1.0, np.max(np.abs(g)))

    def test_rotated_components(self):
        # dq/dtau = |alpha|^2 sinh q, dr/dtau = 0
        a, b = 0.4, 0.9
        w = WeightVector(np.array([a, b]))
        t = np.array([0.8, -0.1])
        q = a * t[0] + b * t[1]
        g = gradient_field(t, w, FlowSign.ASCENT)
        assert_close(a * g[0] + b * g[1], w.norm_sq * math.sinh(q), 1e-13)
        assert abs(-b * g[0] + a * g[1]) <= 1e-15


class TestClosedForm:
    def test_fixed_point(self):
        w = WeightVector(np.array([1.0, 1.0]))
        for sign in FlowSign:
            assert closed_form_S(0.0, 5.0, w, sign) == 0.0

    def test_descent_decays(self):
        w = WeightVector(np.array([1.0]))
        values = [closed_form_S(2.0, tau, w, FlowSign.DESCENT) for tau in (0.0, 1.0, 5.0, 20.0)]
        assert values[0] == pytest.approx(2.0, abs=1e-12)
        assert all(v1 > v2 for v1, v2 in zip(values, values[1:]))
        assert values[-1] < 1e-7

    def test_ascent_blowup_raises(self):
        w = WeightVector(np.array([0.5, 0.5]))  # |alpha|^2 = 1/2
        tau_star = blowup_time(1.0, w)
        assert_close(tau_star, -math.log(math.tanh(0.5)) / 0.5, 1e-13)
        with pytest.raises(BlowupTime):
            closed_form_S(1.0, tau_star + 1e-6, w, FlowSign.ASCENT)
        # diverges approaching the horizon
        assert closed_form_S(1.0, tau_star - 1e-9, w, FlowSign.ASCENT) > 10.0

    def test_recovers_initial_value(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 5))
            w = WeightVector(rng.uniform(0.2, 1.2, n))
            S0 = float(rng.uniform(-3, 3))
            assert_close(closed_form_S(S0, 0.0, w, FlowSign.DESCENT), S0, 1e-12)


class TestFlowSolution:
    """The closed-form constants of one flow line: C, the conserved radical
    projections and the horizon tau*."""

    def test_constants(self):
        w = WeightVector(np.array([0.6, 0.8]))
        t0 = np.array([1.0, 0.5])
        S0 = float(np.dot(w.alpha, t0))
        assert_close(flow_constant(S0), math.tanh(S0 / 2.0), 1e-14)
        basis = radical_basis(w)
        np.testing.assert_allclose(flows.radical_projections(t0, w), basis @ t0, rtol=1e-14)

    def test_intervals(self):
        # an ascent lives on (-inf, tau*), a descent on (-tau*, inf): tau* is
        # finite off the zero-cost leaf and infinite on it
        w = WeightVector(np.array([1.0]))
        tau_star = blowup_time(alpha_dot(np.array([1.0]), w.alpha), w)
        assert math.isfinite(tau_star) and tau_star > 0.0
        assert blowup_time(alpha_dot(np.array([0.0]), w.alpha), w) == math.inf


class TestIntegrateFlow:
    def test_descent_monotone_cost(self):
        w = WeightVector(np.array([0.8, 0.3]))
        traj = integrate_flow(np.array([1.5, -0.4]), w, FlowSign.DESCENT, (0.0, 6.0), samples=128)
        costs = [cost_log(ChartPoint(Chart.LOG, t), w).J for t in traj.positions]
        diffs = np.diff(costs)
        assert np.all(diffs <= 1e-12)

    def test_ascent_monotone_cost(self):
        w = WeightVector(np.array([0.4, 0.2]))
        tau_star = blowup_time(float(w.alpha @ np.array([1.0, 0.5])), w)
        traj = integrate_flow(
            np.array([1.0, 0.5]), w, FlowSign.ASCENT, (0.0, 0.5 * tau_star), samples=64
        )
        costs = [cost_log(ChartPoint(Chart.LOG, t), w).J for t in traj.positions]
        assert np.all(np.diff(costs) >= -1e-12)
        for t in traj.positions[::16]:
            assert cost_rate(t, w, FlowSign.ASCENT) >= 0.0

    def test_stationary_start(self):
        w = WeightVector(np.array([0.5, -0.5]))
        traj = integrate_flow(np.array([2.0, 2.0]), w, FlowSign.DESCENT, (0.0, 4.0))
        assert traj.termination is TerminationReason.CONVERGED
        np.testing.assert_array_equal(traj.positions[-1], [2.0, 2.0])

    def test_descent_converges_then_stops(self):
        # the converged stop fires once the integration tolerance is tighter
        # than the 1e-12 threshold it watches
        w = WeightVector(np.array([1.0, 1.0]))
        traj = integrate_flow(
            np.array([0.6, 0.4]), w, FlowSign.DESCENT, (0.0, 50.0), tol=1e-13, samples=64
        )
        assert traj.termination is TerminationReason.CONVERGED
        S_end = float(np.dot(w.alpha, traj.positions[-1]))
        assert abs(S_end) < 1e-11

    def test_descent_cost_below_threshold_at_default_tol(self):
        w = WeightVector(np.array([1.0, 1.0]))
        traj = integrate_flow(np.array([1.2, 0.8]), w, FlowSign.DESCENT, (0.0, 30.0), samples=64)
        J_end = cost_log(ChartPoint(Chart.LOG, traj.positions[-1]), w).J
        assert J_end < 1e-12

    def test_closed_form_agreement(self, rng):
        for n in (2, 3, 5):
            for _ in range(12):
                w = WeightVector(rng.uniform(0.2, 1.2, n) * np.where(rng.uniform(size=n) < 0.5, -1, 1))
                t0 = rng.uniform(-3, 3, n)
                traj = integrate_flow(t0, w, FlowSign.DESCENT, (0.0, 2.0), tol=1e-10, samples=96)
                S0 = float(np.dot(w.alpha, t0))
                for tau, t in zip(traj.lambdas, traj.positions):
                    S_num = float(np.dot(w.alpha, t))
                    assert_close(S_num, closed_form_S(S0, tau, w, FlowSign.DESCENT), 1e-8)

    def test_transverse_conservation(self, rng):
        for n in (2, 3, 5):
            for _ in range(12):
                w = WeightVector(rng.uniform(0.2, 1.2, n) * np.where(rng.uniform(size=n) < 0.5, -1, 1))
                t0 = rng.uniform(-3, 3, n)
                traj = integrate_flow(t0, w, FlowSign.DESCENT, (0.0, 2.0), tol=1e-10, samples=96)
                basis = radical_basis(w)
                r0 = basis @ t0
                drift = max(float(np.max(np.abs(basis @ t - r0))) for t in traj.positions)
                assert drift <= 1e-10

    def test_ascent_blowup_time(self):
        w = WeightVector(np.array([0.5, 0.5]))
        t0 = np.array([1.2, 0.8])  # S0 = 1
        tau_star = blowup_time(1.0, w)
        traj = integrate_flow(t0, w, FlowSign.ASCENT, (0.0, 2.0 * tau_star), tol=1e-10, samples=64)
        assert traj.termination is TerminationReason.BLOWUP
        halt = traj.lambdas[-1]
        assert abs(halt - tau_star) / tau_star <= 1e-3

    def test_ascent_past_blowup_level_stops_at_start(self):
        w = WeightVector(np.array([0.5, 0.5]))
        t0 = np.array([24.0, 26.0])  # S0 = 25
        traj = integrate_flow(t0, w, FlowSign.ASCENT, (0.0, 1.0), samples=16)
        assert traj.termination is TerminationReason.BLOWUP
        assert traj.lambdas.tolist() == [0.0] and traj.accepted == 0
        np.testing.assert_array_equal(traj.positions, [t0])

    def test_descent_is_never_a_blowup(self):
        w = WeightVector(np.array([0.5, 0.5]))
        traj = integrate_flow(np.array([24.0, 26.0]), w, FlowSign.DESCENT, (0.0, 2.0), samples=16)  # S0 = 25
        assert traj.termination is TerminationReason.SPAN_COMPLETE
        assert float(np.dot(w.alpha, traj.positions[-1])) < 20.0

    def test_run_counts(self):
        # the trajectory carries the integrator's counts; no rhs call of a
        # descent fails, so each trial step costs six evaluations
        w = WeightVector(np.array([0.8, 0.3]))
        traj = integrate_flow(np.array([1.5, -0.4]), w, FlowSign.DESCENT, (0.0, 6.0), samples=16)
        assert traj.accepted > 0
        assert traj.nfev == 1 + 6 * (traj.accepted + traj.rejected)
        assert 6e-14 <= traj.h_min < traj.h_max <= 0.6
        start = integrate_flow(np.array([2.0, 2.0]), WeightVector(np.array([0.5, -0.5])),
                               FlowSign.DESCENT, (0.0, 4.0))
        assert (start.nfev, start.accepted) == (1, 0)
        assert math.isnan(start.h_min) and math.isnan(start.h_max)

    def test_too_few_samples(self):
        w = WeightVector(np.array([0.5, 0.5]))
        for samples in (1, 0, -3):
            with pytest.raises(InvalidSampleCount):
                integrate_flow(np.array([1.2, 0.8]), w, FlowSign.DESCENT, (0.0, 1.0), samples=samples)
        with pytest.raises(InvalidSampleCount):  # also where the flow starts converged
            integrate_flow(np.array([2.0, -2.0]), w, FlowSign.DESCENT, (0.0, 1.0), samples=0)

    def test_sampled_rates(self):
        # velocity rows are the gradient field and acceleration rows
        # |alpha|^2 sinh S cosh S alpha at each sampled position
        w = WeightVector(np.array([0.6, -0.3, 0.9]))
        traj = integrate_flow(np.array([0.5, 0.2, 0.4]), w, FlowSign.ASCENT, (0.0, 0.3), samples=40)
        assert traj.chart is Chart.LOG
        assert traj.positions.shape == traj.velocities.shape == traj.accelerations.shape == (40, 3)
        for t, v, acc in zip(traj.positions, traj.velocities, traj.accelerations):
            np.testing.assert_array_equal(v, gradient_field(t, w, FlowSign.ASCENT))
            S = float(w.alpha @ t)
            np.testing.assert_allclose(acc, w.norm_sq * math.sinh(S) * math.cosh(S) * w.alpha, rtol=1e-14)

    def test_cost_rate_matches_difference_quotient(self):
        w = WeightVector(np.array([0.7, 0.4]))
        traj = integrate_flow(np.array([1.0, -0.2]), w, FlowSign.DESCENT, (0.0, 1.0), samples=512)
        lams = traj.lambdas
        costs = np.array([cost_log(ChartPoint(Chart.LOG, t), w).J for t in traj.positions])
        mid_rates = (costs[2:] - costs[:-2]) / (lams[2:] - lams[:-2])
        for idx in range(10, 500, 37):
            rate = cost_rate(traj.positions[idx + 1], w, FlowSign.DESCENT)
            assert_close(mid_rates[idx], rate, 1e-6)


class TestDimensionalReduction:
    def test_scalar_equation_matches_rotated_equation(self, rng):
        # for n = 2 the S-evolution coincides with the q-evolution
        a, b = 0.8, -0.35
        w = WeightVector(np.array([a, b]))
        for _ in range(20):
            t = rng.uniform(-2, 2, 2)
            g = gradient_field(t, w, FlowSign.ASCENT)
            q = a * t[0] + b * t[1]
            qdot = a * g[0] + b * g[1]
            Sdot = float(np.dot(w.alpha, g))
            assert_close(qdot, w.norm_sq * math.sinh(q), 1e-12)
            assert_close(Sdot, qdot, 1e-14)

    @pytest.mark.parametrize("sign, span", [(FlowSign.DESCENT, (0.0, 2.0)), (FlowSign.ASCENT, (0.0, 5.0))])
    def test_integration_does_not_depend_on_n(self, sign, span):
        # |alpha|^2 = 1 and S0 = 1/2 are exact in binary for both flows, so
        # the one scalar equation they integrate is the same
        one = integrate_flow(np.array([0.5]), WeightVector(np.array([1.0])), sign, span, samples=64)
        w4 = WeightVector(np.full(4, 0.5))
        four = integrate_flow(np.full(4, 0.25), w4, sign, span, samples=64)
        np.testing.assert_array_equal(one.lambdas, four.lambdas)
        assert (one.accepted, one.rejected, one.nfev) == (four.accepted, four.rejected, four.nfev)
        assert (one.h_min, one.h_max) == (four.h_min, four.h_max)
        S4 = alpha_dot(four.positions, w4.alpha)
        np.testing.assert_allclose(S4, one.positions[:, 0], rtol=1e-15, atol=0.0)

    def test_radical_projections_conserved_by_construction(self, rng):
        # positions are rebuilt as t0 + (S - S0)/|alpha|^2 alpha, so the
        # projections move only by the rounding of t
        for k in range(200):
            n = (2, 3, 5, 8)[k % 4]
            sign = FlowSign.ASCENT if k % 5 == 0 else FlowSign.DESCENT
            w = WeightVector(rng.uniform(0.2, 1.5, n) * np.where(rng.uniform(size=n) < 0.5, -1, 1))
            t0 = rng.uniform(-3, 3, n)
            S0 = float(w.alpha @ t0)
            span = (0.0, 1.5 * blowup_time(S0, w)) if sign is FlowSign.ASCENT else (0.0, 20.0 / w.norm_sq)
            traj = integrate_flow(t0, w, sign, span, samples=64)
            r0 = flows.radical_projections(t0, w)
            drift = float(np.max(np.abs(flows.radical_projections(traj.positions, w) - r0)))
            assert drift <= 1e-13 * max(1.0, float(np.max(np.abs(traj.positions))))
