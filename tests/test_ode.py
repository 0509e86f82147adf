import math

import numpy as np
import pytest

from recipgeo import ode
from recipgeo.errors import InvalidSpan, OutOfSpan, RhsEvaluationFailure


def exp_rhs(t, y):
    return y


class TestStepAndDriver:
    def test_exponential_growth(self):
        cfg = ode.IntegratorConfig.for_span(1.0, tol=1e-10)
        sol = ode.integrate(exp_rhs, np.array([1.0]), (0.0, 1.0), cfg)
        assert sol.status == "span"
        assert abs(sol.ys[-1][0] - math.e) < 1e-9

    def test_constant_rhs_all_accepted_at_max_step(self):
        cfg = ode.IntegratorConfig.for_span(10.0, tol=1e-10)
        sol = ode.integrate(lambda t, y: np.zeros(2), np.array([3.0, -1.0]), (0.0, 10.0), cfg)
        assert sol.rejected == 0
        np.testing.assert_array_equal(sol.ys[-1], [3.0, -1.0])
        # after the ramp-up every interior step runs at max_step
        diffs = np.diff(sol.ts)
        assert np.max(diffs) <= cfg.max_step * (1.0 + 1e-12)
        assert np.sum(np.abs(diffs - cfg.max_step) < 1e-9) >= 7

    def test_harmonic_oscillator_energy(self):
        w0 = 2.0 * math.pi

        def rhs(t, y):
            return np.array([y[1], -w0 * w0 * y[0]])

        cfg = ode.IntegratorConfig.for_span(10.0, tol=1e-10)
        sol = ode.integrate(rhs, np.array([1.0, 0.0]), (0.0, 10.0), cfg)
        energy = lambda y: 0.5 * (y[1] ** 2 + w0 * w0 * y[0] ** 2)
        drift = abs(energy(sol.ys[-1]) - energy(sol.ys[0])) / energy(sol.ys[0])
        assert drift <= 1e-6

    def test_convergence_order(self):
        # tightening the tolerance 32x shrinks the global error by ~2^5
        # (tolerances tight enough that max_step is not the binding limit)
        errs = []
        for tol in (1e-10, 1e-10 / 32.0):
            cfg = ode.IntegratorConfig.for_span(1.0, tol=tol)
            sol = ode.integrate(exp_rhs, np.array([1.0]), (0.0, 1.0), cfg)
            errs.append(abs(sol.ys[-1][0] - math.e))
        ratio = errs[0] / errs[1]
        assert 8.0 < ratio < 200.0

    def test_deterministic(self):
        cfg = ode.IntegratorConfig.for_span(2.0, tol=1e-9)
        rhs = lambda t, y: np.array([math.sin(t) * y[0], -y[1] * y[0]])
        sols = [ode.integrate(rhs, np.array([1.0, 0.5]), (0.0, 2.0), cfg) for _ in range(2)]
        assert sols[0].ts == sols[1].ts
        for y1, y2 in zip(sols[0].ys, sols[1].ys):
            np.testing.assert_array_equal(y1, y2)

    def test_backward_span(self):
        cfg = ode.IntegratorConfig.for_span(1.0, tol=1e-10)
        sol = ode.integrate(exp_rhs, np.array([1.0]), (0.0, -1.0), cfg)
        assert abs(sol.ys[-1][0] - math.exp(-1.0)) < 1e-9

    def test_zero_span_rejected(self):
        with pytest.raises(InvalidSpan):
            ode.integrate(exp_rhs, np.array([1.0]), (1.0, 1.0))

    def test_rhs_failure_at_start_propagates(self):
        def bad(t, y):
            raise OverflowError("boom")

        with pytest.raises(RhsEvaluationFailure):
            ode.integrate(bad, np.array([1.0]), (0.0, 1.0))

    def test_stop_predicate(self):
        cfg = ode.IntegratorConfig.for_span(10.0, tol=1e-10)
        stop = lambda t, y: "past" if y[0] > 2.0 else None
        sol = ode.integrate(exp_rhs, np.array([1.0]), (0.0, 10.0), cfg, stop=stop)
        assert sol.status == "stopped"
        assert sol.stop_reason == "past"
        assert sol.ys[-1][0] > 2.0
        assert sol.ys[-2][0] <= 2.0 + 1e-12


class TestDenseOutput:
    def test_endpoint_exact(self):
        cfg = ode.IntegratorConfig.for_span(1.0, tol=1e-10)
        sol = ode.integrate(exp_rhs, np.array([1.0]), (0.0, 1.0), cfg)
        got = ode.dense_sample(sol, [sol.ts[3]])[0]
        np.testing.assert_array_equal(got, sol.ys[3])

    def test_midpoint_accuracy(self):
        cfg = ode.IntegratorConfig.for_span(1.0, tol=1e-10)
        sol = ode.integrate(exp_rhs, np.array([1.0]), (0.0, 1.0), cfg)
        queries = np.linspace(0.0, 1.0, 101)
        states = ode.dense_sample(sol, queries)
        worst = max(abs(s[0] - math.exp(q)) for q, s in zip(queries, states))
        assert worst <= 1e-8

    def test_empty_queries(self):
        cfg = ode.IntegratorConfig.for_span(1.0, tol=1e-8)
        sol = ode.integrate(exp_rhs, np.array([1.0]), (0.0, 1.0), cfg)
        assert ode.dense_sample(sol, []).shape == (0, 1)

    def test_backward_span_nodes_and_extension(self):
        # descending ts: nodes come back exactly, and between them the
        # quartic extension of the step that holds the query
        cfg = ode.IntegratorConfig.for_span(1.5, tol=1e-10)
        rhs = lambda t, y: np.array([y[1], -y[0]])
        sol = ode.integrate(rhs, np.array([1.0, 0.0]), (0.0, -1.5), cfg)
        ts = np.asarray(sol.ts)
        assert np.all(np.diff(ts) < 0.0)
        np.testing.assert_array_equal(ode.dense_sample(sol, ts), np.asarray(sol.ys))
        mids = 0.5 * (ts[:-1] + ts[1:])
        got = ode.dense_sample(sol, mids)
        assert got.shape == (len(mids), 2)
        for i, q in enumerate(mids):
            h = ts[i + 1] - ts[i]
            theta = (q - ts[i]) / h
            expected = sol.ys[i] + h * (sol.qs[i] @ np.array([theta, theta**2, theta**3, theta**4]))
            np.testing.assert_allclose(got[i], expected, rtol=0, atol=1e-15)
        np.testing.assert_allclose(got[:, 0], np.cos(mids), rtol=0, atol=1e-8)

    def test_out_of_span(self):
        cfg = ode.IntegratorConfig.for_span(1.0, tol=1e-8)
        sol = ode.integrate(exp_rhs, np.array([1.0]), (0.0, 1.0), cfg)
        with pytest.raises(OutOfSpan):
            ode.dense_sample(sol, [1.5])

    def test_extension_meets_next_node(self):
        # the quartic extension of each step ends at the accepted order-5 state
        cfg = ode.IntegratorConfig.for_span(1.0, tol=1e-8)
        sol = ode.integrate(lambda t, y: np.array([y[1], -y[0]]), np.array([1.0, 0.0]), (0.0, 1.0), cfg)
        assert len(sol.qs) == len(sol.ts) - 1 == sol.accepted
        for i, q in enumerate(sol.qs):
            h = sol.ts[i + 1] - sol.ts[i]
            np.testing.assert_allclose(sol.ys[i] + h * q.sum(axis=1), sol.ys[i + 1], rtol=0, atol=1e-15)


class TestConfig:
    def test_invalid_bounds(self):
        with pytest.raises(InvalidSpan):
            ode.IntegratorConfig(min_step=1.0, initial_step=0.1, max_step=10.0)

    @pytest.mark.parametrize("tol", [0.0, -1e-8, math.inf, math.nan])
    def test_tolerance_positive_and_finite(self, tol):
        with pytest.raises(InvalidSpan):
            ode.IntegratorConfig(rel_tol=tol)
        with pytest.raises(InvalidSpan):
            ode.IntegratorConfig.for_span(1.0, tol=tol)

    def test_span_scaling(self):
        cfg = ode.IntegratorConfig.for_span(4.0, tol=1e-9)
        assert cfg.initial_step == 4e-3
        assert cfg.max_step == 0.4
        assert cfg.min_step == 4e-14
