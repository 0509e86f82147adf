import gc
import math

import numpy as np
import pytest

from recipgeo import FlowSign, TerminationReason, WeightVector, integrate_flow, ode
from recipgeo.errors import InvalidSpan, OutOfSpan, RhsEvaluationFailure


def exp_rhs(t, y):
    return y


def bits(values) -> np.ndarray:
    """The IEEE bit patterns of a float array (tells -0.0 from 0.0)."""
    return np.asarray(values, dtype=float).view(np.int64)


def reference_step(rhs, y, t, h, tol, k1):
    """The trial step as numpy evaluates it: each weighted sum of stages is
    one product and one reduction over the stage axis from 0.0, which adds
    the terms in stage order."""
    def weighted(weights, k):
        col = np.array(weights).reshape(-1, 1)
        return np.add.reduce(col * k[: len(weights)], axis=0, initial=0.0)

    y = np.asarray(y, dtype=float)
    k = np.empty((7, y.size))
    k[0] = k1
    for s in range(1, 7):
        ys = y + h * weighted(ode._A[s], k)
        k[s] = rhs(t + ode._C[s] * h, ys.tolist())
    y5 = y + h * weighted(ode._B, k)
    err_vec = h * weighted(ode._E, k)
    with np.errstate(invalid="ignore", over="ignore"):
        err = float(np.max(np.abs(err_vec) / (tol + tol * np.abs(y5))))
    if not np.all(np.isfinite(y5)) or not math.isfinite(err):
        return ode.StepResult(False, math.inf, abs(h) * 0.2), y5, k
    factor = 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * err ** (-0.2)))
    return ode.StepResult(err <= 1.0, err, abs(h) * factor), y5, k


def coupled_rhs(t, y):
    """A nonlinear rhs on floats that couples every component to the next.
    Every third component is a multiple of itself, so a signed zero there
    stays a signed zero through all stages."""
    n = len(y)
    return [math.sin(y[(i + 1) % n] + t) * y[i] - (0.0 if i % 3 == 2 else 0.3 * y[i] * y[i] - math.cos(t + i))
            for i in range(n)]


class TestStepBits:
    """ode.step on Python floats against the numpy reference step, bit for
    bit: every stage, y5, the error and the next step size."""

    @pytest.mark.parametrize("n", [1, 2, 5, 8])
    @pytest.mark.parametrize("direction", [1.0, -1.0])
    def test_matches_numpy_reference(self, n, direction, rng):
        outcomes = set()
        for trial in range(40):
            y = rng.uniform(-2.0, 2.0, n)
            y[rng.uniform(size=n) < 0.3] = -0.0
            t = float(rng.uniform(-1.0, 1.0))
            h = direction * float(10.0 ** rng.uniform(-4.0, 0.0))
            k1 = coupled_rhs(t, y.tolist())
            got, y5, k = ode.step(coupled_rhs, y.tolist(), t, h, 1e-9, k1=k1)
            want, y5_ref, k_ref = reference_step(coupled_rhs, y, t, h, 1e-9, k1)
            assert isinstance(y5, list) and len(k) == 7
            np.testing.assert_array_equal(bits(y5), bits(y5_ref))
            np.testing.assert_array_equal(bits(k), bits(k_ref))
            assert bits(got.error_estimate) == bits(want.error_estimate)
            assert bits(got.next_step) == bits(want.next_step)
            assert got.accepted == want.accepted
            outcomes.add(got.accepted)
        assert outcomes == {True, False}


def failing_at_call(call: int, value):
    """An rhs returning dy/dt = -y, except that its call number `call`
    (counting from 1) returns `value` in its last component, or raises it if
    it is an exception."""
    calls = [0]

    def rhs(t, y):
        calls[0] += 1
        if calls[0] == call:
            if isinstance(value, Exception):
                raise value
            return [-v for v in y[:-1]] + [value]
        return [-v for v in y]

    return rhs


class TestNonFiniteStages:
    """A NaN or an infinity from any inner stage rejects the step and cuts
    it to 0.2 |h|; a raising stage is reported with its parameter."""

    @pytest.mark.parametrize("stage", range(1, 7))
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("h", [0.05, -0.05])
    def test_rejected_with_shrunk_step(self, stage, value, h):
        y = [1.0, -0.5, 2.0]
        result, _, _ = ode.step(failing_at_call(stage, value), y, 0.0, h, 1e-8, k1=[-v for v in y])
        assert not result.accepted
        assert result.error_estimate == math.inf
        assert result.next_step == 0.2 * abs(h)

    @pytest.mark.parametrize("stage", range(1, 7))
    def test_raising_stage(self, stage):
        h = -0.05
        with pytest.raises(RhsEvaluationFailure) as exc:
            ode.step(failing_at_call(stage, OverflowError("boom")), [1.0], 0.25, h, 1e-8, k1=[-1.0])
        assert exc.value.stage == stage
        assert exc.value.param == 0.25 + ode._C[stage] * h
        assert isinstance(exc.value.__cause__, OverflowError)

    @pytest.mark.parametrize("value", [math.nan, math.inf, OverflowError("boom")])
    def test_driver_recovers(self, value):
        clean = ode.integrate(failing_at_call(0, value), np.array([1.0, 2.0]), (0.0, 1.0), 1e-10)  # no call 0
        sol = ode.integrate(failing_at_call(40, value), np.array([1.0, 2.0]), (0.0, 1.0), 1e-10)
        assert sol.status == "span" and sol.ts[-1] == 1.0
        assert sol.rejected == clean.rejected + 1
        np.testing.assert_allclose(sol.ys[-1], np.exp(-1.0) * np.array([1.0, 2.0]), rtol=1e-9)

    @pytest.mark.parametrize("value", [math.nan, -math.inf, ZeroDivisionError("wall")])
    def test_driver_underflows_at_a_wall(self, value, monkeypatch):
        # every stage past t = 0.5 fails: the steps shrink onto the wall and
        # the run ends by underflow just short of it, in a bounded number of steps
        def rhs(t, y):
            if t > 0.5:
                if isinstance(value, Exception):
                    raise value
                return [value] * len(y)
            return [1.0] * len(y)

        monkeypatch.setattr(ode, "MAX_STEPS", 20_000)
        sol = ode.integrate(rhs, np.zeros(2), (0.0, 1.0))
        assert sol.status == "underflow"
        assert 0.5 - 1e-12 <= sol.ts[-1] <= 0.5
        assert sol.rejected > 0 and sol.accepted + sol.rejected < ode.MAX_STEPS


class TestObservability:
    """The driver's counts: rhs evaluations against a counting wrapper, and
    the range of accepted step sizes."""

    @staticmethod
    def counted(rhs):
        calls = [0]

        def wrapped(t, y):
            calls[0] += 1
            return rhs(t, y)

        return wrapped, calls

    def test_nfev_with_rejections(self):
        rhs, calls = self.counted(lambda t, y: [-50.0 * y[0], math.cos(t) * y[1]])
        sol = ode.integrate(rhs, np.array([1.0, 1.0]), (0.0, 3.0), 1e-8)
        assert sol.rejected > 0
        assert sol.nfev == calls[0] == 1 + 6 * (sol.accepted + sol.rejected)

    def test_nfev_with_rhs_failure(self):
        rhs, calls = self.counted(failing_at_call(30, FloatingPointError("bad")))
        sol = ode.integrate(rhs, np.array([1.0]), (0.0, 1.0))
        assert sol.status == "span"
        assert sol.nfev == calls[0] < 1 + 6 * (sol.accepted + sol.rejected)

    def test_nfev_when_stopped_at_start(self):
        sol = ode.integrate(exp_rhs, np.array([1.0]), (0.0, 1.0), stop=lambda t, y: "here")
        assert (sol.status, sol.nfev, sol.accepted) == ("stopped", 1, 0)
        assert math.isnan(sol.h_min) and math.isnan(sol.h_max)
        assert sol.ys.shape == (1, 1) and sol.qs.shape == (0, 1, 4)

    def test_step_range(self):
        sol = ode.integrate(lambda t, y: [y[1], -y[0]], np.array([1.0, 0.0]), (0.0, 10.0), 1e-10)
        steps = np.abs(np.diff(sol.ts))
        assert sol.h_min == steps.min()
        assert sol.h_max == steps.max()
        assert ode.MIN_STEP * 10.0 <= sol.h_min < sol.h_max <= ode.MAX_STEP * 10.0


class TestStepAndDriver:
    def test_exponential_growth(self):
        sol = ode.integrate(exp_rhs, np.array([1.0]), (0.0, 1.0), 1e-10)
        assert sol.status == "span"
        assert abs(sol.ys[-1][0] - math.e) < 1e-9

    def test_constant_rhs_all_accepted_at_max_step(self):
        sol = ode.integrate(lambda t, y: np.zeros(2), np.array([3.0, -1.0]), (0.0, 10.0), 1e-10)
        assert sol.rejected == 0
        np.testing.assert_array_equal(sol.ys[-1], [3.0, -1.0])
        # after the ramp-up every interior step runs at max_step
        diffs = np.diff(sol.ts)
        assert np.max(diffs) <= ode.MAX_STEP * 10.0 * (1.0 + 1e-12)
        assert np.sum(np.abs(diffs - ode.MAX_STEP * 10.0) < 1e-9) >= 7

    def test_harmonic_oscillator_energy(self):
        w0 = 2.0 * math.pi

        def rhs(t, y):
            return np.array([y[1], -w0 * w0 * y[0]])

        sol = ode.integrate(rhs, np.array([1.0, 0.0]), (0.0, 10.0), 1e-10)
        energy = lambda y: 0.5 * (y[1] ** 2 + w0 * w0 * y[0] ** 2)
        drift = abs(energy(sol.ys[-1]) - energy(sol.ys[0])) / energy(sol.ys[0])
        assert drift <= 1e-6

    def test_convergence_order(self):
        # tightening the tolerance 32x shrinks the global error by ~2^5
        # (tolerances tight enough that max_step is not the binding limit)
        errs = []
        for tol in (1e-10, 1e-10 / 32.0):
            sol = ode.integrate(exp_rhs, np.array([1.0]), (0.0, 1.0), tol)
            errs.append(abs(sol.ys[-1][0] - math.e))
        ratio = errs[0] / errs[1]
        assert 8.0 < ratio < 200.0

    def test_deterministic(self):
        rhs = lambda t, y: np.array([math.sin(t) * y[0], -y[1] * y[0]])
        sols = [ode.integrate(rhs, np.array([1.0, 0.5]), (0.0, 2.0), 1e-9) for _ in range(2)]
        assert sols[0].ts == sols[1].ts
        for y1, y2 in zip(sols[0].ys, sols[1].ys):
            np.testing.assert_array_equal(y1, y2)

    def test_no_containers_kept_per_step(self):
        # A container kept per accepted step would set off garbage
        # collections in the middle of long runs; the driver keeps flat
        # lists of floats, so the objects the collector tracks during a run
        # do not grow with its length.
        rhs = lambda t, y: [y[1], -y[0]]
        counts = []
        stop = lambda t, y: counts.append(gc.get_count()[0])
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            sol = ode.integrate(rhs, np.array([1.0, 0.0]), (0.0, 50.0), 1e-10, stop=stop)
        finally:
            if was_enabled:
                gc.enable()
        assert sol.accepted > 500
        assert max(counts) - counts[0] < 20

    def test_backward_span(self):
        sol = ode.integrate(exp_rhs, np.array([1.0]), (0.0, -1.0), 1e-10)
        assert abs(sol.ys[-1][0] - math.exp(-1.0)) < 1e-9

    def test_zero_span_rejected(self):
        with pytest.raises(InvalidSpan):
            ode.integrate(exp_rhs, np.array([1.0]), (1.0, 1.0))

    def test_rhs_failure_at_start_propagates(self):
        def bad(t, y):
            raise OverflowError("boom")

        with pytest.raises(RhsEvaluationFailure):
            ode.integrate(bad, np.array([1.0]), (0.0, 1.0))

    def test_max_steps(self, monkeypatch):
        # a run ends after MAX_STEPS trial steps, and its trajectory says so
        monkeypatch.setattr(ode, "MAX_STEPS", 5)
        sol = ode.integrate(exp_rhs, np.array([1.0]), (0.0, 1.0))
        assert sol.status == "maxsteps" and sol.accepted + sol.rejected == 5
        w = WeightVector(np.array([0.5, 0.5]))
        traj = integrate_flow(np.array([1.2, 0.8]), w, FlowSign.DESCENT, (0.0, 3.0))
        assert traj.termination is TerminationReason.MAX_STEPS
        assert traj.accepted + traj.rejected == 5

    def test_stop_predicate(self):
        stop = lambda t, y: "past" if y[0] > 2.0 else None
        sol = ode.integrate(exp_rhs, np.array([1.0]), (0.0, 10.0), 1e-10, stop=stop)
        assert sol.status == "stopped"
        assert sol.stop_reason == "past"
        assert sol.ys[-1][0] > 2.0
        assert sol.ys[-2][0] <= 2.0 + 1e-12


class TestDenseOutput:
    def test_endpoint_exact(self):
        sol = ode.integrate(exp_rhs, np.array([1.0]), (0.0, 1.0), 1e-10)
        got = ode.dense_sample(sol, [sol.ts[3]])[0]
        np.testing.assert_array_equal(got, sol.ys[3])

    def test_midpoint_accuracy(self):
        sol = ode.integrate(exp_rhs, np.array([1.0]), (0.0, 1.0), 1e-10)
        queries = np.linspace(0.0, 1.0, 101)
        states = ode.dense_sample(sol, queries)
        worst = max(abs(s[0] - math.exp(q)) for q, s in zip(queries, states))
        assert worst <= 1e-8

    def test_empty_queries(self):
        sol = ode.integrate(exp_rhs, np.array([1.0]), (0.0, 1.0), 1e-8)
        assert ode.dense_sample(sol, []).shape == (0, 1)

    def test_backward_span_nodes_and_extension(self):
        # descending ts: nodes come back exactly, and between them the
        # quartic extension of the step that holds the query
        rhs = lambda t, y: np.array([y[1], -y[0]])
        sol = ode.integrate(rhs, np.array([1.0, 0.0]), (0.0, -1.5), 1e-10)
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
        sol = ode.integrate(exp_rhs, np.array([1.0]), (0.0, 1.0), 1e-8)
        with pytest.raises(OutOfSpan):
            ode.dense_sample(sol, [1.5])

    def test_extension_meets_next_node(self):
        # the quartic extension of each step ends at the accepted order-5 state
        sol = ode.integrate(lambda t, y: np.array([y[1], -y[0]]), np.array([1.0, 0.0]), (0.0, 1.0), 1e-8)
        assert len(sol.qs) == len(sol.ts) - 1 == sol.accepted
        for i, q in enumerate(sol.qs):
            h = sol.ts[i + 1] - sol.ts[i]
            np.testing.assert_allclose(sol.ys[i] + h * q.sum(axis=1), sol.ys[i + 1], rtol=0, atol=1e-15)


class TestConfig:
    @pytest.mark.parametrize("tol", [0.0, -1e-8, math.inf, math.nan])
    def test_tolerance_positive_and_finite(self, tol):
        with pytest.raises(InvalidSpan):
            ode.integrate(exp_rhs, np.array([1.0]), (0.0, 1.0), tol)

    def test_span_scaling(self):
        # the first step is 1e-3 of the span and no step exceeds 0.1 of it
        sol = ode.integrate(lambda t, y: [0.0], np.array([1.0]), (0.0, 4.0), 1e-9)
        assert sol.ts[1] - sol.ts[0] == 4e-3
        assert sol.h_max <= 0.4 * (1.0 + 1e-12)  # h_max is a difference of params
