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
from recipgeo.core import S_MAX, S_at, alpha_dot, cost, cost_from_S, cost_ratio_rows, log_coords
from recipgeo.errors import (
    DimensionMismatch,
    NonPositiveCoordinate,
    Overflow,
    RecipGeoError,
    UnsupportedChartPair,
    ZeroArgument,
    ZeroWeightVector,
)
from recipgeo.hessian import SymMatrix

from conftest import POINT_KINDS, assert_close, bits, draw_point


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

    @pytest.mark.parametrize("alpha, error", [
        ([math.nan, 1.0], ZeroWeightVector),
        ([1.0, math.inf], ZeroWeightVector),
        ([-math.inf, 1.0, 2.0], ZeroWeightVector),
        ([0.0, 0.0], ZeroWeightVector),
        ([-0.0, 0.0, -0.0], ZeroWeightVector),
        ([-0.0], ZeroWeightVector),
        (0.0, ZeroWeightVector),
        (math.nan, ZeroWeightVector),
        ([[0.5, 0.5]], DimensionMismatch),
        ([[math.nan], [1.0]], DimensionMismatch),
        ([], DimensionMismatch),
        ([1e200, 1e200], Overflow),
        ([1e155, 0.0, 0.0], Overflow),
    ], ids=["nan", "inf", "-inf", "zeros", "signed-zeros", "-0.0", "0-d-zero", "0-d-nan",
            "2-d", "2-d-nan", "empty", "norm-overflow", "one-entry-overflow"])
    def test_rejects(self, alpha, error):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(error):
                WeightVector(np.asarray(alpha, dtype=float))

    def test_zero_dimensional_is_one_weight(self):
        w = WeightVector(np.float64(-0.5))
        assert w.alpha.shape == (1,) and w.n == 1
        assert w.a == w.total == -0.5 and w.norm_sq == 0.25

    def test_b_needs_two_weights(self):
        with pytest.raises(DimensionMismatch):
            WeightVector(np.array([0.5])).b

    def test_canonical_within_1e_15(self):
        third = np.full(3, 1.0 / 3.0)
        assert WeightVector(third + np.array([0.0, 5e-16, -5e-16])).is_canonical()
        assert not WeightVector(third + np.array([0.0, 0.0, 2e-15])).is_canonical()
        assert not WeightVector(np.array([0.5, -0.5])).is_canonical()
        assert WeightVector(np.array([1.0])).is_canonical()

    def test_caller_array_stays_writeable_and_apart(self):
        raw = np.array([0.3, -0.7, 1.1])
        w = WeightVector(raw)
        stored = (bits(w.alpha), w.n, w.total, w.norm_sq, w.a, w.b, w.is_canonical())
        assert raw.flags.writeable and not w.alpha.flags.writeable
        raw[:] = 1.0 / 3.0  # the canonical weights, were they shared
        assert (bits(w.alpha), w.n, w.total, w.norm_sq, w.a, w.b, w.is_canonical()) == stored
        with pytest.raises(ValueError):
            w.alpha[0] = 1.0

    @pytest.mark.parametrize("kind", POINT_KINDS)
    def test_stored_values_match_numpy(self, kind, rng):
        # the array reductions and comparison the stored values stand for
        for i in range(200):
            alpha, _ = draw_point(rng, kind, i)
            w = WeightVector(alpha)
            assert bits([w.total, w.norm_sq]) == bits([np.sum(alpha), np.dot(alpha, alpha)])
            assert w.is_canonical() is bool(np.all(np.abs(alpha - 1.0 / alpha.size) < 1e-15))
            assert w.n == alpha.size and bits([w.a]) == bits(alpha[:1])
            if alpha.size == 2:
                assert bits([w.b]) == bits(alpha[1:])


class TestChartPoint:
    def test_ratio_positivity(self):
        with pytest.raises(NonPositiveCoordinate):
            ChartPoint(Chart.RATIO, np.array([1.0, 0.0]))

    def test_qr_needs_two(self):
        with pytest.raises(UnsupportedChartPair):
            ChartPoint(Chart.QR, np.array([1.0, 2.0, 3.0]))

    @pytest.mark.parametrize("coords", [[1.0, math.nan], [0.0, 1.0], [1.0, -0.0], [-2.0, 1.0],
                                        [2.0, -math.inf], [math.nan], [-0.0]],
                             ids=["nan", "zero", "-0.0", "negative", "-inf", "1-d-nan", "1-d-0.0"])
    def test_ratio_rejects(self, coords):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonPositiveCoordinate):
                ChartPoint(Chart.RATIO, np.array(coords))

    @pytest.mark.parametrize("coords", [[1.0], [1.0, 2.0, 3.0], 1.0])
    def test_qr_rejects_n_other_than_2(self, coords):
        with pytest.raises(UnsupportedChartPair):
            ChartPoint(Chart.QR, np.array(coords))

    @pytest.mark.parametrize("chart", list(Chart))
    def test_rejects_empty_and_2d(self, chart):
        for coords in ([], [[1.0, 2.0]]):
            with pytest.raises(DimensionMismatch):
                ChartPoint(chart, np.array(coords))

    @pytest.mark.parametrize("chart", [Chart.RATIO, Chart.LOG])
    def test_caller_array_stays_writeable_and_apart(self, chart):
        raw = np.array([1.5, 0.4])
        w = WeightVector(np.array([0.3, 0.9]))
        p = ChartPoint(chart, raw)

        def stored():
            values = [bits(p.coords), bits(log_coords(p, w)), cost(p, w).J]
            if chart is Chart.RATIO:
                values += [bits(hessian.hessian_ratio(p, w).array), hessian.det_hessian_ratio(p, w)]
            return values

        before = stored()
        assert raw.flags.writeable and not p.coords.flags.writeable
        raw[:] = 2.0
        assert stored() == before
        for arr in (p.coords, log_coords(p, w)):
            with pytest.raises(ValueError):
                arr[0] = 1.0


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


class TestOnePointBits:
    """cost_ratio and the rotation to (q, r) at one point, on the stored log
    coordinates and floats, against the array formulas they replaced: 200
    seeded points of each kind, equal bit for bit."""

    @pytest.mark.parametrize("kind", POINT_KINDS)
    def test_cost_and_rotation(self, kind, rng):
        for i in range(200):
            alpha, t = draw_point(rng, kind, i)
            x = np.exp(t)
            w, p = WeightVector(alpha), ChartPoint(Chart.RATIO, x)
            logs = np.log(x)
            assert bits(log_coords(p, w)) == bits(transform(p, Chart.LOG, w).coords) == bits(logs)
            S = float(np.dot(alpha, logs))
            h = math.sinh(0.5 * S)
            c = cost_ratio(p, w)
            assert bits([c.S, c.R, c.J]) == bits([S, math.exp(S), 2.0 * (h * h)])
            if np.all(np.abs(alpha - 1.0 / alpha.size) < 1e-15):
                assert bits([c.G]) == bits([math.exp(float(np.mean(logs)))])
            else:
                assert c.G is None
            if alpha.size == 2:
                a, b = alpha[0], alpha[1]
                qr_log = transform(ChartPoint(Chart.LOG, t), Chart.QR, w).coords
                assert bits(qr_log) == bits(np.stack([a * t[0] + b * t[1], -b * t[0] + a * t[1]]))
                qr_ratio = transform(p, Chart.QR, w).coords
                assert bits(qr_ratio) == bits(np.stack([a * logs[0] + b * logs[1], -b * logs[0] + a * logs[1]]))


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

    def test_dot_past_the_double_range_unwarned(self):
        # alpha_1 t_1 = 1e350 leaves the double range: refused before numpy
        # forms it, at one point and at rows, with the warnings as errors
        w = WeightVector(np.array([1e150, 1.0]))
        t = np.array([1e200, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for y in (t, np.array([[0.0, 0.0], t])):
                with pytest.raises(Overflow, match="double range"):
                    alpha_dot(y, w.alpha)
            # |t_1| past the fast bound 1e148 but every product in range: the plain dot
            small = WeightVector(np.array([1e-199, 1.0]))
            assert alpha_dot(t, small.alpha) == float(np.dot(small.alpha, t)) == 11.0
            assert alpha_dot(np.array([t, t]), small.alpha).tolist() == [11.0, 11.0]

    @pytest.mark.parametrize("name", list(READS_S))
    def test_finite_below_s_max(self, name):
        # S > 0 only: at S < 0 the ratio-chart Hessian entries cosh S / (x_i x_j)
        # themselves pass the double range, whatever the wall
        assert np.all(np.isfinite(np.asarray(READS_S[name](S_MAX - 0.5), dtype=float)))


def draw_extreme(rng, i):
    """Weights alpha and log coordinates t of the i-th draw of the overflow
    policy test: every other draw has n = 2, and each weight is O(1) or of
    size 10^U(-300, 300), with random signs.  By turns t is left as drawn,
    scaled to put S anywhere within S_MAX (t itself may then be huge), or
    scaled into both walls, |S| <= S_MAX and 2|t_i| <= S_MAX."""
    n = 2 if i % 2 == 0 else int(rng.choice([1, 3, 5, 8]))
    wild = rng.random(n) < 0.5
    alpha = rng.choice([-1.0, 1.0], n) * np.where(wild, 10.0 ** rng.uniform(-300.0, 300.0, n),
                                                  rng.uniform(0.2, 1.5, n))
    t = rng.uniform(-1.0, 1.0, n) * 10.0 ** rng.uniform(-300.0, 3.0, n)
    S = sum(a * b for a, b in zip(alpha.tolist(), t.tolist()))  # Python floats: inf or nan, unwarned
    target = rng.uniform(-S_MAX, S_MAX)
    by_S = target / S if S != 0.0 and math.isfinite(S) else 1.0
    with np.errstate(over="ignore"):  # an infinite t is skipped by the caller
        if i % 3 == 1:
            t = t * by_S
        elif i % 3 == 2:
            t = t * min(abs(by_S), rng.uniform(0.0, 0.5 * S_MAX) / float(np.max(np.abs(t))))
    return alpha, t


class TestOverflowPolicy:
    def test_finite_or_typed_error(self):
        # every closed form either returns finite values or raises a typed
        # error, and numpy never warns on the way; flows are left out, whose
        # cost_rate reads inf below the wall (PAST_ONLY)
        rng = np.random.default_rng(2020)
        leaks = {}

        def probe(name, fn):
            try:
                value = fn()
            except RecipGeoError:
                return None
            except Exception as exc:  # a warning turned error, OverflowError, ZeroDivisionError
                leaks.setdefault(name, []).append(repr(exc))
                return None
            if not np.all(np.isfinite(np.asarray(value, dtype=float))):
                leaks.setdefault(name, []).append(repr(value))
            return value

        def summary(c):
            return [c.R, c.S, c.J] + ([] if c.G is None else [c.G])

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for i in range(2000):
                alpha, t = draw_extreme(rng, i)
                if not np.all(np.isfinite(t)):
                    continue
                try:
                    w = WeightVector(alpha)
                except RecipGeoError:
                    continue
                tp = ChartPoint(Chart.LOG, t)
                probe("cost log", lambda: summary(cost(tp, w)))
                probe("hessian_log", lambda: hessian.hessian_log(tp, w).array)
                probe("fisher_info", lambda: infogeo.fisher_info(tp, w).array)
                S = probe("S_at", lambda: S_at(tp, w))
                if w.n == 2:
                    a, b = w.a, w.b
                    probe("lc_christoffel_st", lambda: connection.lc_christoffel_st(a, b, *t.tolist()).array)
                    if S is not None:
                        probe("ricci_q", lambda: connection.ricci_q(a, b, S))
                        probe("ricci_xy", lambda: connection.ricci_xy(a, b, math.exp(S)))
                x = probe("transform(LOG->RATIO)", lambda: transform(tp, Chart.RATIO, w).coords)
                if x is None:
                    continue
                xp = ChartPoint(Chart.RATIO, x)
                probe("cost ratio", lambda: summary(cost(xp, w)))
                probe("symmetrized_is", lambda: infogeo.symmetrized_is(xp, w))
                probe("decompose", lambda: np.hstack([*vars(hessian.decompose(xp, w)).values()]))
                probe("det_hessian_ratio", lambda: hessian.det_hessian_ratio(xp, w))
                m = probe("hessian_ratio", lambda: hessian.hessian_ratio(xp, w).array)
                if m is not None:
                    probe("det_direct", lambda: hessian.det_direct(SymMatrix(m)))
                if w.n == 2:
                    probe("lc_christoffel_xy", lambda: connection.lc_christoffel_xy(a, b, *x.tolist()).array)
        assert not leaks, {name: (len(found), found[:3]) for name, found in leaks.items()}


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
