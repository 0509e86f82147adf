"""Self-verification suites: every closed form against an independent route.

Each suite draws seeded samples, compares an implementation against its
oracle (finite differences, quadrature, closed-form identities), and reports
the worst scaled deviation.  The suites back both the command-line `verify`
subcommand and the acceptance tests, so their output is deterministic for a
fixed seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from . import connection, core, flows, geodesics, hessian, infogeo
from .core import Chart, ChartPoint, WeightVector
from .geodesics import TerminationReason
from .tolerances import deviation, matrix_deviation


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    max_dev: float
    tol: float
    checks: int
    note: str = ""


def _random_weights(rng: np.random.Generator, n: int, lo: float = 0.2, hi: float = 1.5) -> WeightVector:
    """Weights with every component bounded away from zero in magnitude."""
    mags = rng.uniform(lo, hi, n)
    signs = np.where(rng.uniform(size=n) < 0.5, -1.0, 1.0)
    return WeightVector(mags * signs)


def suite_rank_one(seed: int = 0) -> SuiteResult:
    """Log-chart Hessian has rank one at every point for every alpha != 0."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    checks = 0
    ok = True
    for n in (2, 3, 5):
        for _ in range(1000):
            w = _random_weights(rng, n, lo=0.05, hi=2.0)
            t = ChartPoint(Chart.LOG, rng.uniform(-3.0, 3.0, n))
            m = hessian.hessian_log(t, w)
            eigs = np.sort(np.abs(np.linalg.eigvalsh(m.array)))
            worst = max(worst, float(eigs[-2] / eigs[-1]))
            if hessian.rank(m, 1e-10) != 1:
                ok = False
            checks += 1
    return SuiteResult("rank_one_law", ok, worst, 1e-10, checks)


def suite_hessian_oracle(seed: int = 0) -> SuiteResult:
    """Closed-form ratio-chart Hessian against the central-difference oracle."""
    rng = np.random.default_rng(seed + 1)
    worst = 0.0
    checks = 0
    for n in (1, 2, 3, 5):
        for _ in range(100):
            w = _random_weights(rng, n)
            x = ChartPoint(Chart.RATIO, np.exp(rng.uniform(-1.5, 1.5, n)))
            exact = hessian.hessian_ratio(x, w)
            fd = hessian.fd_hessian(lambda p: core.cost_ratio(p, w).J, x)
            worst = max(worst, matrix_deviation(fd.array, exact.array))
            checks += 1
    return SuiteResult("hessian_oracle", worst <= 1e-6, worst, 1e-6, checks)


def _admissible_xy(rng: np.random.Generator):
    """Draw (w, x, y) with the Levi-Civita denominator bounded away from zero."""
    while True:
        w = _random_weights(rng, 2)
        x, y = np.exp(rng.uniform(-1.2, 1.2, 2))
        if abs(connection.delta(w.a, w.b, connection.z_xy(w.a, w.b, x, y))) >= 0.05:
            return w, float(x), float(y)


def _admissible_st(rng: np.random.Generator):
    while True:
        w = _random_weights(rng, 2)
        s, t = rng.uniform(-1.5, 1.5, 2)
        q = w.a * s + w.b * t
        if abs(math.sinh(q)) < 0.1:
            continue
        if abs((w.a + w.b) * math.cosh(q) / math.sinh(q) - 1.0) < 0.05:
            continue
        return w, float(s), float(t)


def suite_christoffel_oracle(seed: int = 0, perturb: float = 0.0) -> SuiteResult:
    """Both closed-form Christoffel charts against the metric-derivative
    oracle, plus the geodesic right-hand side against the contraction.

    `perturb` multiplies one xy-chart component by (1 + perturb) before the
    comparison; any nonzero value must fail the suite."""
    rng = np.random.default_rng(seed + 2)
    worst = 0.0
    checks = 0
    for _ in range(50):
        w, x, y = _admissible_xy(rng)
        closed = connection.lc_christoffel_xy(w.a, w.b, x, y)
        if perturb != 0.0:
            gamma = closed.as_array()
            gamma[0, 0, 0] *= 1.0 + perturb
            closed = connection.ChristoffelTensor(gamma)
        metric = lambda p: hessian.hessian_ratio(ChartPoint(Chart.RATIO, p), w)
        oracle = connection.christoffel_from_metric(metric, np.array([x, y]))
        worst = max(worst, matrix_deviation(closed.array, oracle.array))
        checks += 1
    for _ in range(50):
        w, s, t = _admissible_st(rng)
        closed = connection.lc_christoffel_st(w.a, w.b, s, t)
        metric = lambda p: hessian.pullback(
            lambda cp: hessian.hessian_ratio(cp, w),
            ChartPoint(Chart.LOG, p), Chart.RATIO, Chart.LOG, w,
        )
        oracle = connection.christoffel_from_metric(metric, np.array([s, t]))
        worst = max(worst, matrix_deviation(closed.array, oracle.array))
        checks += 1
    rhs_worst = 0.0
    for _ in range(50):
        w, x, y = _admissible_xy(rng)
        v = rng.uniform(-2.0, 2.0, 2)
        state = geodesics.GeodesicState(Chart.RATIO, np.array([x, y]), v, 0.0)
        acc = geodesics.lc_rhs_xy(state, w.a, w.b)
        contraction = -np.einsum("kij,i,j->k", connection.lc_christoffel_xy(w.a, w.b, x, y).array, v, v)
        rhs_worst = max(rhs_worst, matrix_deviation(acc, contraction))
        checks += 1
    passed = worst <= 1e-6 and rhs_worst <= 1e-10
    return SuiteResult(
        "christoffel_oracle", passed, max(worst, rhs_worst), 1e-6, checks,
        note=f"rhs_contraction_dev={rhs_worst:.3e}",
    )


def suite_ricci(seed: int = 0) -> SuiteResult:
    """Closed-form Ricci scalars: printed value, oracle, zero set, and
    cross-chart consistency."""
    rng = np.random.default_rng(seed + 3)
    ok = True
    worst = 0.0
    checks = 0

    pin = abs(connection.ricci_xy(0.5, 0.5, 4.0) + 8.0 / 9.0)
    ok &= pin <= 1e-12
    worst = max(worst, pin)
    checks += 1

    gamma_fn = lambda p: connection.lc_christoffel_xy(0.5, 0.5, p[0], p[1])
    w_half = WeightVector(np.array([0.5, 0.5]))
    metric_fn = lambda p: hessian.hessian_ratio(ChartPoint(Chart.RATIO, p), w_half)
    num = connection.curvature_from_christoffel(gamma_fn, np.array([2.0, 2.0]), metric_fn=metric_fn)
    oracle_dev = abs(num + 8.0 / 9.0)
    ok &= oracle_dev <= 1e-5
    checks += 1

    for Z in np.exp(np.linspace(-2.0, 2.0, 21)):
        if abs(Z - 1.0) < 0.05:
            continue
        for a in (1.0, 0.7, -1.3):
            val = abs(connection.ricci_xy(a, -a, float(Z)))
            ok &= val <= 1e-12
            worst = max(worst, val)
            checks += 1

    chart_worst = 0.0
    collected = 0
    while collected < 100:
        w = _random_weights(rng, 2)
        if abs(w.a + w.b) < 0.05:
            continue
        q = float(rng.uniform(0.1, 2.0) * (1.0 if rng.uniform() < 0.5 else -1.0))
        try:
            r1 = connection.ricci_xy(w.a, w.b, math.exp(2.0 * q))
            r2 = connection.ricci_q(w.a, w.b, q)
        except connection.SingularLocus:
            continue
        chart_worst = max(chart_worst, deviation(r1, r2))
        collected += 1
        checks += 1
    ok &= chart_worst <= 1e-10
    return SuiteResult(
        "ricci", bool(ok), max(worst, chart_worst), 1e-10, checks,
        note=f"closed_form_dev={pin:.3e} oracle_dev={oracle_dev:.3e}",
    )


def suite_residual(seed: int = 0) -> SuiteResult:
    """The two reference Levi-Civita geodesics: their rotated-chart residual
    away from the singular guard, and the termination each must report
    (run 1 reaches R = 1 inside its span, run 2 completes it)."""
    ok = True
    worst = 0.0
    checks = 0
    runs = (
        (1 / 3, 1 / 2, (4.0, 2.0), (-1.0, 1.0), (0.0, 8.0), TerminationReason.SINGULARITY_REACHED),
        (-2.0, 1.0, (1.0, 2.0), (-1.0, 3.0), (0.0, 4.0), TerminationReason.SPAN_COMPLETE),
    )
    notes = []
    for a, b, x0, v0, span, expected in runs:
        state = geodesics.GeodesicState(Chart.RATIO, np.array(x0), np.array(v0), span[0])
        traj = geodesics.integrate_geodesic(state, a, b, span, tol=1e-10)
        res = geodesics.qr_residual(traj, a, b)
        kept = np.abs(connection.delta(a, b, connection.z_xy(a, b, *traj.positions.T))) > 1e-3
        max_res = float(np.max(res[kept]))
        worst = max(worst, max_res)
        ok &= max_res <= 1e-8
        ok &= traj.termination is expected
        checks += int(np.sum(kept))
        notes.append(traj.termination.value)
    return SuiteResult("qr_residual", bool(ok), worst, 1e-8, checks, note=";".join(notes))


def suite_flows(seed: int = 0) -> SuiteResult:
    """Numerical gradient flows against the closed-form scalar solution,
    conservation of radical projections, and the ascent blowup horizon."""
    rng = np.random.default_rng(seed + 4)
    worst_s = 0.0
    worst_drift = 0.0
    checks = 0
    dims = [2, 3, 5]
    for i in range(100):
        n = dims[i % 3]
        w = _random_weights(rng, n)
        t0 = rng.uniform(-3.0, 3.0, n)
        traj = flows.integrate_flow(t0, w, flows.FlowSign.DESCENT, (0.0, 2.0), tol=1e-10, samples=160)
        S0 = core.alpha_dot(t0, w.alpha)
        S_num = core.alpha_dot(traj.positions, w.alpha)
        S_closed = flows.closed_form_S(S0, traj.lambdas, w, flows.FlowSign.DESCENT)
        worst_s = max(worst_s, float(np.max(np.abs(S_num - S_closed))))
        drift = flows.radical_projections(traj.positions, w) - flows.radical_projections(t0, w)
        worst_drift = max(worst_drift, float(np.max(np.abs(drift))))
        checks += len(traj.lambdas)
    blowup_worst = 0.0
    for _ in range(20):
        n = 2
        w = _random_weights(rng, n)
        t0 = rng.uniform(-3.0, 3.0, n)
        if abs(core.alpha_dot(t0, w.alpha)) < 0.2:
            t0 = t0 + w.alpha  # push S0 away from the fixed point
        tau_star = flows.blowup_time(core.alpha_dot(t0, w.alpha), w)
        traj = flows.integrate_flow(t0, w, flows.FlowSign.ASCENT, (0.0, 1.5 * tau_star), tol=1e-10, samples=64)
        halt = traj.lambdas[-1]
        blowup_worst = max(blowup_worst, abs(halt - tau_star) / tau_star)
        checks += 1
    passed = worst_s <= 1e-8 and worst_drift <= 1e-10 and blowup_worst <= 1e-3
    return SuiteResult(
        "flows", passed, worst_s, 1e-8, checks,
        note=f"drift={worst_drift:.3e} blowup_rel={blowup_worst:.3e}",
    )


def suite_infogeo(seed: int = 0) -> SuiteResult:
    """Divergence identities, Fisher = Hessian, quadrature cross-checks,
    and the Bregman remainder scaling exponent."""
    rng = np.random.default_rng(seed + 5)
    ok = True
    checks = 0

    sym_worst = 0.0
    for i in range(1000):
        n = (1, 2, 3, 5)[i % 4]
        w = _random_weights(rng, n)
        x = ChartPoint(Chart.RATIO, np.exp(rng.uniform(-3.0, 3.0, n)))
        sym_worst = max(sym_worst, deviation(infogeo.symmetrized_is(x, w), core.cost_ratio(x, w).J))
        checks += 1
    ok &= sym_worst <= 1e-14

    fisher_worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 5))
        w = _random_weights(rng, n)
        t = ChartPoint(Chart.LOG, rng.uniform(-3.0, 3.0, n))
        fisher_worst = max(
            fisher_worst,
            matrix_deviation(infogeo.fisher_info(t, w).array, hessian.hessian_log(t, w).array),
        )
        checks += 1
    ok &= fisher_worst <= 1e-12

    # 1D realization: Fisher information by Gauss-Hermite quadrature of the
    # squared score, with the mean slope taken from differenced quadrature
    S = 0.7
    h = 1e-5
    mp_fd = (infogeo.mean_function(S + h).m - infogeo.mean_function(S - h).m) / (2.0 * h)
    nodes, weights = np.polynomial.hermite.hermgauss(40)
    score_sq = (np.sqrt(2.0) * nodes * mp_fd) ** 2
    fisher_quad = float(np.sum(weights * score_sq) / math.sqrt(math.pi))
    w1 = WeightVector(np.array([1.0]))
    fisher_closed = float(infogeo.fisher_info(ChartPoint(Chart.LOG, np.array([S])), w1).array[0, 0])
    quad_dev = deviation(fisher_quad, fisher_closed)
    ok &= quad_dev <= 1e-6
    checks += 1

    # dual quadrature for the mean function
    gl_nodes, gl_weights = np.polynomial.legendre.leggauss(64)
    u = 0.5 * (gl_nodes + 1.0)  # map to [0, 1]
    m_gl = 0.5 * float(np.sum(gl_weights * np.sqrt(np.cosh(u))))
    m_dev = abs(infogeo.mean_function(1.0).m - m_gl)
    ok &= m_dev <= 1e-10
    checks += 1

    slope_min = math.inf
    for _ in range(20):
        n = int(rng.integers(1, 4))
        w = _random_weights(rng, n)
        t = ChartPoint(Chart.LOG, rng.uniform(-2.0, 2.0, n))
        if abs(core.S_at(t, w)) < 0.3:
            t = ChartPoint(Chart.LOG, t.coords + w.alpha)
        direction = rng.normal(size=n)
        direction /= float(np.linalg.norm(direction))
        if abs(float(np.dot(w.alpha, direction))) < 0.2:
            continue
        fit = infogeo.bregman_order_check(t, direction, w)
        slope_min = min(slope_min, fit.slope)
        checks += 1
    ok &= slope_min >= 3.0 - 0.1

    return SuiteResult(
        "infogeo", bool(ok), sym_worst, 1e-14, checks,
        note=f"fisher_dev={fisher_worst:.3e} quad_dev={quad_dev:.3e} "
             f"m_dual_dev={m_dev:.3e} slope_min={slope_min:.3f}",
    )


def suite_composition(seed: int = 0) -> SuiteResult:
    """The composition law and unit log-curvature single out the cost:
    the cost passes, a 0.1% perturbation of it fails both."""
    grid = np.exp(np.linspace(-1.5, 1.5, 20))
    J = core.reciprocal_cost_1d
    worst = 0.0
    checks = 0
    for x in grid:
        for y in grid:
            worst = max(worst, abs(core.composition_residual(J, float(x), float(y))))
            checks += 1
    curv_dev = abs(core.log_curvature(J, 1e-3) - 1.0)
    perturbed = lambda x: 1.001 * J(x)
    perturbed_resid = max(
        abs(core.composition_residual(perturbed, 2.0, 3.0)),
        abs(core.composition_residual(perturbed, 1.5, 0.5)),
    )
    perturbed_curv = abs(core.log_curvature(perturbed, 1e-3) - 1.0)
    passed = (
        worst <= 1e-12
        and curv_dev <= 1e-6
        and perturbed_resid > 1e-11
        and perturbed_curv > 1e-6
    )
    return SuiteResult(
        "composition_law", passed, worst, 1e-12, checks + 3,
        note=f"curvature_dev={curv_dev:.3e} perturbed_resid={perturbed_resid:.3e}",
    )


def suite_structure(seed: int = 0) -> SuiteResult:
    """Degeneracy facts: zero-cost determinants, existence of the singular
    level, the projective obstruction, and flatness of both affine
    structures."""
    rng = np.random.default_rng(seed + 6)
    ok = True
    checks = 0
    det_worst = 0.0
    for n in (2, 3):
        for _ in range(25):
            w = _random_weights(rng, n)
            t0 = rng.uniform(-2.0, 2.0, n)
            t_zero = t0 - (core.alpha_dot(t0, w.alpha) / w.norm_sq) * w.alpha
            x = ChartPoint(Chart.RATIO, np.exp(t_zero))
            m = hessian.hessian_ratio(x, w)
            scale = max(1.0, float(np.max(np.abs(m.array))))
            det_scaled = abs(hessian.det_hessian_ratio(x, w)) / scale**n
            det_worst = max(det_worst, det_scaled)
            checks += 1
    ok &= det_worst <= 1e-10

    for _ in range(200):
        n = int(rng.integers(1, 6))
        w = _random_weights(rng, n, lo=0.05, hi=1.0)
        exists = hessian.singular_S(w) is not None
        ok &= exists == (abs(w.total) < 1.0)
        checks += 1
    ok &= hessian.singular_S(WeightVector(np.array([0.5, 0.5]))) is None
    ok &= hessian.singular_S(WeightVector(np.array([1.0, -1.0]))) == 0.0
    checks += 2

    for n in (2, 3, 5):
        for _ in range(20):
            x = ChartPoint(Chart.RATIO, np.exp(rng.uniform(-3.0, 3.0, n)))
            ok &= connection.projective_obstruction(x) > 0.0
            checks += 1

    flat_worst = 0.0
    combos = (
        (connection.AffineStructure.LOG_FLAT, Chart.RATIO),
        (connection.AffineStructure.RATIO_FLAT, Chart.LOG),
        (connection.AffineStructure.LOG_FLAT, Chart.LOG),
        (connection.AffineStructure.RATIO_FLAT, Chart.RATIO),
    )
    for structure, chart in combos:
        for _ in range(5):
            coords = np.exp(rng.uniform(-1.0, 1.0, 2)) if chart is Chart.RATIO else rng.uniform(-1.0, 1.0, 2)
            gamma_fn = lambda p: connection.affine_connection(structure, chart, ChartPoint(chart, p))
            flat_worst = max(
                flat_worst,
                abs(connection.curvature_from_christoffel(gamma_fn, coords)),
            )
            checks += 1
    ok &= flat_worst <= 1e-8
    return SuiteResult(
        "structure_facts", bool(ok), det_worst, 1e-10, checks,
        note=f"flat_curvature={flat_worst:.3e}",
    )


SUITES: dict = {
    "rank_one_law": suite_rank_one,
    "hessian_oracle": suite_hessian_oracle,
    "christoffel_oracle": suite_christoffel_oracle,
    "ricci": suite_ricci,
    "qr_residual": suite_residual,
    "flows": suite_flows,
    "infogeo": suite_infogeo,
    "composition_law": suite_composition,
    "structure_facts": suite_structure,
}


def run_all(seed: int = 0, perturb: float = 0.0, only: Optional[str] = None) -> List[SuiteResult]:
    results = []
    for name, fn in SUITES.items():
        if only is not None and name != only:
            continue
        if fn is suite_christoffel_oracle:
            results.append(suite_christoffel_oracle(seed, perturb=perturb))
        else:
            results.append(fn(seed))
    return results


def format_report(results: List[SuiteResult], seed: int) -> str:
    lines = [f"verification report (seed={seed})"]
    lines.append(f"{'suite':<22}{'status':<8}{'max_dev':<12}{'tol':<10}{'checks':<8}note")
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(
            f"{r.name:<22}{status:<8}{r.max_dev:<12.3e}{r.tol:<10.1e}{r.checks:<8d}{r.note}"
        )
    n_pass = sum(r.passed for r in results)
    overall = "PASS" if n_pass == len(results) else "FAIL"
    lines.append(f"OVERALL {overall} ({n_pass}/{len(results)})")
    return "\n".join(lines) + "\n"
