"""Geodesics of the two affine structures and of the Levi-Civita connection.

Affine geodesics are straight lines in the structure's flat chart: globally
defined for the log-flat structure, restricted by positivity for the
ratio-flat one.  Levi-Civita geodesics of the ratio-chart Hessian metric are
integrated adaptively in either the (x, y) or the (q, r) chart, with
termination at the degeneracy loci, and every trajectory records velocities
and accelerations so the cross-chart residual harness needs no numerical
differentiation of positions.

Each chart has one kernel, built for a fixed (a, b) with the constants of
its closed-form acceleration computed once.  A run builds its kernel once
and hands ode.integrate the kernel's rhs and stop closures, so each rhs
evaluation is one Python call; lc_rhs_xy/lc_rhs_qr, the sampled
accelerations of a trajectory and qr_residual evaluate the same kernel.
Only parenthesised constants and constant prefixes that group from the left
are hoisted, so every value has the bits of the closed form evaluated term
by term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Tuple

import numpy as np

from . import ode
from .connection import EPS_SINGULAR, AffineStructure
from .core import ROW_MATH, S_MAX, Chart, ChartPoint, WeightVector, log_coords, log_to_qr
from .errors import (
    InadmissibleInitialState,
    InvalidSampleCount,
    InvalidSpan,
    NonPositiveCoordinate,
    SingularMetric,
    UnsupportedChartPair,
    ZeroExponent,
    ZeroQ,
    ZeroSum,
)
from .ode import TerminationReason

DELTA_DOMAIN = 1e-12
# Both charts stop a Levi-Civita run once |Delta| < DELTA_STOP.  Accepted
# steps toward Delta = 0 shrink until the step size underflows, at |Delta|
# from 8e-9 to 2.6e-7 at tol 1e-10 and up to 9.8e-7 at tol 1e-12 (about 100
# accepted steps per decade of |Delta|); the stop sits 10x above the highest
# of these floors, so every such run reaches it.
DELTA_STOP = 1e-5
DENSE_SAMPLES = 512


@dataclass(frozen=True)
class GeodesicState:
    chart: Chart
    position: np.ndarray
    velocity: np.ndarray
    lam: float

    def __post_init__(self):
        object.__setattr__(self, "position", np.asarray(self.position, dtype=float))
        object.__setattr__(self, "velocity", np.asarray(self.velocity, dtype=float))


@dataclass
class Trajectory:
    """A sampled trajectory in `chart`, one row per sample: parameters
    `lambdas` (N,) and the (N, n) arrays `positions`, `velocities` and
    `accelerations`.  An acceleration row is NaN where its closed form is
    undefined at that sample.  An integrated trajectory also records its
    accepted and rejected steps, its rhs evaluations `nfev` and the range
    [h_min, h_max] of its accepted step sizes (NaN when not integrated)."""

    chart: Chart
    lambdas: np.ndarray
    positions: np.ndarray
    velocities: np.ndarray
    accelerations: np.ndarray
    termination: TerminationReason
    accepted: int = 0
    rejected: int = 0
    nfev: int = 0
    h_min: float = math.nan
    h_max: float = math.nan

    @property
    def samples(self) -> List[GeodesicState]:
        """The rows as GeodesicState objects, built anew on every access.

        Kept only because the benchmark's tracer (perfbench/spans.py) counts
        residual samples with len(traj.samples).  Nothing in the package or
        its tests calls it: read the arrays instead."""
        rows = zip(self.lambdas, self.positions, self.velocities)
        return [GeodesicState(self.chart, p, v, float(lam)) for lam, p, v in rows]

    @classmethod
    def from_solution(cls, sol: ode.RawSolution, chart: Chart, lam0: float, samples: int,
                      split: Callable[[np.ndarray], tuple]) -> "Trajectory":
        """Dense samples of an integrated run at `samples` uniform parameters
        from lam0 to where it stopped (one sample if it stopped at lam0).

        `split(ys)` maps the sampled states, one per row, to (positions,
        velocities, accelerations)."""
        lam_end = sol.ts[-1]
        lambdas = np.linspace(lam0, lam_end, samples) if lam_end != lam0 else np.array([lam0])
        positions, velocities, accelerations = split(ode.dense_sample(sol, lambdas))
        return cls(chart, lambdas, positions, velocities, accelerations, sol.termination,
                   sol.accepted, sol.rejected, sol.nfev, sol.h_min, sol.h_max)


def _require_samples(samples: int) -> None:
    if samples < 2:
        raise InvalidSampleCount(f"a trajectory needs at least 2 samples, got {samples}")


@dataclass(frozen=True)
class TangentConstraint:
    """Leading-order tangent data compatible with a formal extension across
    the zero-cost hypersurface: both x1/y1 ratio branches and the forced
    slope r1/q1 in rotated coordinates."""

    ratio_plus: float
    ratio_minus: float
    qr_slope: float


def tangent_constraints(z0: float, a: float, b: float) -> TangentConstraint:
    if a == 0.0 or b == 0.0:
        raise ZeroExponent("tangent constraints require a, b != 0")
    if a + b == 0.0:
        raise ZeroSum("the rotated-chart slope (a-b)/(a+b) requires a + b != 0")
    if z0 <= 0.0:
        raise InvalidSpan("z0 parametrizes the zero-cost hypersurface and must be positive")
    power = z0 ** (1.0 / a + 1.0 / b)
    return TangentConstraint(
        ratio_plus=power,
        ratio_minus=-(b / a) * power,
        qr_slope=(a - b) / (a + b),
    )


# -- affine geodesics --------------------------------------------------------

def _line_interval(p0: np.ndarray, v: np.ndarray, low: float, high: float) -> Tuple[float, float]:
    """The open interval of lam on which every low < p0_i + lam v_i < high."""
    lo, hi = -math.inf, math.inf
    for pi, vi in zip(p0, v):
        if vi > 0.0:
            hi = min(hi, (high - pi) / vi)
            lo = max(lo, (low - pi) / vi)
        elif vi < 0.0:
            hi = min(hi, (low - pi) / vi)
            lo = max(lo, (high - pi) / vi)
    return lo, hi


def affine_geodesic_log(t0: np.ndarray, v: np.ndarray, lam: float) -> np.ndarray:
    """Straight line t0 + lam v in log coordinates, defined for all lam."""
    return np.asarray(t0, dtype=float) + lam * np.asarray(v, dtype=float)


def affine_geodesic_ratio(
    x0: np.ndarray, v: np.ndarray
) -> Tuple[Callable[[float], np.ndarray], Tuple[float, float]]:
    """Straight line x0 + lam v in ratio coordinates with its maximal
    positivity interval (all of R only for v = 0)."""
    x0 = np.asarray(x0, dtype=float)
    v = np.asarray(v, dtype=float)
    return (lambda lam: x0 + lam * v), _line_interval(x0, v, 0.0, math.inf)


def affine_trajectory(
    structure: AffineStructure,
    start: ChartPoint,
    v: np.ndarray,
    w: WeightVector,
    span: Tuple[float, float],
    num: int = DENSE_SAMPLES,
) -> Trajectory:
    """Sampled affine geodesic emitted in the ratio chart.

    The velocity is given in the structure's flat chart.  The requested span
    is truncated to the representable/positive part, ending the trajectory
    with DOMAIN_BOUNDARY when the cut bites: on the log-flat structure where
    a log coordinate or S = alpha . t reaches S_MAX, on the ratio-flat one
    where a coordinate reaches 0 or e^S_MAX.
    """
    _require_samples(num)
    lam0, lam1 = float(span[0]), float(span[1])
    if lam1 <= lam0:
        raise InvalidSpan("span must be increasing")
    if start.chart not in (Chart.RATIO, Chart.LOG):
        raise UnsupportedChartPair("affine trajectories start from a RATIO or LOG point")
    t0 = log_coords(start, w)  # also checks n against the weights
    v = np.asarray(v, dtype=float)

    if structure is AffineStructure.LOG_FLAT:
        # beyond S_MAX in a log coordinate the ratio image is not representable,
        # nor is x'' = v^2 x past t_i + 2 log|v_i| = S_MAX; S = alpha . t0 +
        # lam alpha . v is linear in lam, so its wall is one more bound (S at
        # lam = 0 may lie past it while the span starts inside)
        with np.errstate(over="ignore", invalid="ignore"):
            S0, S_rate = float(np.dot(w.alpha, t0)), float(np.dot(w.alpha, v))
        bounds = (_line_interval(t0, v, -S_MAX, S_MAX),
                  _line_interval(t0 + 2.0 * np.log(np.maximum(np.abs(v), 1.0)), v, -math.inf, S_MAX),
                  _line_interval([S0], [S_rate], -S_MAX, S_MAX))
        lo, hi = max(b[0] for b in bounds), min(b[1] for b in bounds)

        def rows(lams: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
            x = np.exp(t0 + lams[:, None] * v)
            return x, v * x, v * v * x

    else:
        x0 = start.coords if start.chart is Chart.RATIO else np.exp(start.coords)
        # positive, and log x_i <= S_MAX as in the log-flat structure
        lo, hi = _line_interval(x0, v, 0.0, math.exp(S_MAX))

        def rows(lams: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
            x = x0 + lams[:, None] * v
            return x, np.tile(v, (len(lams), 1)), np.zeros_like(x)

    if lam0 <= lo or lam0 >= hi:
        raise InadmissibleInitialState(f"span start {lam0} outside maximal interval ({lo}, {hi})")
    # the end stays 1e-9 of the covered length inside the domain, so that a
    # domain edge closer than the span still leaves lam_hi above lam0
    margin = 1e-9 * (min(lam1, hi) - lam0)
    lam_hi = min(lam1, hi - margin)
    truncated = lam_hi < lam1
    lams = np.linspace(lam0, lam_hi, num)
    return Trajectory(
        Chart.RATIO, lams, *rows(lams),
        termination=TerminationReason.DOMAIN_BOUNDARY if truncated else TerminationReason.SPAN_COMPLETE,
    )


# -- Levi-Civita kernels ------------------------------------------------------

def _xy_kernel(a: float, b: float, xp=math):
    """The ratio-chart Levi-Civita run at fixed (a, b), as (rhs, stop).

    rhs(lam, s) is (x', y', x'', y'') at s = (x, y, x', y'), with Z and
    Delta computed as connection.z_xy and connection.delta compute them.
    With xp = math it takes floats, raising NonPositiveCoordinate at x or
    y <= 0 and SingularMetric within EPS_SINGULAR of Delta = 0.  With
    xp = core.ROW_MATH it takes equal-shape rows with no Delta guard: NaN
    only where Delta = 0, each row the bits of its one-point call.
    stop(lam, s) is the run's guard on floats: DOMAIN_BOUNDARY once x or y
    <= DELTA_DOMAIN, SINGULARITY_REACHED once |Delta| < DELTA_STOP."""
    exp, log = xp.exp, xp.log
    rows = xp is not math
    d1, d2 = a + b - 1.0, a + b + 1.0  # Delta = (Z - 1)(d1 Z + d2)
    am1, bm1, a6, b6 = a - 1.0, b - 1.0, 6.0 * a, 6.0 * b
    am2b, bm2a = a - 2.0 * b, b - 2.0 * a
    cx0, cx1, cx2 = (a + 1.0) * (a + 2.0 * b + 2.0), a * a - 2.0 * a * b + 2.0, a + 2.0 * b - 2.0
    cy0, cy1, cy2 = (b + 1.0) * (2.0 * a + b + 2.0), -2.0 * a * b + b * b + 2.0, 2.0 * a + b - 2.0

    def rhs(_lam, s):
        x, y, vx, vy = s
        try:
            Z = exp(2.0 * (a * log(x) + b * log(y)))
        except ValueError:  # the log of x <= 0 or y <= 0
            raise NonPositiveCoordinate("ratio coordinates must be positive") from None
        Delta = (Z - 1.0) * (d1 * Z + d2)
        if rows:
            Delta = np.where(Delta == 0.0, math.nan, Delta)
        elif abs(Delta) < EPS_SINGULAR:
            raise SingularMetric(f"|Delta| = {abs(Delta):.3e} below guard")
        Z2 = Z * Z
        twoZ, aZ2, bZ2 = 2.0 * Z, am1 * Z2, bm1 * Z2
        Dx2, Dy2 = 2.0 * Delta * x, 2.0 * Delta * y
        ax = (
            -(cx0 - twoZ * cx1 + aZ2 * cx2) / Dx2 * vx * vx
            - b * (twoZ * bm2a + bZ2 + b + 1.0) / (Delta * y) * vx * vy
            + b * x * (bZ2 + b6 * Z + b + 1.0) / (Dy2 * y) * vy * vy
        )
        ay = (
            -(cy0 - twoZ * cy1 + bZ2 * cy2) / Dy2 * vy * vy
            - a * (twoZ * am2b + aZ2 + a + 1.0) / (Delta * x) * vx * vy
            + a * y * (aZ2 + a6 * Z + a + 1.0) / (Dx2 * x) * vx * vx
        )
        return [vx, vy, ax, ay]

    def stop(_lam, s):
        x, y = s[0], s[1]
        if x <= DELTA_DOMAIN or y <= DELTA_DOMAIN:
            return TerminationReason.DOMAIN_BOUNDARY
        Z = math.exp(2.0 * (a * math.log(x) + b * math.log(y)))
        if abs((Z - 1.0) * (d1 * Z + d2)) < DELTA_STOP:
            return TerminationReason.SINGULARITY_REACHED
        return None

    return rhs, stop


def lc_rhs_xy(state: GeodesicState, a: float, b: float) -> np.ndarray:
    """Geodesic acceleration (x'', y'') of the Levi-Civita connection in the
    ratio chart; equals minus the Christoffel contraction."""
    if state.chart is not Chart.RATIO:
        raise UnsupportedChartPair("lc_rhs_xy expects a ratio-chart state")
    rhs, _ = _xy_kernel(a, b)
    return np.array(rhs(state.lam, state.position.tolist() + state.velocity.tolist())[2:])


def _qr_kernel(a: float, b: float, xp=math, parts: bool = False):
    """The rotated-chart Levi-Civita run at fixed (a, b), as (rhs, stop).

    The implicit geodesic equations split as LHS_q = L q'' + Fq and
    LHS_r = L r'' + Fr, all coefficients functions of q only, and
    rhs(lam, s) is (q', r', -Fq / L, -Fr / L) at s = (q, r, q', r').  With
    xp = math it takes floats, raising ZeroQ within EPS_SINGULAR of q = 0
    and SingularMetric within it of L = 0.  With xp = core.ROW_MATH it
    takes equal-shape rows with no guard: NaN only where q = 0 or L = 0,
    each row the bits of its one-point call.  With `parts`, on rows, it
    returns (L, Fq, Fr) with no NaN put in: qr_residual reads them with
    xp = numpy.  stop(lam, s) is the run's guard on floats:
    SINGULARITY_REACHED once |Delta| < DELTA_STOP at Z = e^(2q)."""
    sinh, cosh = xp.sinh, xp.cosh
    rows = xp is not math
    nan_rows = rows and not parts
    d1, d2 = a + b - 1.0, a + b + 1.0  # Delta = (Z - 1)(d1 Z + d2)
    apb, n2 = a + b, a * a + b * b
    nn, a3 = n2 * n2, a**3 + b**3
    na3 = -a3
    cL = 2.0 * n2 * n2
    a4 = a**4 - a**3 * b + 4.0 * a * a * b * b - a * b**3 + b**4
    kq1, kq2, kq3 = -2.0 * a * b * (a - b) * (a + b), a * b * (a + b) ** 2, (a + b) * n2 * n2
    kr1, kr2, kr3, kr4 = 2.0 * (a + b), 0.5 * (a - b), 3.0 * n2 * n2, a * b * (a - b) * (a + b)

    def rhs(_lam, s):
        q, _, qd, rd = s
        if nan_rows:
            q = np.where(q == 0.0, math.nan, q)
        sh = sinh(q)
        if not rows and abs(sh) < EPS_SINGULAR:
            raise ZeroQ("q = 0 lies on the zero-cost hypersurface")
        ch = cosh(q)
        L = cL * (apb * ch - sh)
        Fq = kq1 * qd * ch * rd + kq2 * ch * rd * rd + qd * qd * (kq3 * sh - a4 * ch)
        cth = ch / sh
        csch = 1.0 / sh
        Fr = (
            kr1 * qd * cth * rd * (nn * ch - a3 * sh)
            - kr2 * qd * qd * csch * (na3 * sinh(2.0 * q) + nn * cosh(2.0 * q) + kr3)
            + kr4 * ch * rd * rd
        )
        if parts:
            return L, Fq, Fr
        if rows:
            L = np.where(L == 0.0, math.nan, L)
        elif abs(L) < EPS_SINGULAR:
            raise SingularMetric("(a+b) cosh q = sinh q: leading coefficient vanishes")
        return [qd, rd, -Fq / L, -Fr / L]

    def stop(_lam, s):
        Z = math.exp(2.0 * s[0])
        if abs((Z - 1.0) * (d1 * Z + d2)) < DELTA_STOP:
            return TerminationReason.SINGULARITY_REACHED
        return None

    return rhs, stop


def lc_rhs_qr(state: GeodesicState, a: float, b: float) -> np.ndarray:
    """Geodesic acceleration (q'', r'') in the rotated chart, solved from the
    implicit forms; all coefficients depend on the point through q only."""
    if state.chart is not Chart.QR:
        raise UnsupportedChartPair("lc_rhs_qr expects a (q, r)-chart state")
    rhs, _ = _qr_kernel(a, b)
    return np.array(rhs(state.lam, state.position.tolist() + state.velocity.tolist())[2:])


# -- adaptive integration ----------------------------------------------------

def integrate_geodesic(
    state0: GeodesicState,
    a: float,
    b: float,
    span: Tuple[float, float],
    tol: float = 1e-10,
    samples: int = DENSE_SAMPLES,
) -> Trajectory:
    """Integrate a Levi-Civita geodesic in the chart of the initial state.

    Runs the embedded 5(4) pair with per-step tolerance `tol`, halting early
    when |Delta| falls below DELTA_STOP, a ratio coordinate reaches the domain
    boundary, or the step size underflows.  The returned trajectory holds
    `samples` densely sampled states at uniform parameter values, with the
    accelerations evaluated from the closed-form right-hand side.
    """
    _require_samples(samples)
    lam0, lam1 = float(span[0]), float(span[1])
    if lam1 == lam0:
        raise InvalidSpan("span must have nonzero length")
    # before the start guard, so a bad tol is reported the same from any start
    if not 0.0 < tol < math.inf:
        raise InvalidSpan("tolerances must be positive and finite")
    if state0.chart is Chart.RATIO:
        kernel = _xy_kernel
    elif state0.chart is Chart.QR:
        kernel = _qr_kernel
    else:
        raise UnsupportedChartPair("geodesic integration runs in the RATIO or QR chart")
    rhs, stop = kernel(a, b)
    try:
        reason0 = stop(lam0, state0.position)
    except OverflowError:  # Z = x^2a y^2b = e^2q is not representable
        raise InadmissibleInitialState("Z overflows at the initial state") from None
    if reason0 is not None:
        raise InadmissibleInitialState(f"initial state already at guard: {reason0.value}")

    y0 = np.concatenate([state0.position, state0.velocity])
    sol = ode.integrate(rhs, y0, (lam0, lam1), tol, stop=stop)
    row_rhs, _ = kernel(a, b, ROW_MATH)
    return Trajectory.from_solution(
        sol, state0.chart, lam0, samples,
        lambda ys: (ys[:, :2], ys[:, 2:], np.column_stack(row_rhs(None, ys.T)[2:])),
    )


# -- cross-chart residual harness ---------------------------------------------

def qr_residual(traj: Trajectory, a: float, b: float) -> np.ndarray:
    """Per-sample defect |LHS_q| + |LHS_r| of the implicit rotated-chart
    geodesic equations, with inf at q = 0 where they are undefined.

    A (q, r)-chart trajectory enters with its stored accelerations.  A
    ratio-chart one is mapped to (q, r, q', r', q'', r'') by the exact linear
    transform and the chain rule, using its stored accelerations (the
    closed-form right-hand side for integrated geodesics, the path's own
    second derivative for analytically built trajectories).
    """
    if traj.positions.shape[-1] != 2:
        raise UnsupportedChartPair("the (q, r) chart exists only for n = 2")
    if traj.chart is Chart.RATIO:
        x, v = traj.positions, traj.velocities
        lv = v / x                             # log-chart velocity
        q = log_to_qr(np.log(x), a, b)[:, 0]
        qd, rd = log_to_qr(lv, a, b).T
        qdd, rdd = log_to_qr(traj.accelerations / x - lv * lv, a, b).T
    elif traj.chart is Chart.QR:
        q = traj.positions[:, 0]
        qd, rd = traj.velocities.T
        qdd, rdd = traj.accelerations.T
    else:
        raise UnsupportedChartPair("qr_residual expects a ratio- or (q, r)-chart trajectory")
    with np.errstate(divide="ignore", invalid="ignore"):
        L, Fq, Fr = _qr_kernel(a, b, np, parts=True)[0](None, (q, None, qd, rd))
        out = np.abs(L * qdd + Fq) + np.abs(L * rdd + Fr)
    return np.where(q == 0.0, math.inf, out)
