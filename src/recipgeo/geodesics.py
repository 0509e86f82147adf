"""Geodesics of the two affine structures and of the Levi-Civita connection.

Affine geodesics are straight lines in the structure's flat chart: globally
defined for the log-flat structure, restricted by positivity for the
ratio-flat one.  Levi-Civita geodesics of the ratio-chart Hessian metric are
integrated adaptively in either the (x, y) or the (q, r) chart, with
termination at the degeneracy loci, and every trajectory records velocities
and accelerations so the cross-chart residual harness needs no numerical
differentiation of positions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from . import ode
from .connection import EPS_SINGULAR, AffineStructure, delta, z_xy
from .core import S_MAX, Chart, ChartPoint, log_to_qr, math_for
from .errors import (
    InadmissibleInitialState,
    InvalidSampleCount,
    InvalidSpan,
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
    span: Tuple[float, float],
    num: int = DENSE_SAMPLES,
) -> Trajectory:
    """Sampled affine geodesic emitted in the ratio chart.

    The velocity is given in the structure's flat chart.  The requested span
    is truncated to the representable/positive part, ending the trajectory
    with DOMAIN_BOUNDARY when the cut bites.
    """
    _require_samples(num)
    lam0, lam1 = float(span[0]), float(span[1])
    if lam1 <= lam0:
        raise InvalidSpan("span must be increasing")
    if start.chart not in (Chart.RATIO, Chart.LOG):
        raise UnsupportedChartPair("affine trajectories start from a RATIO or LOG point")
    v = np.asarray(v, dtype=float)

    if structure is AffineStructure.LOG_FLAT:
        t0 = start.coords if start.chart is Chart.LOG else np.log(start.coords)
        # beyond S_MAX in a log coordinate the ratio image is not representable
        lo, hi = _line_interval(t0, v, -S_MAX, S_MAX)

        def rows(lams: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
            x = np.exp(t0 + lams[:, None] * v)
            return x, v * x, v * v * x

    else:
        x0 = start.coords if start.chart is Chart.RATIO else np.exp(start.coords)
        lo, hi = _line_interval(x0, v, 0.0, math.inf)

        def rows(lams: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
            x = x0 + lams[:, None] * v
            return x, np.tile(v, (len(lams), 1)), np.zeros_like(x)

    if lam0 <= lo or lam0 >= hi:
        raise InadmissibleInitialState(f"span start {lam0} outside maximal interval ({lo}, {hi})")
    margin = 1e-9 * (lam1 - lam0)
    lam_hi = min(lam1, hi - margin)
    truncated = lam_hi < lam1
    lams = np.linspace(lam0, lam_hi, num)
    return Trajectory(
        Chart.RATIO, lams, *rows(lams),
        termination=TerminationReason.DOMAIN_BOUNDARY if truncated else TerminationReason.SPAN_COMPLETE,
    )


# -- Levi-Civita right-hand sides --------------------------------------------

def _accel_xy(a: float, b: float, x, y, vx, vy):
    """Geodesic acceleration (x'', y'') in the ratio chart.  Takes floats
    (raising within EPS_SINGULAR of Delta = 0) or equal-shape arrays (no
    guard: NaN only where Delta = 0; each row has the bits of its one-point
    call)."""
    Z = z_xy(a, b, x, y)
    Delta = delta(a, b, Z)
    if isinstance(Delta, np.ndarray):
        Delta = np.where(Delta == 0.0, math.nan, Delta)
    elif abs(Delta) < EPS_SINGULAR:
        raise SingularMetric(f"|Delta| = {abs(Delta):.3e} below guard")
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
    return ax, ay


def lc_rhs_xy(state: GeodesicState, a: float, b: float) -> np.ndarray:
    """Geodesic acceleration (x'', y'') of the Levi-Civita connection in the
    ratio chart; equals minus the Christoffel contraction."""
    if state.chart is not Chart.RATIO:
        raise UnsupportedChartPair("lc_rhs_xy expects a ratio-chart state")
    x, y = state.position
    vx, vy = state.velocity
    return np.array(_accel_xy(a, b, x, y, vx, vy))


def _qr_lhs_parts(a: float, b: float, q, qd, rd, xp=math):
    """Split the implicit rotated-chart geodesic equations as
    LHS_q = L q'' + Fq and LHS_r = L r'' + Fr, all coefficients functions
    of q only.  Takes floats or equal-shape arrays, with `xp` the module
    for cosh and sinh (math, core.ROW_MATH or numpy); undefined at q = 0."""
    n2 = a * a + b * b
    ch = xp.cosh(q)
    sh = xp.sinh(q)
    L = 2.0 * n2 * n2 * ((a + b) * ch - sh)
    a4 = a**4 - a**3 * b + 4.0 * a * a * b * b - a * b**3 + b**4
    Fq = (
        -2.0 * a * b * (a - b) * (a + b) * qd * ch * rd
        + a * b * (a + b) ** 2 * ch * rd * rd
        + qd * qd * ((a + b) * n2 * n2 * sh - a4 * ch)
    )
    cth = ch / sh
    csch = 1.0 / sh
    a3 = a**3 + b**3
    Fr = (
        2.0 * (a + b) * qd * cth * rd * (n2 * n2 * ch - a3 * sh)
        - 0.5 * (a - b) * qd * qd * csch * (-a3 * xp.sinh(2.0 * q) + n2 * n2 * xp.cosh(2.0 * q) + 3.0 * n2 * n2)
        + a * b * (a - b) * (a + b) * ch * rd * rd
    )
    return L, Fq, Fr


def _accel_qr(a: float, b: float, q, qd, rd):
    """Geodesic acceleration (q'', r'') solved from the implicit forms.
    Takes floats (raising within EPS_SINGULAR of q = 0 or L = 0) or
    equal-shape arrays (no guard: NaN only where q = 0 or L = 0; each row
    has the bits of its one-point call)."""
    if isinstance(q, np.ndarray):
        q = np.where(q == 0.0, math.nan, q)
    elif abs(math.sinh(q)) < EPS_SINGULAR:
        raise ZeroQ("q = 0 lies on the zero-cost hypersurface")
    L, Fq, Fr = _qr_lhs_parts(a, b, q, qd, rd, math_for(q))
    if isinstance(L, np.ndarray):
        L = np.where(L == 0.0, math.nan, L)
    elif abs(L) < EPS_SINGULAR:
        raise SingularMetric("(a+b) cosh q = sinh q: leading coefficient vanishes")
    return -Fq / L, -Fr / L


def lc_rhs_qr(state: GeodesicState, a: float, b: float) -> np.ndarray:
    """Geodesic acceleration (q'', r'') in the rotated chart, solved from the
    implicit forms; all coefficients depend on the point through q only."""
    if state.chart is not Chart.QR:
        raise UnsupportedChartPair("lc_rhs_qr expects a (q, r)-chart state")
    qd, rd = state.velocity
    return np.array(_accel_qr(a, b, float(state.position[0]), qd, rd))


# -- adaptive integration ----------------------------------------------------

def _guard_xy(a: float, b: float, pos: Sequence[float]) -> Optional[TerminationReason]:
    if pos[0] <= DELTA_DOMAIN or pos[1] <= DELTA_DOMAIN:
        return TerminationReason.DOMAIN_BOUNDARY
    if abs(delta(a, b, z_xy(a, b, pos[0], pos[1]))) < DELTA_STOP:
        return TerminationReason.SINGULARITY_REACHED
    return None


def _guard_qr(a: float, b: float, pos: Sequence[float]) -> Optional[TerminationReason]:
    if abs(delta(a, b, math.exp(2.0 * pos[0]))) < DELTA_STOP:
        return TerminationReason.SINGULARITY_REACHED
    return None


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
        guard = _guard_xy
        accel = lambda y: _accel_xy(a, b, y[0], y[1], y[2], y[3])
    elif state0.chart is Chart.QR:
        guard = _guard_qr
        accel = lambda y: _accel_qr(a, b, y[0], y[2], y[3])
    else:
        raise UnsupportedChartPair("geodesic integration runs in the RATIO or QR chart")

    def rhs(_lam: float, y: List[float]) -> List[float]:
        return [y[2], y[3], *accel(y)]

    try:
        reason0 = guard(a, b, state0.position)
    except OverflowError:  # Z = x^2a y^2b = e^2q is not representable
        raise InadmissibleInitialState("Z overflows at the initial state") from None
    if reason0 is not None:
        raise InadmissibleInitialState(f"initial state already at guard: {reason0.value}")

    y0 = np.concatenate([state0.position, state0.velocity])
    sol = ode.integrate(rhs, y0, (lam0, lam1), tol, stop=lambda _lam, y: guard(a, b, y))
    return Trajectory.from_solution(
        sol, state0.chart, lam0, samples,
        lambda ys: (ys[:, :2], ys[:, 2:], np.column_stack(accel(ys.T))),
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
        L, Fq, Fr = _qr_lhs_parts(a, b, q, qd, rd, np)
        out = np.abs(L * qdd + Fq) + np.abs(L * rdd + Fr)
    return np.where(q == 0.0, math.inf, out)
