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

import enum
import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from . import ode
from .connection import EPS_SINGULAR, AffineStructure, SingularContext
from .core import Chart, ChartPoint, log_to_qr, math_for
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

DELTA_DOMAIN = 1e-12
DENSE_SAMPLES = 512
# beyond this magnitude of a log coordinate the ratio image is not representable
LOG_COORD_MAX = 700.0


class TerminationReason(enum.Enum):
    SPAN_COMPLETE = "span_complete"
    SINGULARITY_REACHED = "singularity_reached"
    DOMAIN_BOUNDARY = "domain_boundary"
    STEP_UNDERFLOW = "step_underflow"
    # flow-specific outcomes
    CONVERGED = "converged"
    BLOWUP = "blowup"
    MAX_STEPS = "max_steps"


@dataclass(frozen=True)
class GeodesicState:
    chart: Chart
    position: np.ndarray
    velocity: np.ndarray
    lam: float
    acceleration: Optional[np.ndarray] = None

    def __post_init__(self):
        object.__setattr__(self, "position", np.asarray(self.position, dtype=float))
        object.__setattr__(self, "velocity", np.asarray(self.velocity, dtype=float))
        if self.acceleration is not None:
            object.__setattr__(self, "acceleration", np.asarray(self.acceleration, dtype=float))


@dataclass
class Trajectory:
    """A sampled trajectory in `chart`, one row per sample: parameters
    `lambdas` (N,) and the (N, n) arrays `positions`, `velocities` and
    `accelerations`.  An acceleration row is NaN where its closed form is
    undefined at that sample."""

    chart: Chart
    lambdas: np.ndarray
    positions: np.ndarray
    velocities: np.ndarray
    accelerations: np.ndarray
    termination: TerminationReason
    accepted: int = 0
    rejected: int = 0

    @property
    def samples(self) -> List[GeodesicState]:
        """The rows as GeodesicState objects, built anew on every access.

        Kept only because the benchmark's tracer (perfbench/spans.py) counts
        residual samples with len(traj.samples).  Nothing in the package or
        its tests calls it: read the arrays instead."""
        rows = zip(self.lambdas, self.positions, self.velocities, self.accelerations)
        return [GeodesicState(self.chart, p, v, float(lam), acceleration=acc) for lam, p, v, acc in rows]

    @classmethod
    def from_solution(cls, sol: ode.RawSolution, chart: Chart, lam0: float, samples: int,
                      underflow: Callable[[np.ndarray], TerminationReason],
                      split: Callable[[np.ndarray], tuple]) -> "Trajectory":
        """Dense samples of an integrated run at `samples` uniform parameters
        from lam0 to where it stopped (one sample if it stopped at lam0).

        `underflow(y)` names the reason for a run whose step size underflowed
        at final state y; `split(ys)` maps the sampled states, one per row,
        to (positions, velocities, accelerations)."""
        termination = {
            "span": TerminationReason.SPAN_COMPLETE,
            "maxsteps": TerminationReason.MAX_STEPS,
            "stopped": sol.stop_reason,
        }.get(sol.status) or underflow(sol.ys[-1])
        lam_end = sol.t_end
        lambdas = np.linspace(lam0, lam_end, samples) if lam_end != lam0 else np.array([lam0])
        positions, velocities, accelerations = split(ode.dense_sample(sol, lambdas))
        return cls(chart, lambdas, positions, velocities, accelerations, termination,
                   sol.accepted, sol.rejected)


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
    lo, hi = -math.inf, math.inf
    for xi, vi in zip(x0, v):
        if vi > 0.0:
            lo = max(lo, -xi / vi)
        elif vi < 0.0:
            hi = min(hi, -xi / vi)
    return (lambda lam: x0 + lam * v), (lo, hi)


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
        lo, hi = -math.inf, math.inf
        for ti, vi in zip(t0, v):  # keep |t_i + lam v_i| <= LOG_COORD_MAX
            if vi > 0.0:
                hi = min(hi, (LOG_COORD_MAX - ti) / vi)
                lo = max(lo, (-LOG_COORD_MAX - ti) / vi)
            elif vi < 0.0:
                hi = min(hi, (-LOG_COORD_MAX - ti) / vi)
                lo = max(lo, (LOG_COORD_MAX - ti) / vi)

        def rows(lams: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
            x = np.exp(t0 + lams[:, None] * v)
            return x, v * x, v * v * x

    else:
        x0 = start.coords if start.chart is Chart.RATIO else np.exp(start.coords)
        _, (lo, hi) = affine_geodesic_ratio(x0, v)

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
    ctx = SingularContext.from_xy(a, b, x, y)
    Z, Delta = ctx.Z, ctx.Delta
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

def _guard_xy(a: float, b: float, pos: np.ndarray) -> Optional[TerminationReason]:
    if pos[0] <= DELTA_DOMAIN or pos[1] <= DELTA_DOMAIN:
        return TerminationReason.DOMAIN_BOUNDARY
    if abs(SingularContext.from_xy(a, b, pos[0], pos[1]).Delta) < EPS_SINGULAR:
        return TerminationReason.SINGULARITY_REACHED
    return None


def _guard_qr(a: float, b: float, pos: np.ndarray) -> Optional[TerminationReason]:
    q = pos[0]
    sh = math.sinh(q)
    if abs(sh) < EPS_SINGULAR or abs((a + b) * math.cosh(q) - sh) < EPS_SINGULAR:
        return TerminationReason.SINGULARITY_REACHED
    return None


def _underflow_xy(a: float, b: float, pos: np.ndarray) -> TerminationReason:
    """Attribute a step underflow to a guard if the final state is within
    10x of one."""
    if abs(SingularContext.from_xy(a, b, pos[0], pos[1]).Delta) < 10.0 * EPS_SINGULAR:
        return TerminationReason.SINGULARITY_REACHED
    if pos[0] <= 10.0 * DELTA_DOMAIN or pos[1] <= 10.0 * DELTA_DOMAIN:
        return TerminationReason.DOMAIN_BOUNDARY
    return TerminationReason.STEP_UNDERFLOW


def _underflow_qr(a: float, b: float, pos: np.ndarray) -> TerminationReason:
    """Attribute a step underflow to a guard if the final state is within
    10x of one."""
    q = pos[0]
    if abs(math.sinh(q)) < 10.0 * EPS_SINGULAR or \
       abs((a + b) * math.cosh(q) - math.sinh(q)) < 10.0 * EPS_SINGULAR:
        return TerminationReason.SINGULARITY_REACHED
    return TerminationReason.STEP_UNDERFLOW


def integrate_geodesic(
    state0: GeodesicState,
    a: float,
    b: float,
    span: Tuple[float, float],
    tol: float = 1e-10,
    samples: int = DENSE_SAMPLES,
    max_steps: int = 500_000,
) -> Trajectory:
    """Integrate a Levi-Civita geodesic in the chart of the initial state.

    Runs the embedded 5(4) pair with per-step tolerance `tol`, halting early
    when the singular guard trips, a ratio coordinate reaches the domain
    boundary, or the step size underflows.  The returned trajectory holds
    `samples` densely sampled states at uniform parameter values, with the
    accelerations evaluated from the closed-form right-hand side.
    """
    _require_samples(samples)
    lam0, lam1 = float(span[0]), float(span[1])
    if lam1 == lam0:
        raise InvalidSpan("span must have nonzero length")
    cfg = ode.IntegratorConfig.for_span(abs(lam1 - lam0), tol=tol, max_steps=max_steps)
    if state0.chart is Chart.RATIO:
        guard, underflow = _guard_xy, _underflow_xy
        accel = lambda y: _accel_xy(a, b, y[0], y[1], y[2], y[3])
    elif state0.chart is Chart.QR:
        guard, underflow = _guard_qr, _underflow_qr
        accel = lambda y: _accel_qr(a, b, y[0], y[2], y[3])
    else:
        raise UnsupportedChartPair("geodesic integration runs in the RATIO or QR chart")

    # Python floats: the closed forms run faster on them than on numpy scalars
    def rhs(_lam: float, yv: np.ndarray) -> np.ndarray:
        y = yv.tolist()
        return np.array([y[2], y[3], *accel(y)])

    reason0 = guard(a, b, state0.position)
    if reason0 is not None:
        raise InadmissibleInitialState(f"initial state already at guard: {reason0.value}")

    y0 = np.concatenate([state0.position, state0.velocity])
    sol = ode.integrate(rhs, y0, (lam0, lam1), cfg, stop=lambda _lam, yv: guard(a, b, yv[:2].tolist()))
    return Trajectory.from_solution(
        sol, state0.chart, lam0, samples,
        lambda y: underflow(a, b, y[:2]),
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
