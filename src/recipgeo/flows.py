"""Euclidean gradient flows of the cost in logarithmic coordinates.

The flow dt/dtau = +-alpha sinh(alpha . t) moves only along alpha: the
scalar S = alpha . t obeys dS/dtau = +-|alpha|^2 sinh S with the closed-form
solution S(tau) = 2 artanh(C e^{+-|alpha|^2 tau}), C = tanh(S0/2), while all
projections onto the radical distribution are conserved.  Descent decays to
the zero-cost leaf; ascent blows up at tau* = -ln|C| / |alpha|^2.

integrate_flow therefore integrates the one scalar equation in S and
rebuilds the positions as t = t0 + (S - S0) / |alpha|^2 alpha, whatever n.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from . import ode
from .core import Chart, ChartPoint, WeightVector, alpha_dot, entrywise, math_for
from .errors import BlowupTime, DimensionMismatch, InvalidSpan
from .geodesics import DENSE_SAMPLES, TerminationReason, Trajectory, _require_samples
from .hessian import radical_basis

# |S| below this counts as converged to the minimum (descent)
CONVERGED_S = 1e-12
# an ascent halts with BLOWUP once |S| exceeds this, about 2 e^-20 / |alpha|^2
# short of tau*.  Its accepted steps reach it: they shrink toward tau* until
# the step size underflows only at |S| of 28 to 35 (tol 1e-10).
BLOWUP_S = 20.0


class FlowSign(enum.Enum):
    ASCENT = 1.0
    DESCENT = -1.0


@dataclass(frozen=True)
class FlowSolution:
    """Closed-form description of one flow line."""

    sign: FlowSign
    C: float                      # tanh(S0 / 2)
    transverse: np.ndarray        # conserved radical projections r^k(0)
    valid_interval: Tuple[float, float]


def _coords(t, w: WeightVector) -> np.ndarray:
    if isinstance(t, ChartPoint):
        t.require_chart(Chart.LOG)
        arr = t.coords
    else:
        arr = np.asarray(t, dtype=float)
    if arr.size != w.n:
        raise DimensionMismatch(f"point has n={arr.size}, weights have n={w.n}")
    return arr


def gradient_field(t, w: WeightVector, sign: FlowSign) -> np.ndarray:
    """+-alpha sinh(alpha . t): everywhere parallel to alpha."""
    return _flow_velocity(_coords(t, w), w.alpha, sign.value)


def cost_rate(t, w: WeightVector, sign: FlowSign) -> float:
    """dJ/dtau along the flow: +-|alpha|^2 sinh^2(S)."""
    s = math.sinh(alpha_dot(_coords(t, w), w.alpha))
    return sign.value * w.norm_sq * s * s


def _flow_constant(S0: float) -> float:
    """C = tanh(S0/2), the constant of S(tau) = 2 artanh(C e^{+-|alpha|^2 tau})."""
    return math.tanh(0.5 * S0)


def closed_form_S(S0: float, tau, w: WeightVector, sign: FlowSign):
    """S(tau) = 2 artanh(tanh(S0/2) e^{+-|alpha|^2 tau}) at a float tau, or
    at each entry of an array of tau with the bits of its float call (libm
    entrywise) and NaN where the float call raises BlowupTime (|arg| >= 1)."""
    xp = math_for(tau)
    arg = _flow_constant(S0) * xp.exp(sign.value * w.norm_sq * tau)
    if xp is math:
        if abs(arg) >= 1.0:
            raise BlowupTime(f"flow argument reached 1 (ascent blowup at tau* = {blowup_time(S0, w)})")
        return 2.0 * math.atanh(arg)
    S = np.full_like(arg, np.nan)
    inside = np.abs(arg) < 1.0
    S[inside] = 2.0 * xp.atanh(arg[inside])
    return S


def blowup_time(S0: float, w: WeightVector) -> float:
    """Finite horizon -ln|C| / |alpha|^2 of the ascent flow (inf for S0 = 0)."""
    C = _flow_constant(S0)
    if C == 0.0:
        return math.inf
    return -math.log(abs(C)) / w.norm_sq


def radical_projections(t: np.ndarray, w: WeightVector) -> np.ndarray:
    """The projections r^k = b_k . t onto the radical basis, which every flow
    line conserves: (n-1,) at one point, (N, n-1) at rows (N, n).  The rows
    take one product each, so every row has the bits of the one-point call."""
    basis = radical_basis(w)
    if t.ndim == 2:
        return (t[:, None, :] @ basis.T)[:, 0]
    return basis @ t


def flow_solution(t0, w: WeightVector, sign: FlowSign) -> FlowSolution:
    """Integration constants and validity interval of the flow from t0."""
    arr = _coords(t0, w)
    S0 = alpha_dot(arr, w.alpha)
    tau_star = blowup_time(S0, w)
    interval = (-math.inf, tau_star) if sign is FlowSign.ASCENT else (-tau_star, math.inf)
    return FlowSolution(sign=sign, C=_flow_constant(S0), transverse=radical_projections(arr, w),
                        valid_interval=interval)


def integrate_flow(
    t0,
    w: WeightVector,
    sign: FlowSign,
    tau_span: Tuple[float, float],
    tol: float = 1e-10,
    samples: int = DENSE_SAMPLES,
) -> Trajectory:
    """Numerical gradient flow in log coordinates.

    The integrator runs on the one scalar S = alpha . t, dS/dtau =
    +-|alpha|^2 sinh S, from S0 = alpha . t0, and the sampled positions are
    rebuilt as t0 + (S - S0) / |alpha|^2 alpha, so the radical projections
    are conserved by construction and the steps taken do not depend on n.
    Descent halts with CONVERGED once |S| < 1e-12; ascent halts with BLOWUP
    once |S| exceeds 20, just short of the finite horizon.  Samples record
    position, velocity (the gradient field), and the flow acceleration.
    """
    _require_samples(samples)
    arr = _coords(t0, w)
    tau0, tau1 = float(tau_span[0]), float(tau_span[1])
    if tau1 <= tau0:
        raise InvalidSpan("tau span must be increasing")
    alpha = w.alpha
    n2 = w.norm_sq
    sgn = sign.value
    c = sgn * n2
    S0 = alpha_dot(arr, alpha)

    def stop(_tau: float, y: List[float]) -> Optional[TerminationReason]:
        if sign is FlowSign.DESCENT and abs(y[0]) < CONVERGED_S:
            return TerminationReason.CONVERGED
        if sign is FlowSign.ASCENT and abs(y[0]) > BLOWUP_S:
            return TerminationReason.BLOWUP
        return None

    def split(S: np.ndarray) -> tuple:
        ts = arr + (S - S0) / n2 * alpha
        return ts, _flow_velocity(ts, alpha, sgn), _flow_accel(ts, alpha, n2)

    sol = ode.integrate(lambda _tau, y: [c * math.sinh(y[0])], [S0], (tau0, tau1), tol, stop=stop)
    return Trajectory.from_solution(sol, Chart.LOG, tau0, samples, split)


def _flow_velocity(y, alpha: np.ndarray, sgn: float):
    """dt/dtau = +-alpha sinh(S), at one point or at rows (see core.alpha_dot)."""
    S = alpha_dot(y, alpha)
    return np.multiply.outer(sgn * math_for(S).sinh(S), alpha)


def _sinh_cosh(S: float) -> float:
    """sinh(S) cosh(S) = sinh(2S) / 2; +-inf where sinh(2S) overflows."""
    try:
        return 0.5 * math.sinh(2.0 * S)
    except OverflowError:
        return math.copysign(math.inf, S)


def _flow_accel(y: np.ndarray, alpha: np.ndarray, n2: float) -> np.ndarray:
    """d^2 t / dtau^2 = |alpha|^2 sinh(S) cosh(S) alpha (both signs square),
    at one point or at rows."""
    S = alpha_dot(y, alpha)
    sc = entrywise(_sinh_cosh)(S) if isinstance(S, np.ndarray) else _sinh_cosh(S)
    return np.multiply.outer(n2 * sc, alpha)
