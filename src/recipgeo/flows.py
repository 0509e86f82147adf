"""Euclidean gradient flows of the cost in logarithmic coordinates.

The flow dt/dtau = +-alpha sinh(alpha . t) moves only along alpha: the
scalar S = alpha . t obeys dS/dtau = +-|alpha|^2 sinh S with the closed-form
solution S(tau) = 2 artanh(C e^{+-|alpha|^2 tau}), C = tanh(S0/2), while all
projections onto the radical distribution are conserved.  Descent decays to
the zero-cost leaf; ascent blows up at tau* = -ln|C| / |alpha|^2.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from . import ode
from .core import ROW_MATH, Chart, ChartPoint, WeightVector, entrywise
from .errors import BlowupTime, DimensionMismatch, InvalidSpan
from .geodesics import DENSE_SAMPLES, TerminationReason, Trajectory, _require_samples
from .hessian import radical_basis

# |S| below this counts as converged to the minimum (descent)
CONVERGED_S = 1e-12
# ascent halts once |S| exceeds this (sinh would soon overflow)
BLOWUP_S = 700.0
# on an ascent halt, |S| above this classifies the stop as blowup
BLOWUP_CLASSIFY_S = 20.0


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


def _S_of(t: np.ndarray, w: WeightVector) -> float:
    return float(np.dot(w.alpha, t))


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
    arr = _coords(t, w)
    return sign.value * w.alpha * math.sinh(_S_of(arr, w))


def cost_rate(t, w: WeightVector, sign: FlowSign) -> float:
    """dJ/dtau along the flow: +-|alpha|^2 sinh^2(S)."""
    arr = _coords(t, w)
    s = math.sinh(_S_of(arr, w))
    return sign.value * w.norm_sq * s * s


def closed_form_S(S0: float, tau: float, w: WeightVector, sign: FlowSign) -> float:
    """S(tau) = 2 artanh(tanh(S0/2) e^{+-|alpha|^2 tau})."""
    C = math.tanh(0.5 * S0)
    arg = C * math.exp(sign.value * w.norm_sq * tau)
    if abs(arg) >= 1.0:
        tau_star = blowup_time(S0, w)
        raise BlowupTime(f"flow argument reached 1 (ascent blowup at tau* = {tau_star})")
    return 2.0 * math.atanh(arg)


def blowup_time(S0: float, w: WeightVector) -> float:
    """Finite horizon -ln|C| / |alpha|^2 of the ascent flow (inf for S0 = 0)."""
    C = math.tanh(0.5 * S0)
    if C == 0.0:
        return math.inf
    return -math.log(abs(C)) / w.norm_sq


def flow_solution(t0, w: WeightVector, sign: FlowSign) -> FlowSolution:
    """Integration constants and validity interval of the flow from t0."""
    arr = _coords(t0, w)
    S0 = _S_of(arr, w)
    C = math.tanh(0.5 * S0)
    basis = radical_basis(w).vectors
    transverse = basis @ arr if basis.size else np.empty(0)
    if C == 0.0:
        interval = (-math.inf, math.inf)
    elif sign is FlowSign.ASCENT:
        interval = (-math.inf, -math.log(abs(C)) / w.norm_sq)
    else:
        interval = (math.log(abs(C)) / w.norm_sq, math.inf)
    return FlowSolution(sign=sign, C=C, transverse=transverse, valid_interval=interval)


def integrate_flow(
    t0,
    w: WeightVector,
    sign: FlowSign,
    tau_span: Tuple[float, float],
    tol: float = 1e-10,
    samples: int = DENSE_SAMPLES,
    max_steps: int = 500_000,
) -> Trajectory:
    """Numerical gradient flow in log coordinates.

    Descent halts with CONVERGED once |S| < 1e-12; ascent halts with BLOWUP
    when |S| exceeds 700 or when the step size underflows chasing the finite
    horizon.  Samples record position, velocity (the gradient field), and the
    flow acceleration.
    """
    _require_samples(samples)
    arr = _coords(t0, w)
    tau0, tau1 = float(tau_span[0]), float(tau_span[1])
    if tau1 <= tau0:
        raise InvalidSpan("tau span must be increasing")
    cfg = ode.IntegratorConfig.for_span(tau1 - tau0, tol=tol, max_steps=max_steps)
    alpha = w.alpha
    n2 = w.norm_sq
    sgn = sign.value

    def rhs(_tau: float, y: np.ndarray) -> np.ndarray:
        return _flow_velocity(y, alpha, sgn)

    def stop(_tau: float, y: np.ndarray) -> Optional[TerminationReason]:
        S = float(np.dot(alpha, y))
        if sign is FlowSign.DESCENT and abs(S) < CONVERGED_S:
            return TerminationReason.CONVERGED
        if abs(S) > BLOWUP_S:
            return TerminationReason.BLOWUP
        return None

    S0 = _S_of(arr, w)
    if sign is FlowSign.DESCENT and abs(S0) < CONVERGED_S:
        zero = np.zeros((1, arr.size))
        return Trajectory(Chart.LOG, np.array([tau0]), arr[None, :].copy(), zero, zero.copy(),
                          TerminationReason.CONVERGED)

    sol = ode.integrate(rhs, arr, (tau0, tau1), cfg, stop=stop)
    return Trajectory.from_solution(
        sol, Chart.LOG, tau0, samples,
        lambda y: _underflow_reason(y, alpha, sign),
        lambda ys: (ys, _flow_velocity(ys, alpha, sgn), _flow_accel(ys, alpha, n2)),
    )


def _underflow_reason(y: np.ndarray, alpha: np.ndarray, sign: FlowSign) -> TerminationReason:
    """An ascent whose step size underflows far out (|S| > 20) is chasing the
    finite horizon: classify it as blowup."""
    S_end = float(np.dot(alpha, y))
    if sign is FlowSign.ASCENT and abs(S_end) > BLOWUP_CLASSIFY_S:
        return TerminationReason.BLOWUP
    return TerminationReason.STEP_UNDERFLOW


def _alpha_dot(y: np.ndarray, alpha: np.ndarray):
    """S = alpha . y with the module to evaluate functions of it: a float and
    `math` for one point y (n,), an (N, 1) column and core.ROW_MATH for rows
    (N, n).  The rows take one dot product each, so every S, and every value
    computed from it, has the bits of the one-point call."""
    if y.ndim == 1:
        return y @ alpha, math
    return y[:, None, :] @ alpha, ROW_MATH


def _flow_velocity(y: np.ndarray, alpha: np.ndarray, sgn: float) -> np.ndarray:
    """dt/dtau = +-alpha sinh(S), at one point or at rows (see _alpha_dot)."""
    S, xp = _alpha_dot(y, alpha)
    return sgn * xp.sinh(S) * alpha


def _sinh_cosh(S: float) -> float:
    """sinh(S) cosh(S) = sinh(2S) / 2; +-inf where sinh(2S) overflows."""
    try:
        return 0.5 * math.sinh(2.0 * S)
    except OverflowError:
        return math.copysign(math.inf, S)


def _flow_accel(y: np.ndarray, alpha: np.ndarray, n2: float) -> np.ndarray:
    """d^2 t / dtau^2 = |alpha|^2 sinh(S) cosh(S) alpha (both signs square),
    at one point or at rows."""
    S, xp = _alpha_dot(y, alpha)
    return n2 * (_sinh_cosh(S) if xp is math else entrywise(_sinh_cosh)(S)) * alpha
