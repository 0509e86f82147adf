"""Adaptive embedded Runge-Kutta 5(4) integrator with quartic dense output.

Dormand-Prince coefficients are written out as rational constants so runs
are bit-reproducible.  The driver supports both span directions, retreats
from failed right-hand-side evaluations by shrinking the step, and checks a
caller-supplied stop predicate at accepted steps only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .errors import InvalidSpan, OutOfSpan, RecipGeoError, RhsEvaluationFailure

# Dormand-Prince 5(4): seven stages, order 5 propagator with embedded order 4
_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
# b5 - b4: coefficients of the local truncation error estimate
_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)
# The same weights as column vectors: a weighted sum of stage derivatives is
# then one product and one reduction over the stage axis, which adds the
# terms in stage order from 0.0 exactly as a term-by-term sum would.
_A_COLS = tuple(np.array(row).reshape(-1, 1) for row in _A)
_B5_COL = np.array(_B5).reshape(-1, 1)
_E_COL = np.array(_E).reshape(-1, 1)
# Quartic continuous extension of the order-5 solution (Shampine 1986; Hairer,
# Norsett & Wanner, Solving ODEs I, sec. II.6): within an accepted step,
#   y(t + theta h) = y + h * (K^T @ _P) @ (theta, theta^2, theta^3, theta^4),
# where K holds the seven stage derivatives, so sampling costs no rhs calls.
_P = np.array([
    [1.0, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432],
    [0.0, 0.0, 0.0, 0.0],
    [0.0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799],
    [0.0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072],
    [0.0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632],
    [0.0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
    [0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
])

_ORDER_EXP = -1.0 / 5.0
_SAFETY = 0.9
_SHRINK_LIMIT = 0.2
_GROW_LIMIT = 5.0

Rhs = Callable[[float, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class IntegratorConfig:
    rel_tol: float = 1e-10
    abs_tol: float = 1e-10
    initial_step: float = 1e-3
    max_step: float = 0.1
    min_step: float = 1e-14
    max_steps: int = 500_000

    def __post_init__(self):
        if not (0.0 < self.min_step <= self.initial_step <= self.max_step):
            raise InvalidSpan("need 0 < min_step <= initial_step <= max_step")
        if not (0.0 < self.rel_tol < math.inf and 0.0 < self.abs_tol < math.inf):
            raise InvalidSpan("tolerances must be positive and finite")

    @classmethod
    def for_span(cls, span_length: float, tol: float = 1e-10, max_steps: int = 500_000) -> "IntegratorConfig":
        """Span-scaled defaults: initial step 1e-3 of the span, step bounds
        [1e-14, 0.1] of the span."""
        if span_length <= 0.0:
            raise InvalidSpan("span length must be positive")
        return cls(
            rel_tol=tol,
            abs_tol=tol,
            initial_step=1e-3 * span_length,
            max_step=0.1 * span_length,
            min_step=1e-14 * span_length,
            max_steps=max_steps,
        )


@dataclass(frozen=True)
class StepResult:
    accepted: bool
    error_estimate: float
    next_step: float


_RHS_FAILURES = (RecipGeoError, OverflowError, ZeroDivisionError, FloatingPointError)


def _weighted(weights: np.ndarray, k: np.ndarray) -> np.ndarray:
    return np.add.reduce(weights * k[: len(weights)], axis=0, initial=0.0)


def _stages(rhs: Rhs, t: float, y: np.ndarray, h: float, k1: np.ndarray) -> np.ndarray:
    """The seven stage derivatives of one step, as rows of a (7, n) array."""
    k = np.empty((7,) + y.shape)
    k[0] = k1
    for s in range(1, 7):
        ts = t + _C[s] * h
        ys = y + h * _weighted(_A_COLS[s], k)
        try:
            k[s] = np.asarray(rhs(ts, ys), dtype=float)
        except _RHS_FAILURES as exc:
            raise RhsEvaluationFailure(ts, str(exc)) from exc
    return k


def _advance(rhs: Rhs, t: float, y: np.ndarray, h: float, k1: np.ndarray):
    """Raw order-5 update: returns (y5, stage derivatives, error vector).

    The last stage sits at t + h with the propagation weights, so k[6] is the
    derivative at the new point (FSAL)."""
    k = _stages(rhs, t, y, h, k1)
    y5 = y + h * _weighted(_B5_COL, k)
    err_vec = h * _weighted(_E_COL, k)
    return y5, k, err_vec


def step(
    rhs: Rhs,
    y: np.ndarray,
    t: float,
    h: float,
    cfg: IntegratorConfig,
    k1: Optional[np.ndarray] = None,
) -> Tuple[StepResult, np.ndarray, np.ndarray]:
    """One embedded trial step from (t, y) with signed step h.

    Returns the step result plus the order-5 solution at t + h and the (7, n)
    stage derivatives, whose last row is the derivative at t + h (both
    meaningful only when accepted).  The scaled error norm is the max
    component of |y5 - y4| / (abs_tol + rel_tol |y5|).
    """
    if k1 is None:
        try:
            k1 = np.asarray(rhs(t, y), dtype=float)
        except _RHS_FAILURES as exc:
            raise RhsEvaluationFailure(t, str(exc)) from exc
    y5, k, err_vec = _advance(rhs, t, y, h, k1)
    scale = cfg.abs_tol + cfg.rel_tol * np.abs(y5)
    with np.errstate(invalid="ignore"):
        err = float(np.max(np.abs(err_vec) / scale)) if y.size else 0.0
    if not np.all(np.isfinite(y5)) or not math.isfinite(err):
        bad_h = max(cfg.min_step, abs(h) * _SHRINK_LIMIT)
        return StepResult(False, math.inf, bad_h), y5, k
    if err == 0.0:
        factor = _GROW_LIMIT
    else:
        factor = min(_GROW_LIMIT, max(_SHRINK_LIMIT, _SAFETY * err**_ORDER_EXP))
    next_h = min(cfg.max_step, max(cfg.min_step, abs(h) * factor))
    return StepResult(err <= 1.0, err, next_h), y5, k


@dataclass
class RawSolution:
    """Accepted steps plus bookkeeping.

    `ts`/`ys` hold the initial and every accepted (param, state); `qs[i]` is
    the (n, 4) dense-output matrix K^T @ _P of the step from ts[i] to ts[i+1].
    """

    ts: List[float] = field(default_factory=list)
    ys: List[np.ndarray] = field(default_factory=list)
    qs: List[np.ndarray] = field(default_factory=list)
    accepted: int = 0
    rejected: int = 0
    status: str = "span"  # span | underflow | maxsteps | stopped
    stop_reason: Optional[object] = None

    @property
    def t_end(self) -> float:
        return self.ts[-1]


def integrate(
    rhs: Rhs,
    y0: np.ndarray,
    span: Tuple[float, float],
    cfg: Optional[IntegratorConfig] = None,
    stop: Optional[Callable[[float, np.ndarray], Optional[object]]] = None,
) -> RawSolution:
    """Drive the embedded pair across the span (either direction).

    The stop predicate is evaluated at the initial state and after every
    accepted step; a non-None value halts with status "stopped".  A failed
    right-hand-side evaluation inside a trial step rejects it and shrinks
    the step until it either clears the bad region or underflows.
    """
    t0, t1 = float(span[0]), float(span[1])
    if t1 == t0:
        raise InvalidSpan("span must have nonzero length")
    direction = 1.0 if t1 > t0 else -1.0
    length = abs(t1 - t0)
    if cfg is None:
        cfg = IntegratorConfig.for_span(length)

    sol = RawSolution()
    y = np.asarray(y0, dtype=float).copy()
    t = t0
    try:
        f = np.asarray(rhs(t, y), dtype=float)
    except _RHS_FAILURES as exc:
        raise RhsEvaluationFailure(t, str(exc)) from exc
    sol.ts.append(t)
    sol.ys.append(y.copy())
    if stop is not None:
        reason = stop(t, y)
        if reason is not None:
            sol.status = "stopped"
            sol.stop_reason = reason
            return sol

    h = cfg.initial_step
    while (t - t1) * direction < 0.0:
        if sol.accepted + sol.rejected >= cfg.max_steps:
            sol.status = "maxsteps"
            return sol
        remaining = abs(t1 - t)
        if remaining <= 1e-15 * max(abs(t), abs(t1)):
            break  # span resolved to machine precision
        h_try = min(h, remaining)
        try:
            result, y_new, k = step(rhs, y, t, direction * h_try, cfg, k1=f)
        except RhsEvaluationFailure:
            sol.rejected += 1
            if h_try <= cfg.min_step * (1.0 + 1e-12):
                sol.status = "underflow"
                return sol
            h = max(cfg.min_step, h_try * _SHRINK_LIMIT)
            continue
        if not result.accepted:
            sol.rejected += 1
            if h_try <= cfg.min_step * (1.0 + 1e-12):
                sol.status = "underflow"
                return sol
            h = result.next_step
            continue
        t = t + direction * h_try
        y = y_new
        f = k[6]
        sol.accepted += 1
        sol.ts.append(t)
        sol.ys.append(y.copy())
        sol.qs.append(k.T @ _P)
        if stop is not None:
            reason = stop(t, y)
            if reason is not None:
                sol.status = "stopped"
                sol.stop_reason = reason
                return sol
        h = result.next_step
    return sol


def dense_sample(sol: RawSolution, queries: Sequence[float]) -> np.ndarray:
    """Continuous-extension samples of the accepted steps at query params,
    as an (N, n) array whose row i is the state at queries[i].

    Queries must lie within the integrated span; accepted nodes return the
    stored states exactly."""
    if not sol.ts:
        raise OutOfSpan("empty solution")
    ts = np.asarray(sol.ts)
    ys = np.asarray(sol.ys)
    q = np.asarray(queries, dtype=float).reshape(-1)
    ascending = ts[-1] >= ts[0]
    lo, hi = (ts[0], ts[-1]) if ascending else (ts[-1], ts[0])
    outside = (q < lo - 1e-15 * max(1.0, abs(lo))) | (q > hi + 1e-15 * max(1.0, abs(hi)))
    if np.any(outside):
        raise OutOfSpan(f"query {q[outside][0]} outside integrated span [{lo}, {hi}]")
    q = np.clip(q, lo, hi)
    if len(ts) == 1:
        return ys[np.zeros(q.size, dtype=int)]
    # the step holding each query, counted along the direction of integration
    if ascending:
        idx = np.searchsorted(ts, q, side="right") - 1
    else:
        idx = np.searchsorted(-ts, -q, side="right") - 1
    idx = np.clip(idx, 0, len(ts) - 2)
    left, right = ts[idx], ts[idx + 1]
    h = right - left
    theta = (q - left) / h
    powers = np.stack([theta, theta * theta, theta**3, theta**4], axis=-1)
    start = ys[idx]
    out = start + h[:, None] * (np.asarray(sol.qs)[idx] @ powers[:, :, None])[:, :, 0]
    at_left, at_right = q == left, q == right
    out[at_left] = start[at_left]
    out[at_right] = ys[idx[at_right] + 1]
    return out
