"""Adaptive embedded Runge-Kutta 5(4) integrator with quartic dense output.

Dormand-Prince coefficients are written out as rational constants so runs
are bit-reproducible.  The driver supports both span directions, retreats
from failed right-hand-side evaluations by shrinking the step, and checks a
caller-supplied stop predicate at accepted steps only.

The rhs `rhs(t, y)` and the predicate `stop(t, y)` receive the state as a
list of Python floats, and the rhs returns a sequence of floats.  A trial
step runs on Python floats, because on states of a few components one numpy
call costs more than its arithmetic.  Each weighted sum of stage derivatives
is one expression per component, written in stage order from 0.0 with the
zero weights kept: y_i + h*(0.0 + a_s1*k1_i + a_s2*k2_i + ...).  Every term
is one IEEE multiply and one add, so the sums have the bits of an in-order
product-and-reduce over the stages, and a NaN or infinity in any stage
reaches y5 and rejects the step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
# order-5 weights
_B = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
# b5 - b4: coefficients of the local truncation error estimate
_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)
# The same tableau by entry, with stages k1..k7 as in Hairer, Norsett &
# Wanner, for the sums that step() writes out.
(_A21,), (_A31, _A32), (_A41, _A42, _A43), (_A51, _A52, _A53, _A54), \
    (_A61, _A62, _A63, _A64, _A65), (_A71, _A72, _A73, _A74, _A75, _A76) = _A[1:]
_B1, _B2, _B3, _B4, _B5, _B6, _B7 = _B
_E1, _E2, _E3, _E4, _E5, _E6, _E7 = _E
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
# Step control in fractions of the span length: the first trial step, and
# the bounds the driver clamps every next step to.
FIRST_STEP = 1e-3
MIN_STEP = 1e-14
MAX_STEP = 0.1
# trial steps, accepted or rejected, after which a run ends with "maxsteps"
MAX_STEPS = 500_000

Rhs = Callable[[float, List[float]], Sequence[float]]


@dataclass(frozen=True)
class StepResult:
    accepted: bool
    error_estimate: float
    next_step: float


_RHS_FAILURES = (RecipGeoError, OverflowError, ZeroDivisionError, FloatingPointError)


def _retreat(h: float) -> StepResult:
    """The rejection of a step with no usable error estimate (a non-finite
    or failed stage): the next try is 0.2 |h|."""
    return StepResult(False, math.inf, abs(h) * _SHRINK_LIMIT)


def step(
    rhs: Rhs,
    y: List[float],
    t: float,
    h: float,
    tol: float,
    k1: Sequence[float],
) -> Tuple[StepResult, List[float], List[Sequence[float]]]:
    """One embedded trial step from (t, y) with signed step h, given the
    derivative k1 at (t, y).

    Returns the step result plus the order-5 solution at t + h and the seven
    stage derivatives k1..k7, whose last is the derivative at t + h (FSAL;
    both meaningful only when accepted).  The scaled error norm is the max
    component of |y5 - y4| / (tol + tol |y5|).  A step whose y5 or error is
    not finite is rejected with next step 0.2 |h|.  The next step is not yet
    clamped to the span's step bounds; the driver does that.
    """
    k = [k1]
    try:
        k.append(rhs(t + _C[1] * h, [yi + h * (0.0 + _A21 * a) for yi, a in zip(y, *k)]))
        k.append(rhs(t + _C[2] * h, [yi + h * (0.0 + _A31 * a + _A32 * b) for yi, a, b in zip(y, *k)]))
        k.append(rhs(t + _C[3] * h, [yi + h * (0.0 + _A41 * a + _A42 * b + _A43 * c)
                                     for yi, a, b, c in zip(y, *k)]))
        k.append(rhs(t + _C[4] * h, [yi + h * (0.0 + _A51 * a + _A52 * b + _A53 * c + _A54 * d)
                                     for yi, a, b, c, d in zip(y, *k)]))
        k.append(rhs(t + _C[5] * h, [yi + h * (0.0 + _A61 * a + _A62 * b + _A63 * c + _A64 * d + _A65 * e)
                                     for yi, a, b, c, d, e in zip(y, *k)]))
        k.append(rhs(t + _C[6] * h, [yi + h * (0.0 + _A71 * a + _A72 * b + _A73 * c + _A74 * d + _A75 * e
                                                + _A76 * f) for yi, a, b, c, d, e, f in zip(y, *k)]))
    except _RHS_FAILURES as exc:
        raise RhsEvaluationFailure(t + _C[len(k)] * h, str(exc), len(k)) from exc
    y5 = [yi + h * (0.0 + _B1 * a + _B2 * b + _B3 * c + _B4 * d + _B5 * e + _B6 * f + _B7 * g)
          for yi, a, b, c, d, e, f, g in zip(y, *k)]
    ratios = [abs(h * (0.0 + _E1 * a + _E2 * b + _E3 * c + _E4 * d + _E5 * e + _E6 * f + _E7 * g))
              / (tol + tol * abs(v)) for v, a, b, c, d, e, f, g in zip(y5, *k)]
    err = max(ratios, default=0.0)  # NaN only if y5 is not finite
    if not (all(map(math.isfinite, y5)) and math.isfinite(err)):
        return _retreat(h), y5, k
    if err == 0.0:
        factor = _GROW_LIMIT
    else:
        factor = min(_GROW_LIMIT, max(_SHRINK_LIMIT, _SAFETY * err**_ORDER_EXP))
    return StepResult(err <= 1.0, err, abs(h) * factor), y5, k


@dataclass
class RawSolution:
    """Accepted steps plus bookkeeping.

    `ts` holds the initial and every accepted param, `ys` the (N, n) states
    there; `qs[i]` is the (n, 4) dense-output matrix K^T @ _P of the step
    from ts[i] to ts[i+1].  `nfev` counts rhs evaluations; `h_min`/`h_max`
    are the smallest and largest |ts[i+1] - ts[i]| (NaN if no step was
    accepted).
    """

    ts: List[float]
    ys: np.ndarray
    qs: np.ndarray
    accepted: int
    rejected: int
    status: str  # span | underflow | maxsteps | stopped
    stop_reason: Optional[object]
    nfev: int
    h_min: float
    h_max: float


def integrate(
    rhs: Rhs,
    y0: np.ndarray,
    span: Tuple[float, float],
    tol: float = 1e-10,
    stop: Optional[Callable[[float, List[float]], Optional[object]]] = None,
) -> RawSolution:
    """Drive the embedded pair across the span (either direction) with
    relative and absolute tolerance `tol`.

    The first trial step is FIRST_STEP of the span length, every next step
    is clamped to [MIN_STEP, MAX_STEP] of it, and a run ends with status
    "maxsteps" after MAX_STEPS trial steps.

    The stop predicate is evaluated at the initial state and after every
    accepted step; a non-None value halts with status "stopped".  A failed
    right-hand-side evaluation inside a trial step rejects it like a
    non-finite one, shrinking the step until it either clears the bad region
    or underflows.
    """
    t0, t1 = float(span[0]), float(span[1])
    if t1 == t0:
        raise InvalidSpan("span must have nonzero length")
    if not 0.0 < tol < math.inf:
        raise InvalidSpan("tolerances must be positive and finite")
    direction = 1.0 if t1 > t0 else -1.0
    length = abs(t1 - t0)
    min_step, max_step = MIN_STEP * length, MAX_STEP * length

    y = np.asarray(y0, dtype=float).tolist()
    t = t0
    try:
        f = rhs(t, y)
    except _RHS_FAILURES as exc:
        raise RhsEvaluationFailure(t, str(exc)) from exc
    # Accepted states and stage derivatives go into flat lists of floats, so
    # the loop leaves no containers behind for the cyclic garbage collector
    # to traverse; they become arrays once at the end.
    n = len(y)
    ts, ys, ks = [t], list(y), []
    accepted = rejected = 0
    nfev = 1
    status = "span"
    reason = None if stop is None else stop(t, y)
    h = FIRST_STEP * length
    while reason is None and (t - t1) * direction < 0.0:
        if accepted + rejected >= MAX_STEPS:
            status = "maxsteps"
            break
        remaining = abs(t1 - t)
        if remaining <= 1e-15 * max(abs(t), abs(t1)):
            break  # span resolved to machine precision
        h_try = min(h, remaining)
        try:
            result, y_new, k = step(rhs, y, t, direction * h_try, tol, f)
            nfev += 6
        except RhsEvaluationFailure as exc:
            nfev += exc.stage
            result = _retreat(h_try)
        h = min(max_step, max(min_step, result.next_step))
        if not result.accepted:
            rejected += 1
            if h_try <= min_step * (1.0 + 1e-12):
                status = "underflow"
                break
            continue
        t = t + direction * h_try
        y, f = y_new, k[6]
        ts.append(t)
        ys.extend(y)
        for ki in k:
            ks.extend(ki)
        accepted += 1
        if stop is not None:
            reason = stop(t, y)
    if reason is not None:
        status = "stopped"
    # (M, 7, n) stage derivatives -> (M, n, 4) dense-output matrices
    stages = np.array(ks, dtype=float).reshape(accepted, 7, n)
    hs = np.abs(np.diff(ts)) if accepted else np.array([math.nan])
    return RawSolution(
        ts=ts, ys=np.array(ys, dtype=float).reshape(len(ts), n), qs=stages.transpose(0, 2, 1) @ _P,
        accepted=accepted, rejected=rejected, status=status, stop_reason=reason, nfev=nfev,
        h_min=float(hs.min()), h_max=float(hs.max()),
    )


def dense_sample(sol: RawSolution, queries: Sequence[float]) -> np.ndarray:
    """Continuous-extension samples of the accepted steps at query params,
    as an (N, n) array whose row i is the state at queries[i].

    Queries must lie within the integrated span; accepted nodes return the
    stored states exactly."""
    if not sol.ts:
        raise OutOfSpan("empty solution")
    ts, ys = np.asarray(sol.ts), sol.ys
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
    out = start + h[:, None] * (sol.qs[idx] @ powers[:, :, None])[:, :, 0]
    at_left, at_right = q == left, q == right
    out[at_left] = start[at_left]
    out[at_right] = ys[idx[at_right] + 1]
    return out
