"""Adaptive embedded Runge-Kutta 5(4) integrator with quartic dense output.

Dormand-Prince coefficients are written out as rational constants so runs
are bit-reproducible.  The driver supports both span directions, retreats
from failed right-hand-side evaluations by shrinking the step, and checks a
caller-supplied stop predicate at accepted steps only.  A run names how it
ended once, as `termination`: the predicate's value or a TerminationReason.

The rhs `rhs(t, y)` and the predicate `stop(t, y)` receive the state as a
list of Python floats, and the rhs returns a sequence of floats.  A trial
step runs on Python floats, because on states of a few components one numpy
call costs more than its arithmetic.

The trial step is straight-line code, generated once per state size n on
first use (n = 1 for flows, n = 4 for geodesics) and cached; `step`
dispatches on len(y).  The generator writes every weighted sum of stage
derivatives as one expression per component, in stage order from 0.0 with
the zero weights skipped: y_i + h*(0.0 + a_s1*k1_i + a_s2*k2_i + ...), each
tableau weight embedded by its repr, which round-trips the float.  Every
term is one IEEE multiply and one add, so the sums have the bits of an
in-order product-and-reduce over the stages, signed zeros included: a sum
that starts from +0.0 is never -0.0, so a skipped 0.0*k term, itself a
zero, could not have changed it.  The pair is FSAL: the seventh stage is
evaluated at y5 itself, so y5 is that stage's state, formed once.  A
skipped stage (k2 and k7) would have carried a NaN or an infinity into y5
as 0.0*k; each is tested for finiteness explicitly instead, so a NaN or an
infinity in any stage still rejects the step.  `exec` only
ever compiles text built from this module's constants and the integer n;
no value from a caller enters the source.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

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
# trial steps, accepted or rejected, after which a run ends with MAX_STEPS
MAX_STEPS = 500_000

Rhs = Callable[[float, List[float]], Sequence[float]]


class TerminationReason(enum.Enum):
    # the ends of a run that the driver names
    SPAN_COMPLETE = "span_complete"
    STEP_UNDERFLOW = "step_underflow"
    MAX_STEPS = "max_steps"
    # the values of the geodesic and flow stop predicates
    SINGULARITY_REACHED = "singularity_reached"
    DOMAIN_BOUNDARY = "domain_boundary"
    CONVERGED = "converged"
    BLOWUP = "blowup"


class StepResult(NamedTuple):
    accepted: bool
    error_estimate: float
    next_step: float


_RHS_FAILURES = (RecipGeoError, OverflowError, ZeroDivisionError, FloatingPointError)


def _retreat(h: float) -> StepResult:
    """The rejection of a step with no usable error estimate (a non-finite
    or failed stage): the next try is 0.2 |h|."""
    return StepResult(False, math.inf, abs(h) * _SHRINK_LIMIT)


def _step_source(n: int) -> str:
    """Python source of the trial step on states of n components, written as
    the module docstring says.  The state and every stage derivative are
    unpacked into locals y_i and k<s>_i, so the rhs returns n values."""
    # FSAL: the seventh stage is evaluated at y5 itself
    assert _A[6] == _B[:6] and _B[6] == 0.0
    # the stages that some weighted sum skips for a zero weight
    skipped = sorted({s for row in (*_A, _B, _E) for s, w in enumerate(row) if w == 0.0})

    def unpack(name):
        return f"[{', '.join(f'{name}_{i}' for i in range(n))}] = {name}"

    def weighted(weights, i):
        return "0.0" + "".join(f" + {w!r} * k{s + 1}_{i}" for s, w in enumerate(weights) if w != 0.0)

    lines = ["def step(rhs, y, t, h, tol, k1):", f"    {unpack('y')}", f"    {unpack('k1')}"]
    for s in range(1, 7):
        at = f"t + {_C[s]!r} * h"
        if s == 6:
            lines += [f"    y5_{i} = y_{i} + h * ({weighted(_A[s], i)})" for i in range(n)]
            state = ", ".join(f"y5_{i}" for i in range(n))
        else:
            state = ", ".join(f"y_{i} + h * ({weighted(_A[s], i)})" for i in range(n))
        lines += ["    try:",
                  f"        k{s + 1} = rhs({at}, [{state}])",
                  "    except _RHS_FAILURES as exc:",
                  f"        raise RhsEvaluationFailure({at}, str(exc), {s}) from exc",
                  f"    {unpack(f'k{s + 1}')}"]
    ratios = [f"abs(h * ({weighted(_E, i)})) / (tol + tol * abs(y5_{i}))" for i in range(n)]
    # max(r_0, r_1, ...) keeps the first of equal or NaN ratios, as max(list) does
    err = f"max({', '.join(ratios)})" if n > 1 else ratios[0]
    finite = [f"y5_{i}" for i in range(n)] + [f"k{s + 1}_{i}" for s in skipped for i in range(n)]
    lines += [f"    y5 = [{', '.join(f'y5_{i}' for i in range(n))}]",
              f"    err = {err}",
              "    k = [k1, k2, k3, k4, k5, k6, k7]",
              f"    if not ({''.join(f'isfinite({v}) and ' for v in finite)}isfinite(err)):",
              "        return _retreat(h), y5, k",
              "    if err == 0.0:",
              f"        factor = {_GROW_LIMIT!r}",
              "    else:",
              # min(GROW, max(SHRINK, SAFETY * err ** ORDER)) without the calls
              f"        factor = {_SAFETY!r} * err ** {_ORDER_EXP!r}",
              f"        if factor <= {_SHRINK_LIMIT!r}:",
              f"            factor = {_SHRINK_LIMIT!r}",
              f"        elif factor >= {_GROW_LIMIT!r}:",
              f"            factor = {_GROW_LIMIT!r}",
              # a StepResult built without the Python frame of its own __new__
              "    return _tuple_new(StepResult, (err <= 1.0, err, abs(h) * factor)), y5, k"]
    return "\n".join(lines) + "\n"


class _Steps(dict):
    """The trial step for each state size n, compiled on first use."""

    def __missing__(self, n: int):
        scope = {"isfinite": math.isfinite, "StepResult": StepResult, "_tuple_new": tuple.__new__,
                 "_retreat": _retreat, "_RHS_FAILURES": _RHS_FAILURES,
                 "RhsEvaluationFailure": RhsEvaluationFailure}
        exec(compile(_step_source(n), f"<ode.step n={n}>", "exec"), scope)
        self[n] = scope["step"]
        return self[n]


_STEPS = _Steps()


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
    component of |y5 - y4| / (tol + tol |y5|).  A step whose y5, error or
    any stage is not finite is rejected with next step 0.2 |h|.  The next
    step is not yet clamped to the span's step bounds; the driver does that.
    The work is done by the straight-line step generated for len(y)
    components.
    """
    return _STEPS[len(y)](rhs, y, t, h, tol, k1)


@dataclass
class RawSolution:
    """Accepted steps plus bookkeeping.

    `ts` holds the initial and every accepted param, `ys` the (N, n) states
    there; `qs[i]` is the (n, 4) dense-output matrix K^T @ _P of the step
    from ts[i] to ts[i+1].  `termination` is the stop predicate's value
    where it halted the run, otherwise SPAN_COMPLETE, STEP_UNDERFLOW or
    MAX_STEPS.  `nfev` counts rhs evaluations; `h_min`/`h_max` are the
    smallest and largest |ts[i+1] - ts[i]| (NaN if no step was accepted).
    """

    ts: List[float]
    ys: np.ndarray
    qs: np.ndarray
    accepted: int
    rejected: int
    termination: object
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
    is clamped to [MIN_STEP, MAX_STEP] of it, and a run ends with MAX_STEPS
    after MAX_STEPS trial steps.

    The stop predicate is evaluated at the initial state and after every
    accepted step; a non-None value halts the run and becomes its
    termination.  A failed right-hand-side evaluation inside a trial step
    rejects it like a non-finite one, shrinking the step until it either
    clears the bad region or underflows.
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
    append_t, extend_y, extend_k = ts.append, ys.extend, ks.extend
    accepted = rejected = 0
    nfev = 1
    termination = None if stop is None else stop(t, y)
    max_steps = MAX_STEPS
    underflow = min_step * (1.0 + 1e-12)
    end_scale = abs(t1)
    h = FIRST_STEP * length
    while termination is None and (t - t1) * direction < 0.0:
        if accepted + rejected >= max_steps:
            termination = TerminationReason.MAX_STEPS
            break
        remaining = abs(t1 - t)
        scale = abs(t)
        if remaining <= 1e-15 * (end_scale if end_scale > scale else scale):
            break  # span resolved to machine precision
        h_try = remaining if remaining < h else h
        try:
            (ok, _, next_step), y_new, (k1, k2, k3, k4, k5, k6, k7) = step(
                rhs, y, t, direction * h_try, tol, f)
            nfev += 6
        except RhsEvaluationFailure as exc:
            nfev += exc.stage
            ok, _, next_step = _retreat(h_try)
        # min(max_step, max(min_step, next_step)), by comparisons, which
        # skip two builtin calls per trial step
        h = next_step
        if h <= min_step:
            h = min_step
        elif h >= max_step:
            h = max_step
        if not ok:
            rejected += 1
            if h_try <= underflow:
                termination = TerminationReason.STEP_UNDERFLOW
                break
            continue
        t = t + direction * h_try
        y, f = y_new, k7
        append_t(t)
        extend_y(y)
        extend_k(k1)
        extend_k(k2)
        extend_k(k3)
        extend_k(k4)
        extend_k(k5)
        extend_k(k6)
        extend_k(k7)
        accepted += 1
        if stop is not None:
            termination = stop(t, y)
    if termination is None:
        termination = TerminationReason.SPAN_COMPLETE
    # (M, 7, n) stage derivatives -> (M, n, 4) dense-output matrices
    stages = np.array(ks, dtype=float).reshape(accepted, 7, n)
    hs = np.abs(np.diff(ts)) if accepted else np.array([math.nan])
    return RawSolution(
        ts=ts, ys=np.array(ys, dtype=float).reshape(len(ts), n), qs=stages.transpose(0, 2, 1) @ _P,
        accepted=accepted, rejected=rejected, termination=termination, nfev=nfev,
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
