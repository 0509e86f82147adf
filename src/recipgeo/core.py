"""Reciprocal cost evaluation, coordinate charts, weights, and composition law.

The cost of a positive point x under exponent weights alpha is

    J(x) = (R + 1/R)/2 - 1,   R(x) = prod_i x_i**alpha_i,

evaluated through S = log R = sum_i alpha_i log x_i so that extreme ratio
products never have to be formed directly.  In logarithmic coordinates
t = log x the same cost reads J(t) = cosh(alpha . t) - 1.

Inputs are validated once, where a WeightVector or ChartPoint is built, on
the floats of one tolist() and with typed errors.  Both are frozen: each
keeps a read-only copy of its array and stores what that array determines
(the sum of the weights, |alpha|^2, the largest alpha_i^2, the aliases a
and b and whether the weights are canonical; the log coordinates of a
ratio or log point), so the closed forms read them without checking or
computing them again.  At one point the arithmetic runs on Python floats,
which round each operation as numpy does.  Each reduction that forms a
value stays numpy (np.dot in alpha_dot, np.sum and np.dot in the stored
sums): a Python loop adds in another order and changes the last bits.

This module owns the overflow policy of every closed form: a value either
comes back finite or Overflow is raised.  check_wall refuses a quantity past
S_MAX (check_S is the wall of S; the other modules wall 2q and 2|log x_i|
with it), and check_finite refuses what still leaves the double range
inside the walls; alpha_dot refuses a dot product whose terms would leave
the double range before numpy forms it, so no overflow is warned about.  No
other module tests finiteness to decide on Overflow, and two read S_MAX
only as the edge of a domain: geodesics.affine_trajectory ends an affine
run where a log coordinate or S reaches +-S_MAX or a ratio coordinate
e^S_MAX, and cli.cmd_locus refuses a grid that would take |log x| or 2|S|
past it.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, Optional

import numpy as np

from .errors import (
    DimensionMismatch,
    NonPositiveCoordinate,
    Overflow,
    UnsupportedChartPair,
    ZeroArgument,
    ZeroWeightVector,
)

# The one overflow wall: every closed form reads S = alpha . t (or q = S)
# through check_S, and 2q or 2|log x_i| through check_wall, which refuse a
# value past this, a little short of where exp and cosh overflow.
S_MAX = 700.0
# the box of sample_log_points in each log coordinate
SAMPLE_LOW, SAMPLE_HIGH = -3.0, 3.0


def entrywise(fn: Callable[[float], float]) -> Callable[[np.ndarray], np.ndarray]:
    """fn at each entry of a float array, as a float array of its shape: one
    call of fn on each Python float of the array, so every entry has the
    bits of the one-point call, and fn's exceptions (the OverflowError and
    ValueError of `math`) propagate unchanged.  numpy does no arithmetic on
    the way, so no floating-point flag is warned about."""
    def apply(v: np.ndarray) -> np.ndarray:
        return np.fromiter(map(fn, v.ravel().tolist()), float, v.size).reshape(v.shape)
    return apply


# exp, log, sinh, cosh and atanh of `math`, entrywise: numpy's own round the
# last bit differently on about a fifth of arguments, which 1/Delta amplifies
# near the singular set.  Closed forms evaluate rows with these, so that each
# row has the bits of its one-point call.
ROW_MATH = SimpleNamespace(**{f: entrywise(getattr(math, f))
                              for f in ("exp", "log", "sinh", "cosh", "atanh")})


def math_for(v):
    """`math` for a float, ROW_MATH for an array."""
    return ROW_MATH if isinstance(v, np.ndarray) else math


class Chart(enum.Enum):
    """Coordinate charts: positive ratio coordinates, their logs, and the
    rotated (q, r) pair for n = 2."""

    RATIO = "ratio"
    LOG = "log"
    QR = "qr"


# for ChartPoint, which every point passes: Chart.X costs about 0.2 us on Python 3.11
_RATIO, _QR = Chart.RATIO, Chart.QR


@dataclass(frozen=True)
class WeightVector:
    """Exponent vector alpha of the ratio product R(x) = prod x_i**alpha_i.

    The constructor checks alpha on the floats of one tolist() and keeps a
    read-only copy of it as `alpha`, so the caller's array stays writeable
    and no later write to it reaches the weights.  It stores what alpha
    determines: n; `total`, the sum of the weights, which controls the
    singular locus tanh(S) = total; `norm_sq` = |alpha|^2; `peak_sq`, the
    largest alpha_i^2, so that c * peak_sq is the largest entry of
    c alpha alpha^T; the 2D aliases `a` and `b`; and whether the weights are
    the canonical 1/n.  The two sums stay numpy reductions (np.sum, np.dot):
    a Python loop adds in another order and changes their last bits."""

    alpha: np.ndarray

    def __post_init__(self):
        arr = np.array(self.alpha, dtype=float, ndmin=1)
        if arr.ndim != 1 or arr.size < 1:
            raise DimensionMismatch("alpha must be a nonempty vector")
        vals = arr.tolist()
        if not all(map(math.isfinite, vals)):
            raise ZeroWeightVector("alpha must be finite")
        if not any(vals):
            raise ZeroWeightVector("alpha must have at least one nonzero component")
        norm = math.hypot(*vals)
        if not math.isfinite(norm * norm):  # a Python float overflows to inf, unwarned
            raise Overflow("|alpha|^2 overflows the double range")
        arr.flags.writeable = False
        n = len(vals)
        peak = max(map(abs, vals))
        # a frozen dataclass refuses setattr; the stored values go to its __dict__
        self.__dict__.update(alpha=arr, n=n, total=float(np.sum(arr)), norm_sq=float(np.dot(arr, arr)),
                             peak_sq=peak * peak, a=vals[0], _b=vals[1] if n > 1 else None,
                             _canonical=all(abs(v - 1.0 / n) < 1e-15 for v in vals))

    @classmethod
    def canonical(cls, n: int) -> "WeightVector":
        """Equal weights 1/n: the permutation-symmetric choice that reduces
        to the 1-dimensional cost on the diagonal."""
        if n < 1:
            raise DimensionMismatch("n must be >= 1")
        return cls(np.full(n, 1.0 / n))

    @property
    def b(self) -> float:
        """Second weight (2D alias)."""
        if self._b is None:
            raise DimensionMismatch("b alias requires n >= 2")
        return self._b

    def is_canonical(self) -> bool:
        """Whether every weight lies within 1e-15 of 1/n."""
        return self._canonical


@dataclass(frozen=True)
class ChartPoint:
    """A point tagged with the chart its coordinates live in.

    The constructor checks the coordinates on the floats of one tolist() and
    keeps a read-only copy of them as `coords`.  It stores n and, in the
    ratio and log charts, the log coordinates that `log_coords` returns
    (np.log of ratio coordinates, taken once); those of a QR point depend
    on the weights and are rotated back at each read."""

    chart: Chart
    coords: np.ndarray

    def __post_init__(self):
        arr = np.array(self.coords, dtype=float, ndmin=1)
        if arr.ndim != 1 or arr.size < 1:
            raise DimensionMismatch("coords must be a nonempty vector")
        arr.flags.writeable = False
        logs = arr
        if self.chart is _RATIO:
            if not all(v > 0.0 for v in arr.tolist()):
                raise NonPositiveCoordinate(f"ratio coordinates must be positive, got {arr}")
            logs = np.log(arr)
            logs.flags.writeable = False
        elif self.chart is _QR:
            if arr.size != 2:
                raise UnsupportedChartPair("the (q, r) chart exists only for n = 2")
            logs = None
        # a frozen dataclass refuses setattr; the stored values go to its __dict__
        self.__dict__.update(coords=arr, n=arr.size, _logs=logs)

    def require_chart(self, chart: Chart) -> None:
        if self.chart is not chart:
            raise UnsupportedChartPair(f"expected {chart}, got {self.chart}")


@dataclass(frozen=True)
class ScalarSummary:
    """Scalar functionals of a point: ratio product R, its log S, the cost J,
    and the geometric mean G (canonical weights only)."""

    R: float
    S: float
    J: float
    G: Optional[float] = None


def _check_dims(p: ChartPoint, w: WeightVector) -> None:
    if p.n != w.n:
        raise DimensionMismatch(f"point has n={p.n}, weights have n={w.n}")


def check_wall(value, name: str, formed: str):
    """value itself, once |value| <= S_MAX holds at a float or at every entry
    of an array.  Otherwise raises Overflow, naming the quantity (`name`:
    |S|, 2|q| or 2|log x_i|), its first entry that breaks the wall (NaN
    included) and what overflows past it (`formed`)."""
    first = value
    if isinstance(value, np.ndarray):
        over = value[~(np.abs(value) <= S_MAX)]
        first = over[0] if over.size else 0.0
    if not abs(first) <= S_MAX:
        raise Overflow(f"{name} = {abs(first):g} exceeds S_MAX = {S_MAX:g}, the overflow wall of {formed}")
    return value


def check_S(S):
    """S itself, once |S| <= S_MAX holds at a float S or at every entry of an
    array S: the wall of exp and cosh."""
    return check_wall(S, "|S|", "exp and cosh")


def check_finite(values, what: str, *where) -> None:
    """The double-range check: raises Overflow unless every float of
    `values` is finite.  Inside the walls a closed form can still leave the
    double range through products and quotients of its terms; the caller
    passes the values, or one value that bounds them all, and names them in
    `what`, whose format fields `where` fills once a value is refused."""
    if not all(map(math.isfinite, values)):
        raise Overflow(f"{what.format(*where)} leaves the double range")


# Every WeightVector has |alpha| < 1.35e154 (|alpha|^2 is finite), so while
# every |y_i| <= _DOT_SAFE no product or partial sum of alpha . y leaves the
# double range: by Cauchy-Schwarz each is below 1.35e302 sqrt(n).
_DOT_SAFE = 1e148


def _check_dot_range(rows, alpha: np.ndarray) -> None:
    """Overflow where some row's sum of |alpha_i y_i| leaves the double
    range, decided on Python floats, which overflow to inf unwarned."""
    weights = alpha.tolist()
    for row in rows:
        bound = sum(abs(a * v) for a, v in zip(weights, row))
        check_finite([bound], "alpha . t at |t_i| up to {:g}", max(map(abs, row)))


def alpha_dot(y: np.ndarray, alpha: np.ndarray):
    """S = alpha . y within S_MAX: a float at one point y (n,), an (N,) array
    at rows y (N, n), for the alpha of a WeightVector.  The rows take one dot
    product each, so every S, and every value computed from it with
    math_for(S), has the bits of the one-point call.  A dot product that
    would leave the double range raises Overflow before numpy forms it."""
    if y.ndim == 2:
        if not np.abs(y).max(initial=0.0) <= _DOT_SAFE:
            _check_dot_range(y.tolist(), alpha)
        return check_S((y[:, None, :] @ alpha)[:, 0])
    ys = y.tolist()
    if not (-_DOT_SAFE <= min(ys) and max(ys) <= _DOT_SAFE):
        _check_dot_range([ys], alpha)
    return check_S(float(np.dot(alpha, y)))


def log_coords(p: ChartPoint, w: WeightVector) -> np.ndarray:
    """The log coordinates t of a point in any chart, read-only: those the
    point stored, or a QR point's rotated back."""
    _check_dims(p, w)
    if p._logs is not None:
        return p._logs
    return qr_to_log(p.coords, w.a, w.b)


def S_at(p: ChartPoint, w: WeightVector) -> float:
    """S = alpha . t = log R at a point in any chart, within S_MAX.  The log
    of a positive double lies within 745 of 0, so the stored logs of a ratio
    point skip alpha_dot's range check."""
    t = log_coords(p, w)
    if p.chart is _RATIO:
        return check_S(float(np.dot(w.alpha, t)))
    return alpha_dot(t, w.alpha)


def cost_from_S(S):
    """The cost J = cosh S - 1 = 2 sinh^2(S/2) at a float S (with `math`), or
    at each entry of an array S with the bits of its float call (with
    ROW_MATH).  The sinh form keeps full relative accuracy near S = 0, where
    cosh S - 1 cancels."""
    h = math_for(S).sinh(0.5 * check_S(S))
    return 2.0 * (h * h)


def cost_log(t: ChartPoint, w: WeightVector) -> ScalarSummary:
    """Cost in logarithmic coordinates: J = cosh(alpha . t) - 1."""
    t.require_chart(Chart.LOG)
    return cost(t, w)


def cost_ratio(x: ChartPoint, w: WeightVector) -> ScalarSummary:
    """Cost in ratio coordinates, computed through S = sum alpha_i log x_i."""
    x.require_chart(Chart.RATIO)
    return cost(x, w)


def cost_ratio_rows(x: np.ndarray, w: WeightVector) -> np.ndarray:
    """`cost_ratio(ChartPoint(Chart.RATIO, row), w).J` at each row of an
    (N, n) array of ratio coordinates, with the same bits."""
    if x.ndim != 2 or x.shape[1] != w.n:
        raise DimensionMismatch(f"rows have n={x.shape[-1]}, weights have n={w.n}")
    if not np.all(x > 0.0):
        raise NonPositiveCoordinate("ratio coordinates must be positive")
    return cost_from_S(alpha_dot(np.log(x), w.alpha))


def cost(p: ChartPoint, w: WeightVector) -> ScalarSummary:
    """Cost in any chart, from S = alpha . t at the log coordinates t of the
    point (QR points are rotated back to them)."""
    t = log_coords(p, w)
    S = S_at(p, w)
    G = math.exp(float(np.mean(t))) if w.is_canonical() else None
    return ScalarSummary(R=math.exp(S), S=S, J=cost_from_S(S), G=G)


def transform(p: ChartPoint, target: Chart, w: WeightVector) -> ChartPoint:
    """Convert a point between charts.

    LOG <-> RATIO is the componentwise log/exp pair.  LOG <-> QR (n = 2 only)
    is the linear rotation q = a s + b t, r = -b s + a t and its inverse.
    RATIO <-> QR composes through LOG.
    """
    _check_dims(p, w)
    if p.chart is target:
        return p
    if target is Chart.QR and w.n != 2:  # a QR point has n = 2 already
        raise UnsupportedChartPair("the (q, r) chart exists only for n = 2")

    if p.chart is Chart.LOG and target is Chart.RATIO:
        with np.errstate(over="ignore"):  # an infinite entry is refused below
            coords = np.exp(p.coords)
        if np.any(coords == 0.0):
            raise NonPositiveCoordinate("exp underflowed to zero on the ratio chart")
        if not np.all(np.isfinite(coords)):
            raise Overflow("exp overflowed on the ratio chart")
        return ChartPoint(Chart.RATIO, coords)

    if target is Chart.LOG:
        return ChartPoint(Chart.LOG, log_coords(p, w))

    if p.chart is Chart.LOG and target is Chart.QR:
        return ChartPoint(Chart.QR, log_to_qr(p.coords, w.a, w.b))

    # remaining pairs go through LOG
    return transform(transform(p, Chart.LOG, w), target, w)


def log_to_qr(st: np.ndarray, a: float, b: float) -> np.ndarray:
    """The rotation q = a s + b t, r = -b s + a t of log coordinates, applied
    to the last axis of `st` (one point, or one point per row).  Being
    linear, it also maps log-chart velocities and accelerations."""
    if st.ndim == 1:  # one point, on floats
        s, t = st.tolist()
        return np.array([a * s + b * t, -b * s + a * t])
    s, t = st[..., 0], st[..., 1]
    return np.stack([a * s + b * t, -b * s + a * t], axis=-1)


def qr_to_log(qr: np.ndarray, a: float, b: float) -> np.ndarray:
    """Inverse of `log_to_qr`, on the last axis of `qr`."""
    q, r = qr[..., 0], qr[..., 1]
    n2 = a * a + b * b
    return np.stack([(a * q - b * r) / n2, (b * q + a * r) / n2], axis=-1)


def composition_residual(F: Callable[[float], float], x: float, y: float) -> float:
    """Residual of the multiplicative composition law

        F(xy) + F(x/y) - 2 F(x) F(y) - 2 F(x) - 2 F(y),

    which vanishes identically for the reciprocal cost."""
    if x <= 0.0 or y <= 0.0:
        raise NonPositiveCoordinate("composition law is defined on positive reals")
    return F(x * y) + F(x / y) - 2.0 * F(x) * F(y) - 2.0 * F(x) - 2.0 * F(y)


def log_curvature(F: Callable[[float], float], t: float) -> float:
    """The normalized log-curvature 2 F(e^t) / t^2; tends to 1 for the
    reciprocal cost as t -> 0."""
    if t == 0.0:
        raise ZeroArgument("log curvature needs t != 0")
    return 2.0 * F(math.exp(t)) / (t * t)


def reciprocal_cost_1d(x: float) -> float:
    """The one-dimensional cost (x + 1/x)/2 - 1."""
    if x <= 0.0:
        raise NonPositiveCoordinate("cost is defined for x > 0")
    return 0.5 * (x + 1.0 / x) - 1.0


def sample_log_points(n: int, count: int, seed: int) -> np.ndarray:
    """Seeded uniform samples in log coordinates, shape (count, n), in the
    box [SAMPLE_LOW, SAMPLE_HIGH]^n, which covers both the near-zero-cost and
    the large-J regimes reproducibly."""
    rng = np.random.default_rng(seed)
    return rng.uniform(SAMPLE_LOW, SAMPLE_HIGH, size=(count, n))


def permutation_symmetry_check(w: WeightVector, samples: int = 100, seed: int = 0) -> bool:
    """Whether the cost is invariant under every coordinate transposition at
    seeded random points (true for equal weights; for n = 2 also when
    alpha_1 = -alpha_2)."""
    if w.n < 2:
        raise DimensionMismatch("permutation symmetry needs n >= 2")
    pts = sample_log_points(w.n, samples, seed)
    for row in pts:
        x = ChartPoint(Chart.RATIO, np.exp(row))
        base = cost_ratio(x, w).J
        for i in range(w.n):
            for j in range(i + 1, w.n):
                swapped = x.coords.copy()
                swapped[i], swapped[j] = swapped[j], swapped[i]
                other = cost_ratio(ChartPoint(Chart.RATIO, swapped), w).J
                if abs(other - base) > 1e-12 * max(1.0, abs(base)):
                    return False
    return True


def harmonic_feature_map(r: float, s: float) -> np.ndarray:
    """Harmonic embedding of the plane into R^8: paired cosine/sine modes of
    r, s, r+s, and r-s.  Feeding the image to the log-chart cost with weights
    a/sqrt(8) gives a cost depending on a single scalar combination."""
    return np.array([
        math.cos(r), math.sin(r),
        math.cos(s), math.sin(s),
        math.cos(r + s), math.sin(r + s),
        math.cos(r - s), math.sin(r - s),
    ])
