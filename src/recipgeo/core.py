"""Reciprocal cost evaluation, coordinate charts, weights, and composition law.

The cost of a positive point x under exponent weights alpha is

    J(x) = (R + 1/R)/2 - 1,   R(x) = prod_i x_i**alpha_i,

evaluated through S = log R = sum_i alpha_i log x_i so that extreme ratio
products never have to be formed directly.  In logarithmic coordinates
t = log x the same cost reads J(t) = cosh(alpha . t) - 1.
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

# exp/cosh overflow past this; S is kept in log space so this is the only wall
S_MAX = 709.0


def entrywise(fn: Callable[[float], float]) -> Callable[[np.ndarray], np.ndarray]:
    """fn at each entry of a float array.  `math` raises on overflow and
    domain errors, so the floating-point flags it leaves are not warned about."""
    ufunc = np.frompyfunc(fn, 1, 1)
    def apply(v: np.ndarray) -> np.ndarray:
        with np.errstate(all="ignore"):
            return ufunc(v).astype(float)
    return apply


# exp, log, sinh and cosh of `math`, entrywise: numpy's own round the last bit
# differently on about a fifth of arguments, which 1/Delta amplifies near the
# singular set.  Closed forms evaluate rows with these, so that each row has
# the bits of its one-point call.
ROW_MATH = SimpleNamespace(**{f: entrywise(getattr(math, f)) for f in ("exp", "log", "sinh", "cosh")})


def math_for(v):
    """`math` for a float, ROW_MATH for an array."""
    return ROW_MATH if isinstance(v, np.ndarray) else math


class Chart(enum.Enum):
    """Coordinate charts: positive ratio coordinates, their logs, and the
    rotated (q, r) pair for n = 2."""

    RATIO = "ratio"
    LOG = "log"
    QR = "qr"


@dataclass(frozen=True)
class WeightVector:
    """Exponent vector alpha of the ratio product R(x) = prod x_i**alpha_i."""

    alpha: np.ndarray

    def __post_init__(self):
        arr = np.atleast_1d(np.asarray(self.alpha, dtype=float))
        if arr.ndim != 1 or arr.size < 1:
            raise DimensionMismatch("alpha must be a nonempty vector")
        if not np.all(np.isfinite(arr)):
            raise ZeroWeightVector("alpha must be finite")
        if not np.any(arr != 0.0):
            raise ZeroWeightVector("alpha must have at least one nonzero component")
        object.__setattr__(self, "alpha", arr)

    @classmethod
    def canonical(cls, n: int) -> "WeightVector":
        """Equal weights 1/n: the permutation-symmetric choice that reduces
        to the 1-dimensional cost on the diagonal."""
        if n < 1:
            raise DimensionMismatch("n must be >= 1")
        return cls(np.full(n, 1.0 / n))

    @property
    def n(self) -> int:
        return self.alpha.size

    @property
    def total(self) -> float:
        """Sum of the weights; controls the singular locus tanh(S) = total."""
        return float(np.sum(self.alpha))

    @property
    def norm_sq(self) -> float:
        return float(np.dot(self.alpha, self.alpha))

    @property
    def a(self) -> float:
        """First weight (2D alias)."""
        return float(self.alpha[0])

    @property
    def b(self) -> float:
        """Second weight (2D alias)."""
        if self.n < 2:
            raise DimensionMismatch("b alias requires n >= 2")
        return float(self.alpha[1])

    def is_canonical(self) -> bool:
        return bool(np.all(np.abs(self.alpha - 1.0 / self.n) < 1e-15))


@dataclass(frozen=True)
class ChartPoint:
    """A point tagged with the chart its coordinates live in."""

    chart: Chart
    coords: np.ndarray

    def __post_init__(self):
        arr = np.atleast_1d(np.asarray(self.coords, dtype=float))
        if arr.ndim != 1 or arr.size < 1:
            raise DimensionMismatch("coords must be a nonempty vector")
        if self.chart is Chart.RATIO and not np.all(arr > 0.0):
            raise NonPositiveCoordinate(f"ratio coordinates must be positive, got {arr}")
        if self.chart is Chart.QR and arr.size != 2:
            raise UnsupportedChartPair("the (q, r) chart exists only for n = 2")
        object.__setattr__(self, "coords", arr)

    @property
    def n(self) -> int:
        return self.coords.size

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


def _summary_from_S(S: float, G: Optional[float]) -> ScalarSummary:
    if abs(S) > S_MAX:
        raise Overflow(f"|S| = {abs(S):g} exceeds the double-precision range of exp/cosh")
    return ScalarSummary(R=math.exp(S), S=S, J=math.cosh(S) - 1.0, G=G)


def cost_log(t: ChartPoint, w: WeightVector) -> ScalarSummary:
    """Cost in logarithmic coordinates: J = cosh(alpha . t) - 1."""
    t.require_chart(Chart.LOG)
    _check_dims(t, w)
    S = float(np.dot(w.alpha, t.coords))
    G = math.exp(float(np.mean(t.coords))) if w.is_canonical() else None
    return _summary_from_S(S, G)


def cost_ratio(x: ChartPoint, w: WeightVector) -> ScalarSummary:
    """Cost in ratio coordinates, computed through S = sum alpha_i log x_i."""
    x.require_chart(Chart.RATIO)
    _check_dims(x, w)
    logs = np.log(x.coords)
    S = float(np.dot(w.alpha, logs))
    G = math.exp(float(np.mean(logs))) if w.is_canonical() else None
    return _summary_from_S(S, G)


def cost(p: ChartPoint, w: WeightVector) -> ScalarSummary:
    """Cost in any chart (QR points are routed through the log chart)."""
    if p.chart is Chart.RATIO:
        return cost_ratio(p, w)
    if p.chart is Chart.LOG:
        return cost_log(p, w)
    return cost_log(transform(p, Chart.LOG, w), w)


def transform(p: ChartPoint, target: Chart, w: WeightVector) -> ChartPoint:
    """Convert a point between charts.

    LOG <-> RATIO is the componentwise log/exp pair.  LOG <-> QR (n = 2 only)
    is the linear rotation q = a s + b t, r = -b s + a t and its inverse.
    RATIO <-> QR composes through LOG.
    """
    _check_dims(p, w)
    if p.chart is target:
        return p
    if target is Chart.QR or p.chart is Chart.QR:
        if w.n != 2:
            raise UnsupportedChartPair("the (q, r) chart exists only for n = 2")

    if p.chart is Chart.LOG and target is Chart.RATIO:
        coords = np.exp(p.coords)
        if np.any(coords == 0.0):
            raise NonPositiveCoordinate("exp underflowed to zero on the ratio chart")
        if not np.all(np.isfinite(coords)):
            raise Overflow("exp overflowed on the ratio chart")
        return ChartPoint(Chart.RATIO, coords)

    if p.chart is Chart.RATIO and target is Chart.LOG:
        return ChartPoint(Chart.LOG, np.log(p.coords))

    if p.chart is Chart.LOG and target is Chart.QR:
        return ChartPoint(Chart.QR, log_to_qr(p.coords, w.a, w.b))

    if p.chart is Chart.QR and target is Chart.LOG:
        return ChartPoint(Chart.LOG, qr_to_log(p.coords, w.a, w.b))

    # remaining pairs go through LOG
    return transform(transform(p, Chart.LOG, w), target, w)


def log_to_qr(st: np.ndarray, a: float, b: float) -> np.ndarray:
    """The rotation q = a s + b t, r = -b s + a t of log coordinates, applied
    to the last axis of `st` (one point, or one point per row).  Being
    linear, it also maps log-chart velocities and accelerations."""
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


def sample_log_points(n: int, count: int, seed: int, low: float = -3.0, high: float = 3.0) -> np.ndarray:
    """Seeded uniform samples in log coordinates, shape (count, n).

    The default box [-3, 3]^n covers both the near-zero-cost and the large-J
    regimes reproducibly."""
    rng = np.random.default_rng(seed)
    return rng.uniform(low, high, size=(count, n))


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
