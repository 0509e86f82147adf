"""Levi-Civita connection data of the 2D ratio-chart Hessian metric.

Closed-form Christoffel symbols in both the (x, y) and (s, t) charts, the
Ricci scalar in the Z = x^{2a} y^{2b} and q = a s + b t variables, the flat
affine connections of both structures expressed in either chart, the
projective-equivalence obstruction, and finite-difference oracles that keep
every closed form honest.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import S_MAX, Chart, ChartPoint, check_S, math_for
from .errors import (
    DimensionMismatch,
    NonPositiveCoordinate,
    Overflow,
    SingularLocus,
    SingularMetric,
    ZeroExponent,
)
from .hessian import SymMatrix

# Christoffel components scale like 1/Delta; below this guard double
# precision output is garbage.
EPS_SINGULAR = 1e-9

# first-difference step for the metric/Christoffel field oracles
ORACLE_STEP = 1e-5


class AffineStructure(enum.Enum):
    """Which coordinates are declared flat: logs (t) or ratios (x)."""

    LOG_FLAT = "log"
    RATIO_FLAT = "ratio"


@dataclass(frozen=True)
class ChristoffelTensor:
    """Connection coefficients Gamma^k_ij as one dense (n, n, n) array indexed
    [k, i, j], kept as given: the constructor checks its shape, and every
    function here builds it with Gamma^k_ij = Gamma^k_ji bit for bit."""

    array: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.array, dtype=float)
        if g.ndim != 3 or not g.shape[0] == g.shape[1] == g.shape[2]:
            raise DimensionMismatch("gamma must be (n, n, n)")
        object.__setattr__(self, "array", g)

    @classmethod
    def from_2d(cls, xxx, xxy, xyy, yxx, yxy, yyy) -> "ChristoffelTensor":
        return cls(np.array([xxx, xxy, xxy, xyy, yxx, yxy, yxy, yyy], dtype=float).reshape(2, 2, 2))

    def as_array(self) -> np.ndarray:
        return self.array.copy()


def z_factors(a: float, b: float, Z):
    """The Z-polynomials of the Levi-Civita data, for a float Z or an array:
    Z - 1 (zero on R = 1), (a+b-1) Z + (a+b+1) (zero on the secondary
    locus) and (a+b-2) Z + (a+b+2) (the zero set of the Ricci scalar).
    Delta is the product of the first two."""
    return Z - 1.0, (a + b - 1.0) * Z + (a + b + 1.0), (a + b - 2.0) * Z + a + b + 2.0


def z_xy(a: float, b: float, x, y, xp=None):
    """The squared ratio product Z = x^{2a} y^{2b} = R^2, at a point or, for
    arrays x and y, at each entry with the bits of its one-point call.
    `xp`: the module for exp and log, by default core.math_for(x)."""
    xp = xp or math_for(x)
    if xp is math:
        if x <= 0.0 or y <= 0.0:
            raise NonPositiveCoordinate("ratio coordinates must be positive")
    elif np.any(x <= 0.0) or np.any(y <= 0.0):
        raise NonPositiveCoordinate("ratio coordinates must be positive")
    return xp.exp(2.0 * (a * xp.log(x) + b * xp.log(y)))


def _check_2q(q: float, formed: str) -> float:
    """q itself, once 2|q| <= S_MAX, the wall of the closed forms that form
    e^{2q} or sinh 2q; otherwise (NaN included) raises Overflow."""
    if not 2.0 * abs(q) <= S_MAX:
        raise Overflow(f"2|q| = {2.0 * abs(q):g} exceeds S_MAX = {S_MAX:g}, the overflow wall of {formed}")
    return q


def delta(a: float, b: float, Z):
    """The Levi-Civita denominator Delta = (Z - 1)((a+b-1) Z + (a+b+1))."""
    zero, sing, _ = z_factors(a, b, Z)
    return zero * sing


def lc_christoffel_xy(a: float, b: float, x: float, y: float) -> ChristoffelTensor:
    """Closed-form Levi-Civita Christoffel symbols in the (x, y) chart, where
    q = a log x + b log y keeps 2|q| within S_MAX and the components'
    x^2 and y^2 keep 2|log x| and 2|log y| within it too.  The components
    form Z^2 = e^{4q} and ratios such as y / x^2, so a point inside both
    walls whose components pass the double range also raises Overflow."""
    if a == 0.0 or b == 0.0:
        raise ZeroExponent("closed forms require a, b != 0")
    if x <= 0.0 or y <= 0.0:
        raise NonPositiveCoordinate("ratio coordinates must be positive")
    log_x, log_y = math.log(x), math.log(y)
    q = _check_2q(a * log_x + b * log_y, "Z = e^(2q)")
    reach = 2.0 * max(abs(log_x), abs(log_y))
    if not reach <= S_MAX:
        raise Overflow(f"2|log x| or 2|log y| = {reach:g} exceeds S_MAX = {S_MAX:g}, the overflow wall of x^2 and y^2")
    Z = math.exp(2.0 * q)  # z_xy(a, b, x, y), bit for bit
    Delta = delta(a, b, Z)
    if abs(Delta) < EPS_SINGULAR:
        raise SingularMetric(f"|Delta| = {abs(Delta):.3e} below guard {EPS_SINGULAR:g}")
    Z2 = Z * Z
    xxx = (
        Z2 * a * a + 2.0 * Z2 * a * b - 3.0 * Z2 * a - 2.0 * Z2 * b + 2.0 * Z2
        - 2.0 * Z * a * a + 4.0 * Z * a * b - 4.0 * Z
        + a * a + 2.0 * a * b + 3.0 * a + 2.0 * b + 2.0
    ) / (2.0 * x * Delta)
    xxy = -b * (-Z2 * b + Z2 + 4.0 * Z * a - 2.0 * Z * b - b - 1.0) / (2.0 * y * Delta)
    xyy = -b * x * (Z2 * b - Z2 + 6.0 * Z * b + b + 1.0) / (2.0 * y * y * Delta)
    yxx = -a * y * (Z2 * a - Z2 + 6.0 * Z * a + a + 1.0) / (2.0 * x * x * Delta)
    yxy = a * (Z2 * a - Z2 + 2.0 * Z * a - 4.0 * Z * b + a + 1.0) / (2.0 * x * Delta)
    yyy = (
        2.0 * Z2 * a * b - 2.0 * Z2 * a + Z2 * b * b - 3.0 * Z2 * b + 2.0 * Z2
        + 4.0 * Z * a * b - 2.0 * Z * b * b - 4.0 * Z
        + 2.0 * a * b + 2.0 * a + b * b + 3.0 * b + 2.0
    ) / (2.0 * y * Delta)
    components = (xxx, xxy, xyy, yxx, yxy, yyy)
    if not all(map(math.isfinite, components)):
        raise Overflow(f"the Christoffel symbols at q = {q:g} pass the double range")
    return ChristoffelTensor.from_2d(*components)


def lc_christoffel_st(a: float, b: float, s: float, t: float) -> ChristoffelTensor:
    """The same connection in (s, t) = (log x, log y); every component
    depends on the point only through q = a s + b t, with 2|q| within S_MAX."""
    q = _check_2q(check_S(a * s + b * t), "sinh 2q")
    sh = math.sinh(q)
    if abs(sh) < EPS_SINGULAR:
        raise SingularMetric("q = 0 (zero-cost hypersurface)")
    cth = math.cosh(q) / sh
    den = (a + b) * cth - 1.0
    if abs(den) < EPS_SINGULAR:
        raise SingularMetric("(a+b) coth q = 1 (secondary singular locus)")
    csch2 = 1.0 / (sh * sh)
    sh2q = math.sinh(2.0 * q)
    ch2q = math.cosh(2.0 * q)
    sss = a * (2.0 * b * cth * cth - cth + a) / (2.0 * den)
    sst = b * ((b - a) * cth * cth - cth + a) / (2.0 * den)
    stt = -b * csch2 * (3.0 * b - sh2q + b * ch2q) / (4.0 * den)
    tss = -a * csch2 * (3.0 * a - sh2q + a * ch2q) / (4.0 * den)
    tst = a * ((a - b) * cth * cth - cth + b) / (2.0 * den)
    ttt = b * (2.0 * a * cth * cth - cth + b) / (2.0 * den)
    return ChristoffelTensor.from_2d(sss, sst, stt, tss, tst, ttt)


def _invert_2x2(g: np.ndarray) -> np.ndarray:
    det = g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0]
    scale = float(np.max(np.abs(g)))
    if abs(det) < 1e-12 * max(scale * scale, 1e-300):
        raise SingularMetric(f"metric determinant {det:.3e} below 1e-12 of scale")
    return np.array([[g[1, 1], -g[0, 1]], [-g[1, 0], g[0, 0]]]) / det


def _metric_array(metric_fn: Callable[[np.ndarray], object], p: np.ndarray) -> np.ndarray:
    m = metric_fn(np.asarray(p, dtype=float))
    if isinstance(m, SymMatrix):
        return m.array
    return np.asarray(m, dtype=float)


def christoffel_from_metric(metric_fn: Callable[[np.ndarray], object], p: np.ndarray) -> ChristoffelTensor:
    """Finite-difference oracle Gamma^k_ij = g^{kl}(d_i g_jl + d_j g_il - d_l g_ij)/2
    for a 2D metric field, using central first differences and the explicit
    2x2 adjugate inverse."""
    p = np.asarray(p, dtype=float)
    g = _metric_array(metric_fn, p)
    ginv = _invert_2x2(g)
    dg = np.empty((2, 2, 2))  # dg[l, i, j] = d_l g_ij
    for l in range(2):
        dp = np.zeros(2)
        dp[l] = ORACLE_STEP
        dg[l] = (_metric_array(metric_fn, p + dp) - _metric_array(metric_fn, p - dp)) / (2.0 * ORACLE_STEP)
    gamma = np.empty((2, 2, 2))
    for k in range(2):
        for i in range(2):
            for j in range(2):
                acc = 0.0
                for l in range(2):
                    acc += ginv[k, l] * (dg[i, j, l] + dg[j, i, l] - dg[l, i, j])
                gamma[k, i, j] = 0.5 * acc
    return ChristoffelTensor(gamma)


def ricci_xy(a: float, b: float, Z):
    """Ricci scalar of the ratio-chart Hessian metric as a function of
    Z = x^{2a} y^{2b}; vanishes identically when a + b = 0.

    A float Z must be positive and off both degeneracy loci, and a value
    past the double range raises Overflow.  An array of Z gives NaN within
    EPS_SINGULAR of a locus, where the float call raises SingularLocus,
    except that a + b = 0 gives exact zeros."""
    zero, sing, curv = z_factors(a, b, Z)
    ricci = lambda sqrt: 4.0 * (a + b) * Z * sqrt(Z) * curv / (zero * zero * sing * sing)
    if not isinstance(Z, np.ndarray):
        if Z <= 0.0:
            raise NonPositiveCoordinate("Z must be positive")
        if abs(zero) < EPS_SINGULAR or abs(sing) < EPS_SINGULAR:
            raise SingularLocus("Ricci scalar diverges on the degeneracy loci")
        value = ricci(math.sqrt)
        if not math.isfinite(value):
            raise Overflow(f"the Ricci scalar at Z = {Z:g} passes the double range")
        return value
    if a + b == 0.0:
        return np.zeros_like(Z)
    near = (np.abs(zero) < EPS_SINGULAR) | (np.abs(sing) < EPS_SINGULAR)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return np.where(near, np.nan, ricci(np.sqrt))


def ricci_q(a: float, b: float, q: float) -> float:
    """Ricci scalar in the q variable, |q| <= S_MAX; equals ricci_xy at Z = e^{2q}."""
    sh = math.sinh(check_S(q))
    if abs(sh) < EPS_SINGULAR:
        raise SingularLocus("q = 0 lies on the zero-cost hypersurface")
    cth = math.cosh(q) / sh
    den = (a + b) * cth - 1.0
    if abs(den) < EPS_SINGULAR:
        raise SingularLocus("secondary singular locus (a+b) coth q = 1")
    return (a + b) * ((a + b) * cth - 2.0) / (sh * sh * sh) / (2.0 * den * den)


def affine_connection(structure: AffineStructure, chart: Chart, p: ChartPoint) -> ChristoffelTensor:
    """Coefficients of a flat affine structure expressed in a chart.

    Each structure is trivial in its own chart; transported to the other
    chart, the log-flat structure acquires Gamma^i_ii = -1/x_i and the
    ratio-flat structure acquires Gamma^i_ii = +1.
    """
    if chart is Chart.QR:
        raise DimensionMismatch("affine connections are expressed in LOG or RATIO charts")
    p.require_chart(chart)
    n = p.n
    gamma = np.zeros((n, n, n))
    diag = np.arange(n)
    if structure is AffineStructure.LOG_FLAT and chart is Chart.RATIO:
        gamma[diag, diag, diag] = -1.0 / p.coords
    elif structure is AffineStructure.RATIO_FLAT and chart is Chart.LOG:
        gamma[diag, diag, diag] = 1.0
    return ChristoffelTensor(gamma)


def projective_obstruction(x: ChartPoint) -> float:
    """Size of the obstruction to projective equivalence of the two affine
    structures at x: the mixed-component condition forces psi_l = 0 while the
    diagonal one forces psi_l = -1/(2 x_l), so any positive return certifies
    inequivalence.  Vacuous (0) for n = 1."""
    x.require_chart(Chart.RATIO)
    if x.n < 2:
        return 0.0
    return float(np.max(0.5 / x.coords))


def curvature_from_christoffel(
    gamma_fn: Callable[[np.ndarray], ChristoffelTensor],
    p: np.ndarray,
    metric_fn: Optional[Callable[[np.ndarray], object]] = None,
) -> float:
    """Numerical Ricci scalar of a 2D connection field.

    R^k_{i l j} = d_l Gamma^k_ij - d_j Gamma^k_il
                  + Gamma^k_lm Gamma^m_ij - Gamma^k_jm Gamma^m_il,
    contracted to the Ricci tensor on (k, l) and traced with the inverse
    metric (identity when metric_fn is None, appropriate for flatness checks).
    """
    p = np.asarray(p, dtype=float)
    g0 = gamma_fn(p).array
    dgamma = np.empty((2, 2, 2, 2))  # dgamma[l, k, i, j] = d_l Gamma^k_ij
    for l in range(2):
        dp = np.zeros(2)
        dp[l] = ORACLE_STEP
        dgamma[l] = (gamma_fn(p + dp).array - gamma_fn(p - dp).array) / (2.0 * ORACLE_STEP)
    ricci = np.zeros((2, 2))
    for i in range(2):
        for j in range(2):
            acc = 0.0
            for k in range(2):
                acc += dgamma[k, k, i, j] - dgamma[j, k, i, k]
                for m in range(2):
                    acc += g0[k, k, m] * g0[m, i, j] - g0[k, j, m] * g0[m, i, k]
            ricci[i, j] = acc
    if metric_fn is None:
        ginv = np.eye(2)
    else:
        ginv = _invert_2x2(_metric_array(metric_fn, p))
    return float(np.sum(ginv * ricci))
