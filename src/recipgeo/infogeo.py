"""Information-geometric readings of the reciprocal cost.

The cost is the symmetrized Itakura-Saito divergence of the ratio product
against 1; in log coordinates it is a globally convex Bregman potential
whose second-order expansion is the degenerate Hessian metric; and that
metric is realized as the Fisher information of a one-parameter Gaussian
family with mean m(S) = integral_0^S sqrt(cosh u) du.

The divergences, mean_function (m, by quadrature) and mean_slope (m' =
sqrt(cosh S), closed form) return floats; the Fisher information reads m'
alone and is a SymMatrix, read as `.array` like the Hessians.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import Chart, ChartPoint, S_at, WeightVector, check_S, cost_ratio
from .errors import DimensionMismatch, NonPositiveInput
from .hessian import SymMatrix, hessian_log, rank_one

QUADRATURE_TOL = 1e-12
# |alpha . direction| below this (scaled) marks a radical direction
DEGENERATE_DOT = 1e-12
# largest step of the Bregman remainder probe, halved three times
ORDER_PROBE_STEP = 1e-2


@dataclass(frozen=True)
class OrderFit:
    """Result of the Bregman remainder scaling probe.

    slope is the fitted log2 decay exponent of |D - quadratic| under step
    halving (None for radical directions, where the remainder vanishes
    identically and the probe reports the raw values instead)."""

    slope: Optional[float]
    scales: np.ndarray
    remainders: np.ndarray
    degenerate: bool


def itakura_saito(p: float, q: float) -> float:
    """D_IS(p||q) = p/q - log(p/q) - 1 for positive scalars."""
    if p <= 0.0 or q <= 0.0:
        raise NonPositiveInput("Itakura-Saito divergence needs positive inputs")
    ratio = p / q
    return ratio - math.log(ratio) - 1.0


def symmetrized_is(x: ChartPoint, w: WeightVector) -> float:
    """Half the sum D_IS(1||R) + D_IS(R||1) at the ratio product R(x);
    analytically identical to the cost J(x)."""
    R = cost_ratio(x, w).R
    return 0.5 * (itakura_saito(1.0, R) + itakura_saito(R, 1.0))


def bregman(t: ChartPoint, delta: np.ndarray, w: WeightVector) -> float:
    """Bregman divergence of the convex log-chart potential:
    D(t, t+delta) = J(t+delta) - J(t) - grad J(t) . delta >= 0."""
    t.require_chart(Chart.LOG)
    delta = np.asarray(delta, dtype=float)
    if delta.size != w.n:
        raise DimensionMismatch("delta/point dimension must match the weights")
    S = S_at(t, w)
    d = float(np.dot(w.alpha, delta))
    return math.cosh(check_S(S + d)) - math.cosh(S) - math.sinh(S) * d


def bregman_order_check(t: ChartPoint, direction: np.ndarray, w: WeightVector) -> OrderFit:
    """Scaling exponent of the Bregman remainder beyond its quadratic term.

    Evaluates |D(t, s v) - s^2 v^T H v / 2| at s = ORDER_PROBE_STEP and its
    halves, quarters and eighths, and fits the log2 slope: 3 where the cubic
    term is present, 4 at points with S = 0, and identically zero along
    radical directions (reported with degenerate=True rather than a fit)."""
    direction = np.asarray(direction, dtype=float)
    quad_coeff = 0.5 * float(direction @ hessian_log(t, w).array @ direction)
    scales = ORDER_PROBE_STEP * 0.5 ** np.arange(4)
    remainders = np.empty(4)
    for i, s in enumerate(scales):
        remainders[i] = abs(bregman(t, s * direction, w) - quad_coeff * s * s)
    dot = float(np.dot(w.alpha, direction))
    norm = math.sqrt(w.norm_sq) * float(np.linalg.norm(direction))
    if abs(dot) <= DEGENERATE_DOT * max(norm, 1e-300):
        return OrderFit(slope=None, scales=scales, remainders=remainders, degenerate=True)
    logs = np.log2(remainders)
    slope = float(np.polyfit(np.log2(scales), logs, 1)[0])
    return OrderFit(slope=slope, scales=scales, remainders=remainders, degenerate=False)


def _adaptive_simpson(f, a: float, b: float, tol: float) -> float:
    fa, fb = f(a), f(b)
    m = 0.5 * (a + b)
    fm = f(m)
    whole = (b - a) * (fa + 4.0 * fm + fb) / 6.0

    def recurse(a, fa, b, fb, m, fm, whole, tol, depth):
        lm = 0.5 * (a + m)
        rm = 0.5 * (m + b)
        flm, frm = f(lm), f(rm)
        left = (m - a) * (fa + 4.0 * flm + fm) / 6.0
        right = (b - m) * (fm + 4.0 * frm + fb) / 6.0
        # floor the target at the round-off level of the local estimate
        floor = 16.0 * np.finfo(float).eps * abs(left + right)
        if abs(left + right - whole) <= max(15.0 * tol, floor) or depth >= 60:
            return left + right + (left + right - whole) / 15.0
        return (
            recurse(a, fa, m, fm, lm, flm, left, tol / 2.0, depth + 1)
            + recurse(m, fm, b, fb, rm, frm, right, tol / 2.0, depth + 1)
        )

    return recurse(a, fa, b, fb, m, fm, whole, tol, 0)


def mean_slope(S: float) -> float:
    """m'(S) = sqrt(cosh S), for |S| <= S_MAX."""
    return math.sqrt(math.cosh(check_S(S)))


def mean_function(S: float) -> float:
    """m(S) = integral_0^S sqrt(cosh u) du by adaptive Simpson quadrature,
    for |S| <= S_MAX.  Odd in S, with slope mean_slope(S) >= 1 everywhere."""
    if check_S(S) == 0.0:
        return 0.0
    integrand = lambda u: math.sqrt(math.cosh(u))
    return math.copysign(_adaptive_simpson(integrand, 0.0, abs(S), QUADRATURE_TOL), S)


def fisher_info(t: ChartPoint, w: WeightVector) -> SymMatrix:
    """Fisher information of the Gaussian family z ~ N(m(S), 1) pulled back
    to log coordinates: (m'(S))^2 alpha alpha^T = cosh(S) alpha alpha^T,
    which coincides entrywise with the log-chart Hessian metric."""
    t.require_chart(Chart.LOG)
    mp = mean_slope(S_at(t, w))
    return rank_one(mp * mp, w, "the Fisher information")
