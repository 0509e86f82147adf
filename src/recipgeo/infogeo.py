"""Information-geometric readings of the reciprocal cost.

The cost is the symmetrized Itakura-Saito divergence of the ratio product
against 1; in log coordinates it is a globally convex Bregman potential
whose second-order expansion is the degenerate Hessian metric; and that
metric is realized as the Fisher information of a one-parameter Gaussian
family with mean m(S) = integral_0^S sqrt(cosh u) du.

The divergences, mean_function (m, in closed form through one Carlson
elliptic integral) and mean_slope (m' = sqrt(cosh S)) return floats; the
Fisher information reads m' alone and is a SymMatrix, read as `.array` like
the Hessians.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import Chart, ChartPoint, S_at, WeightVector, check_S, cost_ratio
from .errors import DimensionMismatch, NonPositiveInput
from .hessian import SymMatrix, hessian_log, rank_one

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


def mean_slope(S: float) -> float:
    """m'(S) = sqrt(cosh S), for |S| <= S_MAX."""
    return math.sqrt(math.cosh(check_S(S)))


def _carlson_rd(x: float, y: float, z: float) -> float:
    """Carlson's R_D(x, y, z) for x, y >= 0 and z > 0 (Carlson, Numer.
    Algorithms 10, 1995; DLMF 19.36.2): duplicate until every argument lies
    within 0.0015 of the mean, relatively, where the fifth-order series is
    exact to about one rounding."""
    tail, scale = 0.0, 1.0  # scale = 4^-m after m duplications
    while True:
        mean = (x + y + 3.0 * z) / 5.0
        X, Y = (mean - x) / mean, (mean - y) / mean
        Z = -(X + Y) / 3.0
        if max(abs(X), abs(Y), abs(Z)) < 0.0015:
            break
        sx, sy, sz = math.sqrt(x), math.sqrt(y), math.sqrt(z)
        lam = sx * sy + sx * sz + sy * sz
        tail += scale / (sz * (z + lam))
        scale *= 0.25
        x, y, z = 0.25 * (x + lam), 0.25 * (y + lam), 0.25 * (z + lam)
    xy, z2 = X * Y, Z * Z
    e2, e3 = xy - 6.0 * z2, (3.0 * xy - 8.0 * z2) * Z
    e4, e5 = 3.0 * (xy - z2) * z2, xy * z2 * Z
    series = (1.0 - 3.0 * e2 / 14.0 + e3 / 6.0 + 9.0 * e2 * e2 / 88.0
              - 3.0 * e4 / 22.0 - 9.0 * e2 * e3 / 52.0 + 3.0 * e5 / 26.0)
    return scale * series / (mean * math.sqrt(mean)) + 3.0 * tail


def mean_function(S: float) -> float:
    """m(S) = integral_0^S sqrt(cosh u) du = -2i E(iS/2 | 2), |S| <= S_MAX, in
    closed form by DLMF 19.7.7 and 19.25: with tau = tanh(S/2),
    m = 2 sinh(S/2) sqrt(1 + tau^2) - (2/3) tau^3 R_D(sech^2(S/2), 1 + tau^2, 1).
    The two terms cancel neither at small nor at large |S|.  Odd in S, with
    slope mean_slope(S) >= 1 everywhere."""
    half = 0.5 * check_S(S)
    tau, ch = math.tanh(half), math.cosh(half)
    y = 1.0 + tau * tau
    return 2.0 * math.sinh(half) * math.sqrt(y) - (2.0 / 3.0) * tau ** 3 * _carlson_rd(1.0 / (ch * ch), y, 1.0)


def fisher_info(t: ChartPoint, w: WeightVector) -> SymMatrix:
    """Fisher information of the Gaussian family z ~ N(m(S), 1) pulled back
    to log coordinates: (m'(S))^2 alpha alpha^T = cosh(S) alpha alpha^T,
    which coincides entrywise with the log-chart Hessian metric."""
    t.require_chart(Chart.LOG)
    mp = mean_slope(S_at(t, w))
    return rank_one(mp * mp, w, "the Fisher information")
