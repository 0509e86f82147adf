"""Hessian structures of the reciprocal cost in both charts.

In log coordinates the Hessian is cosh(S) * alpha alpha^T: rank one
everywhere, with an (n-1)-dimensional radical (null) distribution.  In ratio
coordinates it is rank-one-plus-diagonal and generically invertible,
degenerating on R = 1 and on the locus tanh(S) = sum(alpha).

Each Hessian is a SymMatrix holding the dense (n, n) matrix as `.array`;
every function here builds that array symmetric bit for bit, so the wrapper
only checks its shape.  The radical basis is a plain (n-1, n) array, and
determinants and locus values are floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .core import Chart, ChartPoint, S_at, WeightVector, transform
from .errors import (
    DimensionMismatch,
    DomainViolation,
    UnsupportedChartPair,
    ZeroCostPoint,
    ZeroWeightVector,
)

RANK_TOL = 1e-10
# |S| below this is treated as lying on R = 1 when choosing the determinant route
DET_ZERO_COST_S = 1e-12


@dataclass(frozen=True)
class SymMatrix:
    """Symmetric matrix held as one dense (n, n) array, kept as given: the
    constructor checks that it is square, and the caller builds it with
    m[i, j] and m[j, i] equal."""

    array: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.array, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionMismatch("dense input must be square")
        object.__setattr__(self, "array", m)

    def to_dense(self) -> np.ndarray:
        return self.array.copy()


@dataclass(frozen=True)
class HessianDecomposition:
    """Ratio-chart Hessian split A + beta u u^T with A = a_scale * diag(diag).

    diag_i = alpha_i / x_i^2, u_i = alpha_i / x_i, beta = (R + 1/R)/2 and
    a_scale = -(R - 1/R)/2, so the diagonal part vanishes exactly on R = 1.
    """

    diag: np.ndarray
    u: np.ndarray
    beta: float
    a_scale: float


def hessian_log(t: ChartPoint, w: WeightVector) -> SymMatrix:
    """Log-chart Hessian cosh(S) * alpha alpha^T (rank one for any t)."""
    t.require_chart(Chart.LOG)
    return SymMatrix(math.cosh(S_at(t, w)) * np.outer(w.alpha, w.alpha))


def _ratio_terms(x: ChartPoint, w: WeightVector) -> Tuple[np.ndarray, float, float]:
    """u = alpha / x, R and 1/R at a ratio-chart point, from one S: what
    both forms of the ratio-chart Hessian read."""
    x.require_chart(Chart.RATIO)
    S = S_at(x, w)
    return w.alpha / x.coords, math.exp(S), math.exp(-S)


def hessian_ratio(x: ChartPoint, w: WeightVector) -> SymMatrix:
    """Ratio-chart Hessian of the cost.

    Off-diagonal: (alpha_i alpha_j / (2 x_i x_j)) (R + 1/R).
    Diagonal:     (alpha_i(alpha_i-1) R + alpha_i(alpha_i+1)/R) / (2 x_i^2).
    """
    u, R, Rinv = _ratio_terms(x, w)
    alpha, c = w.alpha, x.coords
    dense = 0.5 * (R + Rinv) * np.outer(u, u)
    np.fill_diagonal(
        dense, 0.5 * (alpha * (alpha - 1.0) * R + alpha * (alpha + 1.0) * Rinv) / (c * c)
    )
    return SymMatrix(dense)


def decompose(x: ChartPoint, w: WeightVector) -> HessianDecomposition:
    """Rank-one-plus-diagonal split of the ratio-chart Hessian."""
    u, R, Rinv = _ratio_terms(x, w)
    return HessianDecomposition(
        diag=w.alpha / (x.coords * x.coords),
        u=u,
        beta=0.5 * (R + Rinv),
        a_scale=-0.5 * (R - Rinv),
    )


def det_hessian_ratio(x: ChartPoint, w: WeightVector) -> float:
    """Determinant of the ratio-chart Hessian.

    Uses det(A) (1 + beta u^T A^{-1} u) when the diagonal part is invertible
    (R != 1 and every alpha_i != 0); otherwise falls back to the direct
    determinant, which covers the degenerate configurations.
    """
    d = decompose(x, w)
    if abs(d.a_scale) < DET_ZERO_COST_S or np.any(w.alpha == 0.0):
        return float(np.linalg.det(hessian_ratio(x, w).array))
    a_diag = d.a_scale * d.diag
    det_a = float(np.prod(a_diag))
    quad = float(np.sum(d.u * d.u / a_diag))
    return det_a * (1.0 + d.beta * quad)


def singular_locus_value(p: ChartPoint, w: WeightVector) -> float:
    """The invertibility indicator 1 - coth(S) * sum(alpha).

    Zero exactly on the secondary degeneracy hypersurface; undefined on the
    zero-cost hypersurface where coth blows up.
    """
    S = S_at(p, w)
    if abs(S) < 1e-14:
        raise ZeroCostPoint("coth(S) undefined at S = 0; the R=1 degeneracy is separate")
    return 1.0 - w.total / math.tanh(S)


def singular_S(w: WeightVector) -> Optional[float]:
    """The log-coordinate level S* = artanh(sum(alpha)) of the singular
    locus, or None when |sum(alpha)| >= 1 and no locus exists.

    For sum(alpha) = 0 the returned level is 0.0, which coincides with the
    zero-cost hypersurface R = 1."""
    total = w.total
    if abs(total) >= 1.0:
        return None
    return math.atanh(total)


def rank(m: SymMatrix, tol: float = RANK_TOL) -> int:
    """Eigenvalue count above tol * (largest |eigenvalue|)."""
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    eigs = np.abs(np.linalg.eigvalsh(m.array))
    top = float(np.max(eigs)) if eigs.size else 0.0
    if top == 0.0:
        return 0
    return int(np.sum(eigs > tol * top))


def radical_basis(w: WeightVector) -> np.ndarray:
    """Orthonormal basis of the null distribution {v : alpha . v = 0}: the
    (n-1, n) array of the n-1 rows completing alpha."""
    norm = math.sqrt(w.norm_sq)
    if norm == 0.0:
        raise ZeroWeightVector("radical basis needs alpha != 0")
    _, _, vh = np.linalg.svd(w.alpha.reshape(1, -1) / norm)
    return vh[1:]


def pullback(
    m_fn: Callable[[ChartPoint], SymMatrix],
    p: ChartPoint,
    source: Chart,
    target: Chart,
    w: WeightVector,
) -> SymMatrix:
    """Components in `target` coordinates of a matrix field given in `source`
    coordinates, via J^T M J with the diagonal log/exp Jacobian.

    `p` is expressed in the target chart; the field is evaluated at the same
    geometric point transformed into the source chart."""
    if source not in (Chart.LOG, Chart.RATIO) or target not in (Chart.LOG, Chart.RATIO):
        raise UnsupportedChartPair("pullback supports the LOG and RATIO charts")
    p.require_chart(target)
    m = m_fn(transform(p, source, w))
    if source is target:
        return m
    if source is Chart.LOG:  # target RATIO: d(log x)/dx = 1/x
        jac = 1.0 / p.coords
    else:  # target LOG: d(exp t)/dt = exp t
        jac = np.exp(p.coords)
    return SymMatrix(m.array * np.outer(jac, jac))


def fd_hessian(
    f: Callable[[ChartPoint], float],
    p: ChartPoint,
    h: Optional[float] = None,
) -> SymMatrix:
    """Central-difference Hessian oracle.

    Steps default to max(1e-4, 1e-4 |coordinate|) per axis; ratio-chart
    points must be interior by twice the step on every axis.
    """
    c = p.coords
    n = p.n
    steps = np.full(n, h) if h is not None else np.maximum(1e-4, 1e-4 * np.abs(c))
    if p.chart is Chart.RATIO and np.any(c - 2.0 * steps <= 0.0):
        raise DomainViolation("stencil leaves the positive orthant")

    def ev(delta: np.ndarray) -> float:
        return f(ChartPoint(p.chart, c + delta))

    f0 = ev(np.zeros(n))
    dense = np.empty((n, n))
    for i in range(n):
        ei = np.zeros(n)
        ei[i] = steps[i]
        dense[i, i] = (ev(ei) - 2.0 * f0 + ev(-ei)) / (steps[i] * steps[i])
        for j in range(i + 1, n):
            ej = np.zeros(n)
            ej[j] = steps[j]
            val = (ev(ei + ej) - ev(ei - ej) - ev(-ei + ej) + ev(-ei - ej)) / (
                4.0 * steps[i] * steps[j]
            )
            dense[i, j] = val
            dense[j, i] = val
    return SymMatrix(dense)
