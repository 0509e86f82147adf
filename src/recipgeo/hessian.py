"""Hessian structures of the reciprocal cost in both charts.

In log coordinates the Hessian is cosh(S) * alpha alpha^T: rank one
everywhere, with an (n-1)-dimensional radical (null) distribution.  In ratio
coordinates it is rank-one-plus-diagonal and generically invertible,
degenerating on R = 1 and on the locus tanh(S) = sum(alpha).

Each Hessian is a SymMatrix holding the dense (n, n) matrix as `.array`;
every function here builds that array symmetric bit for bit, so the wrapper
only checks its shape.  The radical basis is a plain (n-1, n) array, and
determinants and locus values are floats.

The ratio-chart Hessian, its split and its determinant lemma are assembled
on Python floats, in the operation order of the array formulas, so they
keep those formulas' bits; the log-chart Hessian broadcasts alpha against
itself.  The lemma's sum u^T A^{-1} u stays a numpy reduction.

The overflow policy is core's: the ratio chart is walled at |S| <= S_MAX
and 2|log x_i| <= S_MAX by core.check_wall, and where an entry, the split
or a determinant still leaves the double range inside the walls,
core.check_finite raises Overflow in place of an infinite value.  A
rank-one matrix c alpha alpha^T is checked at its largest entry alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .core import Chart, ChartPoint, S_at, WeightVector, check_finite, check_wall, log_coords, transform
from .errors import (
    DimensionMismatch,
    DomainViolation,
    Overflow,
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


def rank_one(c: float, w: WeightVector, what: str) -> SymMatrix:
    """c * alpha alpha^T for a finite c.  Rounding is monotone, so no entry
    exceeds c * max alpha_i^2 = c * w.peak_sq, and that one product decides
    whether the matrix, named `what`, leaves the double range."""
    check_finite([c * w.peak_sq], what)
    alpha = w.alpha
    return SymMatrix(c * (alpha[:, None] * alpha))


def hessian_log(t: ChartPoint, w: WeightVector) -> SymMatrix:
    """Log-chart Hessian cosh(S) * alpha alpha^T (rank one for any t)."""
    t.require_chart(Chart.LOG)
    return rank_one(math.cosh(S_at(t, w)), w, "the log-chart Hessian")


def _ratio_terms(x: ChartPoint, w: WeightVector) -> Tuple[list, list, list, float, float]:
    """alpha, x and u = alpha / x as floats, R and 1/R at a ratio-chart
    point, from one S: what every form of the ratio-chart Hessian reads.
    Each divides by x_i^2, so past 2|log x_i| <= S_MAX, after the wall
    |S| <= S_MAX, raises Overflow."""
    x.require_chart(Chart.RATIO)
    S = S_at(x, w)
    logs = log_coords(x, w).tolist()
    check_wall(2.0 * max(-min(logs), max(logs)), "2|log x_i|", "x_i^2")
    alpha, c = w.alpha.tolist(), x.coords.tolist()
    return alpha, c, [ai / ci for ai, ci in zip(alpha, c)], math.exp(S), math.exp(-S)


def hessian_ratio(x: ChartPoint, w: WeightVector) -> SymMatrix:
    """Ratio-chart Hessian of the cost.

    Off-diagonal: (alpha_i alpha_j / (2 x_i x_j)) (R + 1/R).
    Diagonal:     (alpha_i(alpha_i-1) R + alpha_i(alpha_i+1)/R) / (2 x_i^2).
    """
    alpha, c, u, R, Rinv = _ratio_terms(x, w)
    beta, n = 0.5 * (R + Rinv), len(u)
    flat = [beta * (ui * uj) for ui in u for uj in u]
    for i, (ai, ci) in enumerate(zip(alpha, c)):
        flat[i * (n + 1)] = 0.5 * (ai * (ai - 1.0) * R + ai * (ai + 1.0) * Rinv) / (ci * ci)
    check_finite(flat, "the ratio-chart Hessian")
    return SymMatrix(np.array(flat).reshape(n, n))


def _split(x: ChartPoint, w: WeightVector) -> Tuple[list, list, list, float, float]:
    """alpha, and the split of `decompose` as floats: u, diag, beta, a_scale."""
    alpha, c, u, R, Rinv = _ratio_terms(x, w)
    diag = [ai / (ci * ci) for ai, ci in zip(alpha, c)]
    check_finite(u + diag, "the ratio-chart split")
    return alpha, u, diag, 0.5 * (R + Rinv), -0.5 * (R - Rinv)


def decompose(x: ChartPoint, w: WeightVector) -> HessianDecomposition:
    """Rank-one-plus-diagonal split of the ratio-chart Hessian."""
    _, u, diag, beta, a_scale = _split(x, w)
    return HessianDecomposition(diag=np.array(diag), u=np.array(u), beta=beta, a_scale=a_scale)


def det_hessian_ratio(x: ChartPoint, w: WeightVector) -> float:
    """Determinant of the ratio-chart Hessian.

    Uses det(A) (1 + beta u^T A^{-1} u) when the diagonal part is invertible
    (R != 1 and every alpha_i != 0); otherwise falls back to the direct
    determinant, which covers the degenerate configurations.  The sum
    u^T A^{-1} u stays the reduction of np.sum (np.add.reduce, without
    np.sum's wrapper), whose order of additions a Python loop does not keep;
    the product det(A) is math.prod, which multiplies in np.prod's order.
    """
    alpha, u, diag, beta, a_scale = _split(x, w)
    if abs(a_scale) < DET_ZERO_COST_S or 0.0 in alpha:
        return det_direct(hessian_ratio(x, w))
    a_diag = [a_scale * di for di in diag]
    if 0.0 in a_diag:  # underflowed: det(A) leaves the double range, and 1 / A_ii with it
        raise Overflow("the ratio-chart determinant leaves the double range")
    quad = float(np.add.reduce([ui * ui / ad for ui, ad in zip(u, a_diag)]))
    det = math.prod(a_diag) * (1.0 + beta * quad)
    check_finite([det], "the ratio-chart determinant")
    return det


def det_direct(m: SymMatrix) -> float:
    """The determinant of a matrix by LU (np.linalg.det), with numpy's
    floating-point warnings silenced: a subnormal or huge pivot divides by
    zero or overflows inside the factorization.  A result that is not
    finite raises Overflow."""
    with np.errstate(all="ignore"):
        det = float(np.linalg.det(m.array))
    check_finite([det], "the direct determinant")
    return det


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
