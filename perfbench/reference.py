"""Closed forms the benchmark computes on its own, apart from recipgeo.

Every check in the workloads compares the program's output with one of these
formulas or with a property the method must have; nothing here imports the
program.
"""

from __future__ import annotations

import math

import numpy as np


def log_S(alpha: np.ndarray, x: np.ndarray) -> float:
    """S = sum_i alpha_i log x_i for a ratio-chart point."""
    return float(np.dot(alpha, np.log(x)))


def hessian_ratio(alpha: np.ndarray, x: np.ndarray) -> np.ndarray:
    """H_ij = (cosh S alpha_i alpha_j - delta_ij sinh S alpha_i) / (x_i x_j)."""
    S = log_S(alpha, x)
    m = math.cosh(S) * np.outer(alpha, alpha) - np.diag(math.sinh(S) * alpha)
    return m / np.outer(x, x)


def hessian_log(alpha: np.ndarray, t: np.ndarray) -> np.ndarray:
    """cosh S alpha alpha^T, which is also the Fisher information."""
    return math.cosh(float(np.dot(alpha, t))) * np.outer(alpha, alpha)


def locus_indicator(alpha: np.ndarray, S: float) -> float:
    """1 - sum(alpha) / tanh S: zero on the secondary singular locus."""
    return 1.0 - float(np.sum(alpha)) / math.tanh(S)


def delta_xy(a: float, b: float, x, y):
    """Z = x^{2a} y^{2b} and Delta = (Z - 1)((a+b-1) Z + (a+b+1)); works on
    scalars and arrays."""
    Z = np.exp(2.0 * (a * np.log(x) + b * np.log(y)))
    return Z, (Z - 1.0) * ((a + b - 1.0) * Z + (a + b + 1.0))


def ratio_to_qr(a: float, b: float, pos: np.ndarray, vel: np.ndarray):
    """Rotate ratio-chart position and velocity rows into (q, r) and (q', r')."""
    s = np.log(pos)
    sd = vel / pos
    rot = np.array([[a, b], [-b, a]])
    return s @ rot.T, sd @ rot.T


def qr_to_ratio(a: float, b: float, pos: np.ndarray, vel: np.ndarray):
    """Inverse of ratio_to_qr for (q, r) position and velocity rows."""
    inv = np.array([[a, -b], [b, a]]) / (a * a + b * b)
    s = pos @ inv.T
    x = np.exp(s)
    return x, (vel @ inv.T) * x


def moves_away(a: float, b: float, q0: float, qd: float, rd: float, reach: float = 20.0) -> bool:
    """Whether a geodesic from q0 with velocity (q', r') in the (q, r) chart
    moves monotonically away in q over [q0, q0 +- reach].

    The metric depends on q alone, so g(v, v) = E and the momentum
    p = g_qr q' + g_rr r' are conserved, and q'^2 = (E g_rr - p^2) / det g.
    With g_rr = -ab(a+b) sinh q / n2^2 and
    det g = ab sinh q (sinh q - (a+b) cosh q) / n2^2, q turns back only where
    that ratio vanishes.  When a = -b, g_rr = 0 and q' = p / g_qr, which
    keeps its sign for q != 0."""
    n2 = a * a + b * b
    step = math.copysign(1.0, qd)
    q = q0 + step * np.linspace(0.0, reach, 4001)

    def metric(q):
        g_qq = ((a * a + b * b) ** 2 * np.cosh(q) - (a ** 3 + b ** 3) * np.sinh(q)) / n2 ** 2
        g_qr = a * b * (a - b) * np.sinh(q) / n2 ** 2
        g_rr = -a * b * (a + b) * np.sinh(q) / n2 ** 2
        return g_qq, g_qr, g_rr

    g_qq, g_qr, g_rr = metric(q)
    E = g_qq[0] * qd * qd + 2.0 * g_qr[0] * qd * rd + g_rr[0] * rd * rd
    p = g_qr[0] * qd + g_rr[0] * rd
    if a + b == 0.0:
        return bool(np.all(p / g_qr * step > 0.0))
    det = g_qq * g_rr - g_qr * g_qr
    return bool(np.all((E * g_rr - p * p) / det > 0.0))


def energy(a: float, b: float, pos: np.ndarray, vel: np.ndarray) -> np.ndarray:
    """g(v, v) under the ratio-chart Hessian metric, one value per row."""
    alpha = np.array([a, b])
    S = np.log(pos) @ alpha
    u = vel / pos
    return np.cosh(S) * (u @ alpha) ** 2 - np.sinh(S) * ((u * u) @ alpha)


def flow_S(S0: float, n2: float, sign: float, tau: np.ndarray):
    """Closed-form S(tau) = 2 artanh(tanh(S0/2) e^{sign |alpha|^2 tau}), with a
    mask of the samples where the argument stays inside (-1, 1)."""
    arg = math.tanh(0.5 * S0) * np.exp(sign * n2 * tau)
    inside = np.abs(arg) < 1.0
    S = np.full(tau.shape, np.nan)
    S[inside] = 2.0 * np.arctanh(arg[inside])
    return S, inside


def blowup_time(S0: float, n2: float) -> float:
    """tau* = -ln|tanh(S0/2)| / |alpha|^2."""
    return -math.log(abs(math.tanh(0.5 * S0))) / n2


def radical_basis(alpha: np.ndarray) -> np.ndarray:
    """Orthonormal rows spanning alpha-perp, by Householder QR of
    [alpha | e_1 .. e_{n-1}]."""
    n = alpha.size
    q, _ = np.linalg.qr(np.column_stack([alpha, np.eye(n)[:, : n - 1]]))
    return q[:, 1:].T


def locus_grid(a: float, b: float, lo: float, hi: float, n: int):
    """Z, Delta and the sign-change flags (1: R = 1, 2: secondary locus,
    4: Ricci numerator) of the `locus` grid, in row-major (x, y) order."""
    xs = np.exp(np.linspace(lo, hi, n))
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    Z, Delta = delta_xy(a, b, X, Y)
    flags = np.zeros(Z.shape, dtype=int)
    for bit, F in ((1, Z - 1.0),
                   (2, (a + b - 1.0) * Z + (a + b + 1.0)),
                   (4, (a + b - 2.0) * Z + (a + b + 2.0))):
        neg = F < 0.0
        hit = np.zeros(Z.shape, dtype=bool)
        cx = neg[:-1, :] != neg[1:, :]
        cy = neg[:, :-1] != neg[:, 1:]
        hit[:-1, :] |= cx
        hit[1:, :] |= cx
        hit[:, :-1] |= cy
        hit[:, 1:] |= cy
        flags += bit * hit
    return X.ravel(), Y.ravel(), Z.ravel(), Delta.ravel(), flags.ravel()


def scaled_dev(value, reference) -> float:
    """Largest |value - reference| / max(1, |reference|) over the entries."""
    value = np.asarray(value, dtype=float)
    reference = np.asarray(reference, dtype=float)
    return float(np.max(np.abs(value - reference) / np.maximum(1.0, np.abs(reference))))
