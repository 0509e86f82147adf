import numpy as np
import pytest

from recipgeo.tolerances import deviation


def assert_close(value, reference, tol=1e-12, label=""):
    """Relative above unit scale, absolute below."""
    dev = deviation(value, reference)
    assert dev <= tol, f"{label or 'value'}: {value!r} vs {reference!r} (dev {dev:.3e} > {tol:.1e})"


def assert_matrix_close(value, reference, tol=1e-12, label=""):
    value = np.asarray(value, dtype=float)
    reference = np.asarray(reference, dtype=float)
    scale = max(1.0, float(np.max(np.abs(reference))))
    dev = float(np.max(np.abs(value - reference))) / scale
    assert dev <= tol, f"{label or 'matrix'}: max dev {dev:.3e} > {tol:.1e}"


@pytest.fixture
def rng():
    return np.random.default_rng(42)


# n = 1, 3, 5 and 8 with random signs, and the three n = 2 weight classes
# a + b < 1, a + b > 1 and a = -b
POINT_KINDS = ["n1", "sum_below_1", "sum_above_1", "opposite", "n3", "n5", "n8"]


def draw_point(rng, kind, i):
    """Weights alpha and log coordinates t of the i-th seeded point of a
    kind.  Every fifth point is moved onto S = 0 (to round-off), where the
    determinant lemma hands over to the direct determinant; at n >= 2 every
    seventh has the canonical weights 1/n and every eleventh a zero weight."""
    if kind == "sum_below_1":
        a = rng.uniform(0.1, 0.8)
        alpha = np.array([a, rng.uniform(0.05, 0.95 - a)])
    elif kind == "sum_above_1":
        alpha = rng.uniform(0.55, 1.5, 2)
    elif kind == "opposite":
        a = rng.uniform(0.1, 1.5) * rng.choice([-1.0, 1.0])
        alpha = np.array([a, -a])
    else:
        n = int(kind[1:])
        alpha = rng.uniform(0.2, 1.5, n) * rng.choice([-1.0, 1.0], n)
        if n >= 2 and i % 7 == 3:
            alpha = np.full(n, 1.0 / n)
        elif n >= 2 and i % 11 == 5:
            alpha[rng.integers(n)] = 0.0
    t = rng.uniform(-2.0, 2.0, alpha.size)
    if i % 5 == 2:
        t = t - (float(alpha @ t) / float(alpha @ alpha)) * alpha
    return alpha, t


def bits(values):
    """The bytes of values as float64: equal exactly when every bit is."""
    return np.asarray(values, dtype=float).tobytes()
