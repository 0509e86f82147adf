"""Shared comparison convention: relative above unit scale, absolute below."""

from __future__ import annotations

import numpy as np


def deviation(value: float, reference: float) -> float:
    """Scaled deviation |value - reference| / max(1, |reference|)."""
    return abs(value - reference) / max(1.0, abs(reference))


def matrix_deviation(value: np.ndarray, reference: np.ndarray) -> float:
    """Max entrywise deviation scaled by max(1, largest |reference| entry)."""
    value = np.asarray(value, dtype=float)
    reference = np.asarray(reference, dtype=float)
    scale = max(1.0, float(np.max(np.abs(reference))) if reference.size else 0.0)
    if value.shape != reference.shape:
        raise ValueError(f"shape mismatch {value.shape} vs {reference.shape}")
    if value.size == 0:
        return 0.0
    return float(np.max(np.abs(value - reference))) / scale
