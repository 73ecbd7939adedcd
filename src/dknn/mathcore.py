"""Deterministic numeric primitives used by every other module.

All functions take and return float64 numpy arrays; accumulation is always
done in double precision. Probability vectors ("distributions") are plain
1-D arrays with nonnegative entries summing to 1 within 1e-9.
"""

from __future__ import annotations

import numpy as np

CE_EPS = 1e-12  # lower clamp on p[y] inside cross entropy
KL_EPS = 1e-12  # additive smoothing of both KL arguments

DISTRIBUTION_TOL = 1e-9


def _as_vector(v, name: str = "vector") -> np.ndarray:
    arr = np.asarray(v, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"{name} must be a non-empty 1-D vector, got shape {arr.shape}")
    return arr


def is_distribution(p, tol: float = DISTRIBUTION_TOL) -> bool:
    """True if p is a probability vector: nonnegative, sums to 1 within tol."""
    arr = np.asarray(p, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        return False
    # two reductions: a NaN or -inf fails the min, and a nonnegative row
    # holding +inf sums to +inf
    return bool(arr.min() >= 0.0 and abs(arr.sum() - 1.0) <= tol)


def softmax_rows(m: np.ndarray) -> np.ndarray:
    """Numerically stable (max-subtracted) softmax of each row of a 2-D array."""
    e = np.exp(m - m.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def sharpen(p) -> np.ndarray:
    """Square-and-renormalize a distribution to boost high-confidence mass.

    Two-step form: f_j = p_j^2 / sum(p), then f / sum(f), so unnormalized
    nonnegative inputs are handled deterministically as well. Preserves the
    argmax and never decreases the maximum entry of a proper distribution.
    """
    arr = _as_vector(p, "p")
    if np.any(arr < 0.0):
        raise ValueError("sharpen input must be nonnegative")
    total = arr.sum()
    if total <= 0.0:
        raise ValueError("sharpen input must have a positive entry")
    f = (arr * arr) / total
    return f / f.sum()
