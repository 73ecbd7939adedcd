"""Deterministic numeric primitives used by every other module.

All functions take and return float64 numpy arrays; accumulation is always
done in double precision. A probability vector ("distribution") has
nonnegative entries summing to 1 within 1e-9; a block of them is a 2-D
array with one distribution per row.
"""

from __future__ import annotations

import numpy as np

CE_EPS = 1e-12  # lower clamp on p[y] inside cross entropy
KL_EPS = 1e-12  # additive smoothing of both KL arguments

DISTRIBUTION_TOL = 1e-9


def is_distribution(p, tol: float = DISTRIBUTION_TOL) -> bool:
    """True if p is a probability vector, or a (B, c) block whose every row
    is one: nonnegative, each row summing to 1 within tol."""
    arr = np.asarray(p, dtype=np.float64)
    if arr.ndim not in (1, 2) or arr.size == 0:
        return False
    # two reductions: a NaN or -inf fails the min, and a nonnegative row
    # holding +inf sums to +inf
    return bool(arr.min() >= 0.0 and abs(arr.sum(axis=-1) - 1.0).max() <= tol)


def softmax_rows(m: np.ndarray) -> np.ndarray:
    """Numerically stable (max-subtracted) softmax of each row of a 2-D array."""
    e = np.exp(m - m.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def sharpen(p: np.ndarray) -> np.ndarray:
    """Square-and-renormalize each row of a (B, c) block of distributions to
    boost high-confidence mass.

    Two-step form: f_j = p_j^2 / sum(p), then f / sum(f), so unnormalized
    nonnegative rows are handled deterministically as well. Preserves each
    row's argmax and never decreases the maximum entry of a proper
    distribution. Rows must be nonnegative with a positive sum, as every
    ``stores.neighbor_distribution`` row is.
    """
    f = (p * p) / p.sum(axis=1, keepdims=True)
    return f / f.sum(axis=1, keepdims=True)
