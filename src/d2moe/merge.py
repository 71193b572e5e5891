"""Shared-base construction from expert weights, and delta extraction.

Every merge method is one weighted average of the experts with its own
coefficients: ones for the mean, routing frequencies for the frequency
merge, per-expert Fisher means for fisher-scalar and the elementwise Fisher
blocks for fisher. The pipeline applies it per role across a layer's
experts (Up with Up, Down with Down).
"""
from __future__ import annotations

import numpy as np

from .errors import ParameterError, ShapeError
from .linalg import as_matrix

MERGE_METHODS = ("fisher", "fisher-scalar", "mean", "frequency")
DEFAULT_EPSILON = 1e-12


def _check_stack(weights) -> np.ndarray:
    mats = [as_matrix(w, f"weights[{i}]") for i, w in enumerate(weights)]
    if not mats:
        raise ParameterError("need at least one weight matrix")
    shape = mats[0].shape
    for i, m in enumerate(mats):
        if m.shape != shape:
            raise ShapeError(f"weights[{i}] shape {m.shape} != {shape}")
    return np.stack(mats)


def _mean(w: np.ndarray) -> np.ndarray:
    total = np.zeros_like(w[0])
    for i in range(w.shape[0]):
        total += w[i]
    return total / w.shape[0]


def weighted_merge(weights, coeffs, epsilon: float = DEFAULT_EPSILON) -> tuple[np.ndarray, int]:
    """Weighted base W_b = sum_i c_i * W_i / sum_i c_i, elementwise.

    coeffs[i] is either a scalar or a matrix of W_i's shape; all are >= 0.
    Coefficients equal across experts give exactly the unweighted mean.
    Entries whose denominator is at or below epsilon fall back to the
    unweighted mean. Returns (base, number of entries that fell back).
    """
    w = _check_stack(weights)
    if len(coeffs) != w.shape[0]:
        raise ShapeError(f"{len(coeffs)} coefficients for {w.shape[0]} experts")
    if all(np.ndim(c) == 0 for c in coeffs):
        c = np.asarray(coeffs, dtype=np.float64).reshape(-1, 1, 1)
    else:
        c = _check_stack(coeffs)
        if c.shape != w.shape:
            raise ShapeError(f"coefficient stack shape {c.shape} != weight stack shape {w.shape}")
    if not np.all(np.isfinite(c)) or np.any(c < 0):
        raise ParameterError("merge coefficients must be finite and >= 0")
    den = np.zeros_like(c[0])
    for i in range(w.shape[0]):
        den += c[i]
    fallback = np.broadcast_to(den <= epsilon, w.shape[1:])
    n_fallback = int(np.count_nonzero(fallback))
    if all(np.array_equal(c[i], c[0]) for i in range(1, c.shape[0])):
        return _mean(w), n_fallback
    num = np.zeros_like(w[0])
    for i in range(w.shape[0]):
        num += c[i] * w[i]
    if n_fallback:
        return np.where(fallback, _mean(w), num / np.where(fallback, 1.0, den)), n_fallback
    return num / den, 0


def compute_deltas(weights, w_b) -> list[np.ndarray]:
    """Per-expert residuals delta_i = W_i - W_b."""
    w = _check_stack(weights)
    base = as_matrix(w_b, "w_b")
    if base.shape != w.shape[1:]:
        raise ShapeError(f"w_b shape {base.shape} != expert shape {w.shape[1:]}")
    return [w[i] - base for i in range(w.shape[0])]
