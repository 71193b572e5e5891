"""Shared-base construction from expert weights.

Every merge method is one weighted average of the experts with its own
coefficients: ones for the mean, routing frequencies for the frequency
merge, per-expert Fisher means for fisher-scalar and the elementwise Fisher
blocks for fisher. The pipeline applies it per role across a layer's
experts (Up with Up, Down with Down). The fisher merge's blocks are
never held at once: calibration streams them into `merge_from_sums`' sums.
"""
from __future__ import annotations

import numpy as np

from .errors import ParameterError, ShapeError
from .linalg import as_stack

MERGE_METHODS = ("fisher", "fisher-scalar", "mean", "frequency")
DEFAULT_EPSILON = 1e-12


def weighted_merge(weights, coeffs, epsilon: float = DEFAULT_EPSILON) -> tuple[np.ndarray, int]:
    """Weighted base W_b = sum_i c_i * W_i / sum_i c_i, elementwise.

    weights is an (E, m, n) stack or a sequence of E same-shape matrices
    (`linalg.as_stack`); coeffs[i] is either a scalar or a matrix of W_i's
    shape; all are >= 0. Coefficients equal across experts give exactly the
    unweighted mean. Otherwise the base is `merge_from_sums` of the two
    sums. Sums over experts are Python's `sum` of a stack: one expert after
    another in index order, from zero, so their bytes are fixed.
    """
    w = as_stack(weights, "weights")
    if len(coeffs) != w.shape[0]:
        raise ShapeError(f"{len(coeffs)} coefficients for {w.shape[0]} experts")
    if all(np.ndim(c) == 0 for c in coeffs):
        c = np.asarray(coeffs, dtype=np.float64).reshape(-1, 1, 1)
    else:
        c = as_stack(coeffs, "coeffs")
        if c.shape != w.shape:
            raise ShapeError(f"coefficient stack shape {c.shape} != weight stack shape {w.shape}")
    if not np.all(np.isfinite(c)) or np.any(c < 0):
        raise ParameterError("merge coefficients must be finite and >= 0")
    equal = all(np.array_equal(c[i], c[0]) for i in range(1, c.shape[0]))
    return merge_from_sums(w, None if equal else sum(c * w), sum(c), epsilon)


def merge_from_sums(weights: np.ndarray, num, den,
                    epsilon: float = DEFAULT_EPSILON) -> tuple[np.ndarray, int]:
    """The base num / den of the checked (E, m, n) stack `weights` from its
    sums over the experts, num = sum_i c_i W_i and den = sum_i c_i; entries
    with den <= epsilon fall back to the unweighted mean, as does all of it
    when num is None (equal coefficients). Returns (base, number of entries
    that fell back). Non-finite sums are a ShapeError, like a non-finite
    coefficient stack."""
    mean = sum(weights) / weights.shape[0]
    fallback = np.broadcast_to(den <= epsilon, mean.shape)
    n_fallback = int(np.count_nonzero(fallback))
    if num is None:
        return mean, n_fallback
    if not (np.all(np.isfinite(num)) and np.all(np.isfinite(den))):
        raise ShapeError("merge sums: contains non-finite entries (overflow)")
    return np.where(fallback, mean, num / np.where(fallback, 1.0, den)), n_fallback
