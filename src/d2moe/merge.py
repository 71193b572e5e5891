"""Shared-base construction from expert weights, and delta extraction.

All mergers operate on one role at a time (Up with Up, Down with Down); the
pipeline applies them per role across a layer's experts.
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


def fisher_merge(weights, fishers, epsilon: float = DEFAULT_EPSILON, scalar: bool = False) -> np.ndarray:
    """Fisher-weighted base: W_b = sum_i F_i * W_i / sum_i F_i, elementwise.

    Denominator entries at or below epsilon are treated as zero Fisher and
    fall back to the unweighted mean there (count them with
    fisher_fallback_entries for reporting). scalar=True replaces each F_i by
    the mean of its entries before weighting. Equal Fisher across experts is
    definitionally the unweighted mean and is computed as exactly that.
    """
    w = _check_stack(weights)
    f = _check_stack(fishers)
    if f.shape != w.shape:
        raise ShapeError(f"fisher stack shape {f.shape} != weight stack shape {w.shape}")
    if np.any(f < 0):
        raise ParameterError("fisher entries must be >= 0")
    if scalar:
        f = np.mean(f, axis=(1, 2))[:, None, None] * np.ones_like(w)
    if all(np.array_equal(f[i], f[0]) for i in range(1, f.shape[0])):
        return mean_merge(weights)
    num = np.zeros_like(w[0])
    den = np.zeros_like(w[0])
    for i in range(w.shape[0]):
        num += f[i] * w[i]
        den += f[i]
    fallback = den <= epsilon
    if fallback.any():
        mean = mean_merge(weights)
        return np.where(fallback, mean, num / np.where(fallback, 1.0, den))
    return num / den


def fisher_fallback_entries(fishers, epsilon: float = DEFAULT_EPSILON) -> int:
    """How many entries fisher_merge would resolve by mean fallback."""
    f = _check_stack(fishers)
    den = np.zeros_like(f[0])
    for i in range(f.shape[0]):
        den += f[i]
    return int(np.count_nonzero(den <= epsilon))


def mean_merge(weights) -> np.ndarray:
    """Elementwise arithmetic mean of the expert weights."""
    w = _check_stack(weights)
    total = np.zeros_like(w[0])
    for i in range(w.shape[0]):
        total += w[i]
    return total / w.shape[0]


def frequency_merge(weights, freq) -> np.ndarray:
    """Routing-frequency-weighted average: W_b = sum_i freq_i * W_i."""
    w = _check_stack(weights)
    f = np.asarray(freq, dtype=np.float64)
    if f.shape != (w.shape[0],):
        raise ShapeError(f"freq shape {f.shape} != ({w.shape[0]},)")
    if np.any(f < 0):
        raise ParameterError("frequencies must be >= 0")
    if abs(float(f.sum()) - 1.0) > 1e-9:
        raise ParameterError(f"frequencies must sum to 1, got {float(f.sum())!r}")
    out = np.zeros_like(w[0])
    for i in range(w.shape[0]):
        out += f[i] * w[i]
    return out


def compute_deltas(weights, w_b) -> list[np.ndarray]:
    """Per-expert residuals delta_i = W_i - W_b."""
    w = _check_stack(weights)
    base = as_matrix(w_b, "w_b")
    if base.shape != w.shape[1:]:
        raise ShapeError(f"w_b shape {base.shape} != expert shape {w.shape[1:]}")
    return [w[i] - base for i in range(w.shape[0])]
