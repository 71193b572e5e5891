"""Diagnostic mathematics: CKA similarity between weight matrices,
singular-value energy retention, and adaptive per-layer ratio allocation
under a global parameter budget (from the per-layer loss increases of
`pipeline.layer_sensitivity_scan`).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, ParameterError, ShapeError
from .linalg import as_matrix


def _centered_gram(w: np.ndarray) -> np.ndarray:
    k = w @ w.T
    return k - k.mean(axis=0, keepdims=True) - k.mean(axis=1, keepdims=True) + k.mean()


def cka(w1, w2) -> float:
    """Linear centered-kernel-alignment similarity of two weight matrices.

    Rows are treated as samples: K = w1 w1^T, L = w2 w2^T, H the centering
    matrix; returns tr(HKHL) / sqrt(tr(HKHK) tr(HLHL)), clamped to [0, 1]
    against last-ulp overshoot. Identical inputs short-circuit to exactly 1.
    """
    a = as_matrix(w1, "w1")
    b = as_matrix(w2, "w2")
    if a.shape[0] != b.shape[0]:
        raise ShapeError(f"row counts differ: {a.shape[0]} vs {b.shape[0]}")
    if np.array_equal(a, b):
        return 1.0
    kc = _centered_gram(a)
    lc = _centered_gram(b)
    hkhk = float(np.sum(kc * kc))
    hlhl = float(np.sum(lc * lc))
    if hkhk <= 0.0 or hlhl <= 0.0:
        raise DegenerateInputError("constant-rows input: centered Gram is zero")
    value = float(np.sum(kc * lc)) / math.sqrt(hkhk * hlhl)
    return min(max(value, 0.0), 1.0)


def energy_retention(sigma, k: int) -> float:
    """Fraction of squared singular values kept by a rank-k truncation."""
    s = np.asarray(sigma, dtype=np.float64)
    if s.ndim != 1 or s.size < 1:
        raise ShapeError("sigma must be a non-empty vector")
    if not np.all(np.isfinite(s) & (s >= 0)):
        raise ParameterError("singular values must be finite and >= 0")
    if np.any(np.diff(s) > 0):
        raise ParameterError("sigma must be sorted non-increasing")
    if not 0 <= k <= s.size:
        raise ParameterError(f"k={k} outside [0, {s.size}]")
    total = float(np.sum(s * s))
    if total <= 0.0:
        raise DegenerateInputError("all-zero singular values")
    return float(np.sum(s[:k] * s[:k])) / total


@dataclass(frozen=True)
class RatioAllocation:
    """Per-layer delta ratios meeting a global parameter budget."""

    ratios: tuple[float, ...]
    budget_ratio: float
    p_min: float
    layer_params: tuple[float, ...]

    @property
    def realized_ratio(self) -> float:
        w = np.asarray(self.layer_params)
        return float(np.dot(self.ratios, w) / np.sum(w))


def allocate_adaptive_ratios(profile, budget: float, p_min: float = 0.05,
                             layer_params=None) -> RatioAllocation:
    """Water-filling allocation: p_l = clip(c * sensitivity_l, p_min, 1) with c
    chosen so the parameter-weighted mean ratio equals `budget` (the uniform
    allocation's budget).

    Monotone in sensitivity by construction. Negative loss increases count as
    zero sensitivity; all-equal sensitivities reduce to the uniform budget
    exactly.
    """
    sens = np.asarray(getattr(profile, "increases", profile), dtype=np.float64)
    if sens.ndim != 1 or sens.size < 1:
        raise ShapeError("need at least one sensitivity value")
    if not np.all(np.isfinite(sens)):
        raise ParameterError("sensitivities must be finite")
    if layer_params is None:
        w = np.ones(sens.size)
    else:
        w = np.asarray(layer_params, dtype=np.float64)
        if w.shape != sens.shape or not np.all(np.isfinite(w) & (w > 0)):
            raise ParameterError("layer_params must be finite, positive and one per layer")
    if not 0.0 < p_min <= 1.0:
        raise ParameterError(f"p_min must be in (0, 1], got {p_min}")
    if not p_min <= budget <= 1.0:
        raise ParameterError(f"infeasible budget {budget}: feasible range is [{p_min}, 1]")

    sens = np.maximum(sens, 0.0)
    total = float(np.sum(w))
    target = budget * total
    if np.all(sens == sens[0]):
        ratios = np.full(sens.size, budget)
        return RatioAllocation(tuple(ratios), budget, p_min, tuple(w))

    def realized(c: float) -> float:
        return float(np.dot(np.clip(c * sens, p_min, 1.0), w))

    # achievable range given saturation: zero-sensitivity layers stay at p_min
    hi_cap = float(np.dot(np.where(sens > 0, 1.0, p_min), w))
    if target > hi_cap + 1e-12 * total:
        raise ParameterError(
            f"infeasible budget {budget}: zero-sensitivity layers cap the feasible "
            f"range at [{p_min}, {hi_cap / total:.6f}]"
        )

    lo, hi = 0.0, 1.0 / float(np.max(sens[sens > 0]))
    for _ in range(200):
        if realized(hi) >= target:
            break
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if realized(mid) < target:
            lo = mid
        else:
            hi = mid
    ratios = np.clip(hi * sens, p_min, 1.0)
    return RatioAllocation(tuple(float(r) for r in ratios), budget, p_min, tuple(w))
