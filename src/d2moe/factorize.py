"""Low-rank compression of delta weights.

The main route whitens each delta by the Cholesky factor of its expert's
activation Gram before truncating: with S @ S.T = Gram, the rank-k SVD of
delta @ S minimizes the activation-weighted error ||(delta - approx) @ S||_F.
That optimum is the projection of the delta onto the top-k left singular
vectors of delta @ S, so it is stored as those vectors and the projected
delta, with no inverse of S. A plain truncated SVD ships as the ablation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, ShapeError
from .linalg import DEFAULT_DAMPING, as_matrix, cholesky_damped, svd

RANK_MODES = ("ratio", "fixed", "lossless")


@dataclass(frozen=True)
class DeltaFactor:
    """Rank-k factor pair: u (m x k), v (k x n), with u @ v approximating the delta."""

    u: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        u = as_matrix(self.u, "delta factor u")
        v = as_matrix(self.v, "delta factor v")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)
        if u.shape[1] != v.shape[0]:
            raise ShapeError(f"factor shapes {u.shape}, {v.shape} disagree on the rank")
        if u.shape[1] > min(u.shape[0], v.shape[1]):
            raise ParameterError(f"rank {u.shape[1]} outside [1, {min(u.shape[0], v.shape[1])}]")

    @property
    def rank(self) -> int:
        return self.u.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return (self.u.shape[0], self.v.shape[1])

    def product(self) -> np.ndarray:
        return self.u @ self.v


def rank_for_ratio(m: int, n: int, p: float) -> int:
    """Largest k with stored factor parameters (m+n)*k <= p*m*n, floored at 1."""
    if m < 1 or n < 1:
        raise ShapeError(f"invalid shape ({m}, {n})")
    if not 0.0 < p <= 1.0:
        raise ParameterError(f"retained-parameter fraction must be in (0, 1], got {p}")
    return max(1, math.floor(p * m * n / (m + n)))


def truncation_aware_svd(delta, gram, k: int, damping: float = DEFAULT_DAMPING) -> DeltaFactor:
    """Whitened rank-k factorization of a delta weight.

    S = cholesky_damped(gram); (U, Sigma, V) = svd(delta @ S);
    u = U_k, v = U_k^T delta. The damped S is invertible and
    U_k^T (delta @ S) = Sigma_k V_k^T, so u @ v = U_k Sigma_k V_k^T S^{-1},
    the whitened optimum, from one GEMM with no solve and no division by a
    singular value. u has orthonormal columns; v carries the scale.
    """
    d = as_matrix(delta, "delta")
    g = as_matrix(gram, "gram")
    m, n = d.shape
    if g.shape != (n, n):
        raise ShapeError(f"gram shape {g.shape} != ({n}, {n}) for delta {d.shape}")
    if not 1 <= k <= min(m, n):
        raise ParameterError(f"rank k={k} outside [1, {min(m, n)}]")
    s, _lam = cholesky_damped(g, damping)
    u = np.ascontiguousarray(svd(d @ s).u[:, :k])
    return DeltaFactor(u=u, v=u.T @ d)


def vanilla_svd_compress(delta, k: int) -> DeltaFactor:
    """Plain truncated SVD split as U_k sqrt(Sigma_k), sqrt(Sigma_k) V_k^T."""
    d = as_matrix(delta, "delta")
    if not 1 <= k <= min(d.shape):
        raise ParameterError(f"rank k={k} outside [1, {min(d.shape)}]")
    trunc = svd(d).truncate(k)
    root = np.sqrt(trunc.sigma)
    return DeltaFactor(u=np.ascontiguousarray(trunc.u * root),
                       v=np.ascontiguousarray((trunc.v * root).T))


def weighted_error(delta, factor: DeltaFactor, gram) -> float:
    """Activation-weighted residual sqrt(tr(E @ gram @ E.T)), E = delta - u@v.

    Equals ||E @ X||_F whenever gram = X @ X.T. The trace is summed from one
    GEMM, sum((E @ gram) * E). Its round-off is of order
    eps * ||E||_F^2 * ||gram||_2, not relative to the trace: when the rank
    covers the span of an expert's routed tokens the true trace is ~0 and the
    value returned is round-off (clamped at zero when it comes out negative).
    """
    d = as_matrix(delta, "delta")
    g = as_matrix(gram, "gram")
    if factor.shape != d.shape:
        raise ShapeError(f"factor shape {factor.shape} != delta shape {d.shape}")
    if g.shape != (d.shape[1], d.shape[1]):
        raise ShapeError(f"gram shape {g.shape} != ({d.shape[1]}, {d.shape[1]})")
    e = d - factor.product()
    return math.sqrt(max(float(np.sum((e @ g) * e)), 0.0))
