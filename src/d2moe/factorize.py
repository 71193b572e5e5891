"""Low-rank compression of delta weights.

The main route whitens each delta by the Cholesky factor of its expert's
activation Gram before truncating: with S @ S.T = Gram, the rank-k SVD of
A = delta @ S minimizes the activation-weighted error ||(delta - approx) @ S||_F.
That optimum is the projection of the delta onto the top-k left singular
vectors U_k of A, so it is stored as U_k and U_k^T delta, with no inverse of S.
The ablation, `vanilla_svd_compress`, truncates LAPACK's thin SVD of the
unwhitened delta.

`whitened_factors` finds U_k for all experts of one layer and role in one
stacked call, from eigendecompositions of the smaller Gram of A: U_k is the
top-k eigenvectors of A @ A.T when m <= n, else the QR factor of A @ V_k with
V_k the top-k eigenvectors of A.T @ A. That is exact in exact arithmetic
(A @ A.T = U Sigma^2 U^T, A @ V_k = U_k Sigma_k) up to column signs, which
the sign rule fixes, and nothing is divided by a singular value. But the
Gram squares the condition number: a p x p eigensolver gets sigma_j^2 only
to within ~p * eps * sigma_1^2, which for p = 64 is 1% of it at
sigma_j ~ 1e-6 sigma_1, where a thin SVD resolves down to ~eps * sigma_1.
Experts routed fewer tokens than their input width reach there at the cut
(the damping alone sets that part of the spectrum), so eigenvectors whose
eigenvalue is not resolved to 1% are recomputed on their own span
(`_singular_basis`). Singular values within ~1% of each other can still be
ordered differently than a thin SVD orders them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, ShapeError
from .linalg import (DEFAULT_DAMPING, _cholesky_schedule, as_gram_stack, as_matrix, as_stack,
                     first_nonzero_negative)

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


def _singular_basis(m: np.ndarray, k: int) -> np.ndarray:
    """(E, p, p) left singular bases of the stack m (E, p, q), descending,
    from eigenvectors of m @ m.T, the first k resolved to 1% (module
    docstring). Experts with j < k resolved pairs are grouped by j and their
    other eigenvectors recomputed from m projected on their span; every
    level resolves its top pair, so the recursion ends."""
    p = m.shape[1]
    w, x = np.linalg.eigh(m @ m.transpose(0, 2, 1))
    w, x = np.maximum(w[:, ::-1], 0.0), x[..., ::-1]
    resolved = np.sum(w >= 100 * p * np.finfo(np.float64).eps * w[:, :1], axis=1)
    for j in np.unique(resolved[resolved < k]):
        group = np.flatnonzero(resolved == j)
        z = x[group, :, j:]
        x[group, :, j:] = z @ _singular_basis(z.transpose(0, 2, 1) @ m[group], k - j)
    return x


def whitened_factors(deltas, grams, k: int,
                     damping: float = DEFAULT_DAMPING) -> tuple[list[DeltaFactor], np.ndarray]:
    """Whitened rank-k factors of an (E, m, n) delta stack, and their weighted errors.

    `grams` is the matching (E, n, n) Gram stack; either argument may be a
    sequence of E matrices instead. Each stack is checked once (`as_stack`,
    `as_gram_stack`). u_e holds the top-k left singular vectors of
    deltas[e] @ S_e, with S_e from `cholesky_damped`'s schedule on grams[e],
    the first nonzero entry of each column positive; v_e = u_e^T deltas[e].
    After the Cholesky factors every step runs on the stacks, and each row
    comes out as a call on that expert alone makes it. Returns the factors
    and an (E,) array of their `weighted_error` values.
    """
    d = as_stack(deltas, "deltas")
    g = as_gram_stack(grams, "grams")
    n_experts, m, n = d.shape
    if g.shape != (n_experts, n, n):
        raise ShapeError(f"gram stack shape {g.shape} != {(n_experts, n, n)} "
                         f"for delta stack {d.shape}")
    if not 1 <= k <= min(m, n):
        raise ParameterError(f"rank k={k} outside [1, {min(m, n)}]")
    a = np.stack([de @ _cholesky_schedule(ge, damping)[0] for de, ge in zip(d, g)])
    if m <= n:
        u = _singular_basis(a, k)[..., :k]
    else:
        u = np.linalg.qr(a @ _singular_basis(a.transpose(0, 2, 1), k)[..., :k])[0]
    del a
    u = np.where(first_nonzero_negative(u)[:, None, :], -u, u)
    v = u.transpose(0, 2, 1) @ d
    e = d - u @ v
    errors = np.sqrt(np.maximum([np.sum((ei @ gi) * ei) for ei, gi in zip(e, g)], 0.0))
    return [DeltaFactor(u=ui, v=vi) for ui, vi in zip(u, v)], errors


def vanilla_svd_compress(delta, k: int) -> DeltaFactor:
    """Plain truncated SVD, LAPACK's thin SVD of the delta with no whitening,
    split as U_k sqrt(Sigma_k), sqrt(Sigma_k) V_k^T."""
    d = as_matrix(delta, "delta")
    if not 1 <= k <= min(d.shape):
        raise ParameterError(f"rank k={k} outside [1, {min(d.shape)}]")
    u, sigma, vt = np.linalg.svd(d, full_matrices=False)
    root = np.sqrt(sigma[:k])
    return DeltaFactor(u=u[:, :k] * root, v=root[:, None] * vt[:k])


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
