"""Semi-dynamic structured column pruning of the shared base weight.

Static phase (compression time): remove the floor(n*s/2) columns with the
smallest calibration metric C_j = ||W_b[:, j]||_2 * ||X[j, :]||_2 outright.
Dynamic phase (inference time): per batch, deactivate the remaining quota of
lowest-scoring kept columns so the total inactive count is floor(n*s).
Ties always resolve toward the lower original column index.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError, ShapeError
from .linalg import as_matrix


@dataclass(frozen=True)
class PrunedBase:
    """Base weight with its statically removed columns dropped.

    `kept_col_ids` alone records which columns survive; the static removal
    set and the per-batch dynamic quota are derived from it. `col_norms`
    holds the column norms of `kept`, computed once here because every
    dynamic mask scores the same stored columns.
    """

    kept: np.ndarray          # (m, n - floor(n*s/2))
    kept_col_ids: np.ndarray  # ascending original indices of the kept columns
    total_cols: int
    target_sparsity: float
    col_norms: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        kept = as_matrix(self.kept, "kept base")
        ids = np.asarray(self.kept_col_ids, dtype=np.int64)
        object.__setattr__(self, "kept", kept)
        object.__setattr__(self, "kept_col_ids", ids)
        n, s = self.total_cols, self.target_sparsity
        if not 0.0 <= s < 1.0:
            raise ParameterError(f"target sparsity must be in [0, 1), got {s}")
        n_kept = n - math.floor(n * s / 2)
        if ids.shape != (n_kept,):
            raise ParameterError(f"{ids.size} kept columns != n - floor(n*s/2) = {n_kept} (n={n}, s={s})")
        if ids.size and (ids[0] < 0 or ids[-1] >= n or np.any(np.diff(ids) <= 0)):
            raise ParameterError(f"kept_col_ids must be ascending, unique and in [0, {n})")
        if kept.shape[1] != ids.size:
            raise ShapeError(f"kept cols {kept.shape[1]} != id count {ids.size}")
        object.__setattr__(self, "col_norms", np.linalg.norm(kept, axis=0))

    @property
    def static_removed(self) -> np.ndarray:
        """Ascending original indices of the statically removed columns."""
        return np.setdiff1d(np.arange(self.total_cols), self.kept_col_ids)

    @property
    def dynamic_quota(self) -> int:
        """Kept columns each batch deactivates: floor(n*s) less the static ones."""
        n = self.total_cols
        return math.floor(n * self.target_sparsity) - (n - self.kept_col_ids.size)


def _keep_all_but_lowest(scores: np.ndarray, q: int) -> np.ndarray:
    """Ascending positions of all but the q lowest scores. The sort is
    stable, so ties drop the lower position first."""
    return np.sort(np.argsort(scores, kind="stable")[q:])


def static_metric_from_gram(w_b, gram_diagonal) -> np.ndarray:
    """Column pruning metric C_j = ||W_b[:, j]||_2 * ||X[j, :]||_2, from the
    diagonal of the activation Gram X X^T: ||X[j, :]||_2 = sqrt(gram_jj)."""
    w = as_matrix(w_b, "w_b")
    d = np.asarray(gram_diagonal, dtype=np.float64)
    if d.shape != (w.shape[1],):
        raise ShapeError(f"gram diagonal shape {d.shape} != ({w.shape[1]},)")
    return np.linalg.norm(w, axis=0) * np.sqrt(np.maximum(d, 0.0))


def static_prune(w_b, metric, s: float) -> PrunedBase:
    """Remove the floor(n*s/2) lowest-metric columns (ties: lower index first)."""
    w = as_matrix(w_b, "w_b")
    c = np.asarray(metric, dtype=np.float64)
    if c.shape != (w.shape[1],):
        raise ShapeError(f"metric shape {c.shape} != ({w.shape[1]},)")
    if not 0.0 <= s < 1.0:
        raise ParameterError(f"target sparsity must be in [0, 1), got {s}")
    n = w.shape[1]
    kept_ids = _keep_all_but_lowest(c, math.floor(n * s / 2))
    return PrunedBase(kept=np.ascontiguousarray(w[:, kept_ids]), kept_col_ids=kept_ids,
                      total_cols=n, target_sparsity=s)


def dynamic_mask(pruned: PrunedBase, x_batch) -> np.ndarray:
    """Original ids of the columns active for this batch.

    Recomputes the metric over the kept columns from the batch itself and
    deactivates the dynamic_quota lowest-scoring ones (ties: lower original
    index first). Pure in (pruned, x_batch); never touches statically
    removed columns.
    """
    x = as_matrix(x_batch, "x_batch")
    if x.shape[0] != pruned.kept.shape[1]:
        raise ShapeError(
            f"x_batch rows {x.shape[0]} != kept column count {pruned.kept.shape[1]} "
            "(rows must align with kept_col_ids)"
        )
    return pruned.kept_col_ids[_active_positions(pruned, _column_sumsq(np.ascontiguousarray(x.T)))]


def _column_sumsq(a: np.ndarray) -> np.ndarray:
    """Per-column sum of squares of a C-order token-major matrix over its tokens:
    the one column statistic, so `dynamic_mask` and the runtime agree bitwise."""
    return np.einsum("ij,ij->j", a, a)


def _active_positions(pruned: PrunedBase, sumsq: np.ndarray) -> np.ndarray:
    """Ascending positions into kept_col_ids of the columns active for a
    batch whose per-kept-column sums of squares over the tokens are `sumsq`.
    """
    quota = pruned.dynamic_quota
    if quota == 0:
        return np.arange(pruned.kept_col_ids.size)
    # ||W_b[:, j]|| * ||X[j, :]||; kept_col_ids is ascending, so ties drop the lower original index
    return _keep_all_but_lowest(pruned.col_norms * np.sqrt(sumsq), quota)
