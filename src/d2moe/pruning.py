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
from .linalg import as_matrix, col_l2_norms, row_l2_norms


@dataclass(frozen=True)
class PruneMask:
    """Static removal set plus the per-batch deactivation quota."""

    total_cols: int
    static_removed: np.ndarray  # sorted unique original indices
    target_sparsity: float

    def __post_init__(self):
        removed = np.asarray(self.static_removed, dtype=np.int64)
        object.__setattr__(self, "static_removed", removed)
        if removed.size != math.floor(self.total_cols * self.target_sparsity / 2):
            raise ParameterError(
                f"|static_removed|={removed.size} != floor(n*s/2)="
                f"{math.floor(self.total_cols * self.target_sparsity / 2)}"
            )
        if removed.size and (removed.min() < 0 or removed.max() >= self.total_cols):
            raise ParameterError("static_removed indices out of range")
        if np.unique(removed).size != removed.size:
            raise ParameterError("static_removed indices must be unique")
        if self.dynamic_quota < 0:
            raise ParameterError("dynamic quota negative")

    @property
    def dynamic_quota(self) -> int:
        return math.floor(self.total_cols * self.target_sparsity) - self.static_removed.size


@dataclass(frozen=True)
class PrunedBase:
    """Base weight with statically removed columns dropped.

    `col_norms` holds the column norms of `kept`, computed once here because
    every dynamic mask scores the same stored columns.
    """

    kept: np.ndarray          # (m, n - |static_removed|)
    kept_col_ids: np.ndarray  # sorted original indices of the kept columns
    mask: PruneMask
    col_norms: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        kept = as_matrix(self.kept, "kept base")
        ids = np.asarray(self.kept_col_ids, dtype=np.int64)
        object.__setattr__(self, "kept", kept)
        object.__setattr__(self, "kept_col_ids", ids)
        if kept.shape[1] != ids.size:
            raise ShapeError(f"kept cols {kept.shape[1]} != id count {ids.size}")
        expected = np.setdiff1d(np.arange(self.mask.total_cols), self.mask.static_removed)
        if not np.array_equal(ids, expected):
            raise ParameterError("kept_col_ids must complement static_removed exactly")
        object.__setattr__(self, "col_norms", col_l2_norms(kept))


def static_metric(w_b, calib_x) -> np.ndarray:
    """Column pruning metric C_j = ||W_b[:, j]||_2 * ||X[j, :]||_2."""
    w = as_matrix(w_b, "w_b")
    x = as_matrix(calib_x, "calib_x")
    if x.shape[0] != w.shape[1]:
        raise ShapeError(f"calib_x rows {x.shape[0]} != w_b cols {w.shape[1]}")
    return col_l2_norms(w) * row_l2_norms(x)


def static_metric_from_gram(w_b, gram) -> np.ndarray:
    """Same metric computed from the activation Gram: ||X[j,:]|| = sqrt(gram_jj)."""
    w = as_matrix(w_b, "w_b")
    g = as_matrix(gram, "gram")
    if g.shape != (w.shape[1], w.shape[1]):
        raise ShapeError(f"gram shape {g.shape} != ({w.shape[1]}, {w.shape[1]})")
    return col_l2_norms(w) * np.sqrt(np.maximum(np.diag(g), 0.0))


def static_prune(w_b, metric, s: float) -> PrunedBase:
    """Remove the floor(n*s/2) lowest-metric columns (ties: lower index first)."""
    w = as_matrix(w_b, "w_b")
    c = np.asarray(metric, dtype=np.float64)
    if c.shape != (w.shape[1],):
        raise ShapeError(f"metric shape {c.shape} != ({w.shape[1]},)")
    if not 0.0 <= s < 1.0:
        raise ParameterError(f"target sparsity must be in [0, 1), got {s}")
    n = w.shape[1]
    n_remove = math.floor(n * s / 2)
    order = np.argsort(c, kind="stable")  # ascending metric, lower index first on ties
    removed = np.sort(order[:n_remove])
    kept_ids = np.setdiff1d(np.arange(n), removed)
    mask = PruneMask(total_cols=n, static_removed=removed, target_sparsity=s)
    return PrunedBase(kept=np.ascontiguousarray(w[:, kept_ids]), kept_col_ids=kept_ids, mask=mask)


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
    return pruned.kept_col_ids[_active_positions(pruned, x)]


def _active_positions(pruned: PrunedBase, rows: np.ndarray) -> np.ndarray:
    """Ascending positions into kept_col_ids of the columns active for `rows`.

    `rows` must already be a finite C-order matrix aligned with the kept
    columns; `dynamic_mask` is the checked entry point.
    """
    quota = pruned.mask.dynamic_quota
    if quota == 0:
        return np.arange(pruned.kept_col_ids.size)
    c = pruned.col_norms * np.sqrt((rows * rows).sum(axis=1))  # == np.linalg.norm(rows, axis=1)
    # kept_col_ids is ascending, so stable sort ties resolve to lower original index
    return np.sort(np.argsort(c, kind="stable")[quota:])
