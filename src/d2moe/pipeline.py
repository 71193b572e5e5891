"""End-to-end compression: calibrate, merge, factorize, prune, evaluate.

Stage order is fixed, and the report's `timing` records follow it:
`calibrate` (one dense capture of the calibration tokens, which also gives
`loss_before`, then the Fisher's reverse sweep over it when the merge needs
one), then `merge`, `factorize`, `prune` and `package` in one serial pass
over the layers, then `evaluate-compressed` (one compressed pass, for
`loss_after` and the active-parameter census). Layers are independent once
calibration statistics exist; `build_compressed_layer` runs merging, delta
factorization, base pruning and packaging for one layer, and is the only
code that runs that sequence, for `compress` and the sensitivity scan alike.

`compress` and `compute_layer_stats` run with OpenBLAS pinned to one thread
(`linalg.blas_threads(1)`), so their bytes do not depend on
`OPENBLAS_NUM_THREADS`; the thread counts in effect before the call are
restored afterwards, so the standalone forwards keep their threads.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, replace as dc_replace

import numpy as np

from .config import CompressionConfig
from .errors import ConfigError, NumericalError, ParameterError
from .factorize import DeltaFactor, whitened_factors
from .gradients import check_labels, fisher_accumulate
from .linalg import as_matrix, blas_threads
from .merge import weighted_merge
from .moe import (
    MoELayer,
    MoEModel,
    Role,
    RoutingTrace,
    capture_calibration,
    expert_frequency,
    moe_forward_dense,
)
from .pruning import PrunedBase, static_metric_from_gram, static_prune
from .report import CompressionReport, LayerRecord
from .runtime import (
    CompressedLayer,
    CompressedModel,
    compressed_model_forward,
    param_report,
    trim_deltas,
)

# per-layer stages timed by build_compressed_layer, in run order
LAYER_STAGES = ("merge", "factorize", "prune", "package")


@dataclass(frozen=True)
class LayerStats:
    """Calibration statistics one layer's compression depends on: per role
    the (E, n, n) Gram stack, the experts' routing frequencies, and (for the
    Fisher merges) per role the (E, m, n) Fisher stack; stack[i] belongs to
    expert i."""

    grams: dict[Role, np.ndarray]
    frequency: np.ndarray
    fisher: dict[Role, np.ndarray] | None


@blas_threads(1)
def compute_layer_stats(model: MoEModel, calib_tokens, cfg: CompressionConfig,
                        labels=None) -> tuple[list[LayerStats], np.ndarray]:
    """Grams, routing frequencies and (if the merge needs it) Fisher blocks
    for every layer, plus the dense calibration logits (classes, T), all
    from one capture of the calibration tokens."""
    need_fisher = cfg.merge_method in ("fisher", "fisher-scalar")
    if need_fisher and cfg.fisher_mode == "data-label" and labels is None:
        raise ConfigError("fisher_mode=data-label requires calibration labels")
    capture = capture_calibration(model, calib_tokens)
    fisher = None
    if need_fisher:
        fisher = fisher_accumulate(model, capture, mode=cfg.fisher_mode,
                                   seed=cfg.seed, labels=labels)
    hidden, captures = capture
    stats = [LayerStats(grams=cap.grams,
                        frequency=expert_frequency(cap.trace),
                        fisher=fisher[l] if fisher is not None else None)
             for l, cap in enumerate(captures)]
    return stats, model.head @ hidden


# ---------------------------------------------------------------------------
# per-layer stages
# ---------------------------------------------------------------------------

def merge_layer(layer: MoELayer, stats: LayerStats, cfg: CompressionConfig):
    """Merge expert weights into a base per role; returns the bases, the
    (E, m, n) delta stacks W_i - W_b per role, and the count of base entries
    that fell back to the plain mean."""
    bases: dict[Role, np.ndarray] = {}
    deltas: dict[Role, np.ndarray] = {}
    fallback = 0
    for role in (Role.UP, Role.DOWN):
        weights = np.stack([expert[role] for expert in layer.experts])
        if cfg.merge_method == "mean":
            coeffs = np.ones(layer.n_experts)
        elif cfg.merge_method == "frequency":
            coeffs = stats.frequency
        elif cfg.merge_method == "fisher-scalar":
            coeffs = np.mean(stats.fisher[role], axis=(1, 2))
        else:
            coeffs = stats.fisher[role]
        bases[role], n_fallback = weighted_merge(weights, coeffs, cfg.epsilon)
        fallback += n_fallback
        deltas[role] = weights - bases[role]
    return bases, deltas, fallback


def factorize_layer(deltas: dict[Role, np.ndarray], stats: LayerStats,
                    cfg: CompressionConfig, layer_index: int = 0):
    """Truncation-aware SVD of every expert delta, one stacked call per role;
    returns factors keyed by expert, the rank used per role, and per-expert
    whitened residuals."""
    factors: dict[int, dict[Role, DeltaFactor]] = {}
    ranks: dict[str, int] = {}
    errors: dict[str, list[float]] = {}
    for role in (Role.UP, Role.DOWN):
        m, n = deltas[role].shape[1:]
        k = cfg.rank_for(layer_index, m, n)
        ranks[role.value] = k
        role_factors, role_errors = whitened_factors(deltas[role], stats.grams[role], k,
                                                     damping=cfg.damping)
        for i, factor in enumerate(role_factors):
            factors.setdefault(i, {})[role] = factor
        errors[role.value] = role_errors.tolist()
    return factors, ranks, errors


def prune_layer(bases: dict[Role, np.ndarray], stats: LayerStats,
                cfg: CompressionConfig) -> dict[Role, PrunedBase]:
    """Static half of semi-dynamic pruning for both base matrices, scored
    with the total Gram (Python's `sum` of the Gram stack, in expert order)."""
    pruned = {}
    for role in (Role.UP, Role.DOWN):
        metric = static_metric_from_gram(bases[role], sum(stats.grams[role]))
        pruned[role] = static_prune(bases[role], metric, cfg.sparsity)
    return pruned


@dataclass(frozen=True)
class LayerBuild:
    """One compressed layer plus what the run report records about it."""

    layer: CompressedLayer
    ranks: dict[str, int]
    errors: dict[str, list[float]]
    fisher_fallback: int
    seconds: dict[str, float]  # wall time per LAYER_STAGES entry


def build_compressed_layer(layer: MoELayer, stats: LayerStats, cfg: CompressionConfig,
                           layer_index: int = 0) -> LayerBuild:
    """Merge, factorize, prune and package one layer.

    `layer_index` selects the layer's delta ratio (per-layer ratios).
    """
    marks = [time.perf_counter()]
    bases, deltas, fallback = merge_layer(layer, stats, cfg)
    marks.append(time.perf_counter())
    factors, ranks, errors = factorize_layer(deltas, stats, cfg, layer_index)
    marks.append(time.perf_counter())
    pruned = prune_layer(bases, stats, cfg)
    marks.append(time.perf_counter())
    built = CompressedLayer(gate=layer.gate, base=pruned, deltas=factors, top_k=layer.top_k)
    if cfg.trim > 0:
        built = trim_deltas(built, stats.frequency, cfg.trim)
    marks.append(time.perf_counter())
    seconds = {stage: b - a for stage, a, b in zip(LAYER_STAGES, marks, marks[1:])}
    return LayerBuild(layer=built, ranks=ranks, errors=errors, fisher_fallback=fallback,
                      seconds=seconds)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EvalResult:
    loss: float
    perplexity: float
    n_tokens: int


def _logsumexp_columns(logits: np.ndarray) -> np.ndarray:
    """log(sum(exp(logits), axis=0)) for finite logits, in the steps of
    scipy.special.logsumexp (scipy >= 1.15), so the bytes match: the max
    terms are split out of the sum, then log1p(rest / n_max) + log(n_max) + max."""
    top = logits.max(axis=0, keepdims=True)
    is_top = logits == top
    n_top = is_top.sum(axis=0, keepdims=True, dtype=np.float64)
    rest = np.exp(np.where(is_top, -np.inf, logits) - top).sum(axis=0, keepdims=True)
    return (np.log1p(rest / n_top) + np.log(n_top) + top)[0]


def mean_cross_entropy(logits: np.ndarray, labels, batch_size: int) -> float:
    """Mean cross-entropy of (classes, T) logits against T labels, summed in
    chunks of batch_size tokens as `evaluate` batches them, so one forward's
    logits give `evaluate`'s bytes. Bad labels (`gradients.check_labels`),
    non-finite logits and a non-finite loss are rejected."""
    if batch_size < 1:
        raise ParameterError(f"batch_size must be positive, got {batch_size}")
    y = check_labels(labels, *logits.shape)
    bad = np.flatnonzero(~np.all(np.isfinite(logits), axis=0))
    if bad.size:
        raise NumericalError(f"logits are not finite for {bad.size} of {y.size} tokens "
                             f"(first: token {bad[0]}); the forward overflows")
    per_token = _logsumexp_columns(logits) - logits[y, np.arange(y.size)]
    total = 0.0
    for start in range(0, y.size, batch_size):
        total += float(np.sum(per_token[start:start + batch_size]))
    loss = total / y.size
    if not np.isfinite(loss):
        raise NumericalError(f"evaluation loss is not finite ({loss!r})")
    return loss


def _forward_chunks(model, x: np.ndarray, batch_size: int) -> tuple[np.ndarray, list[RoutingTrace]]:
    """Logits (classes, T) of a model over checked tokens run in chunks of
    batch_size, plus each layer's routing trace for the first chunk."""
    if batch_size < 1:
        raise ParameterError(f"batch_size must be positive, got {batch_size}")
    forward = moe_forward_dense if isinstance(model, MoEModel) else compressed_model_forward
    chunks = [forward(model, x[:, start:start + batch_size])
              for start in range(0, x.shape[1], batch_size)]
    return np.hstack([logits for logits, _ in chunks]), chunks[0][1]


def evaluate(model, tokens, labels, batch_size: int = 128) -> EvalResult:
    """Mean cross-entropy of the model on labeled tokens, batched.

    Dynamic base masks depend on batch composition, so for compressed
    models the loss is defined relative to this batch size.
    """
    x = as_matrix(tokens, "tokens")
    logits, _ = _forward_chunks(model, x, batch_size)
    loss = mean_cross_entropy(logits, labels, batch_size)
    return EvalResult(loss=loss, perplexity=float(np.exp(min(loss, 709.0))),
                      n_tokens=int(x.shape[1]))


# ---------------------------------------------------------------------------
# full pipeline
# ---------------------------------------------------------------------------

@blas_threads(1)
def compress(cfg: CompressionConfig, model: MoEModel, calib_tokens, labels=None):
    """Compress every layer of `model` and report what happened.

    Returns (CompressedModel, CompressionReport). `labels` are needed for
    the evaluation records and for data-label Fisher; when omitted, losses
    are reported as 0 and data-label Fisher is rejected. The compressed
    model runs over the calibration tokens once, also without labels: its
    logits give `loss_after`, its first chunk's routing the active census.
    """
    cfg.validate()
    if cfg.per_layer_ratios is not None and len(cfg.per_layer_ratios) != len(model.layers):
        raise ConfigError(f"{len(cfg.per_layer_ratios)} per-layer ratios for "
                          f"{len(model.layers)} layers")
    n_experts = min(layer.n_experts for layer in model.layers)
    if cfg.trim > n_experts:
        raise ConfigError(f"trim count {cfg.trim} outside [0, {n_experts}]")
    calib = as_matrix(calib_tokens, "calib_tokens")
    n_use = min(cfg.calib_samples, calib.shape[1])
    calib_use = calib[:, :n_use]
    labels_use = None if labels is None else np.asarray(labels)[:n_use]

    t0 = time.perf_counter()
    stats, logits = compute_layer_stats(model, calib_use, cfg, labels=labels_use)
    loss_before = 0.0
    if labels_use is not None:
        loss_before = mean_cross_entropy(logits, labels_use, cfg.batch_size)
    timings = [("calibrate", time.perf_counter() - t0)]

    builds = [build_compressed_layer(layer, st, cfg, l)
              for l, (layer, st) in enumerate(zip(model.layers, stats))]
    compressed = CompressedModel(layers=[b.layer for b in builds], head=model.head)
    timings += [(stage, sum(b.seconds[stage] for b in builds)) for stage in LAYER_STAGES]

    t0 = time.perf_counter()
    logits, traces = _forward_chunks(compressed, calib_use, cfg.batch_size)
    loss_after = 0.0
    if labels_use is not None:
        loss_after = mean_cross_entropy(logits, labels_use, cfg.batch_size)
    timings.append(("evaluate-compressed", time.perf_counter() - t0))

    records = []
    for l, (layer, b, trace) in enumerate(zip(model.layers, builds, traces)):
        m, n = layer.experts[0][Role.UP].shape
        p_used = cfg.delta_ratio_for(l, m, n)
        records.append(LayerRecord(
            layer=l,
            rank=b.ranks,
            fisher_fallback=b.fisher_fallback,
            trimmed=b.layer.trimmed,
            weighted_errors={k: tuple(v) for k, v in b.errors.items()},
            params=param_report(b.layer, p_used, cfg.sparsity, trace),
        ))

    report = CompressionReport(config=cfg.to_dict(), seed=cfg.seed,
                               loss_before=loss_before, loss_after=loss_after,
                               layers=tuple(records), timings=tuple(timings))
    return compressed, report


def ratio_frontier(model: MoEModel, calib_tokens, labels, cfg: CompressionConfig,
                   ratios) -> list[tuple[float, float, int]]:
    """Sweep global delta ratios; returns (ratio, loss, stored params) points."""
    points = []
    for ratio in ratios:
        cfg_r = dc_replace(cfg, rank_mode="ratio", delta_ratio=float(ratio),
                           per_layer_ratios=None)
        compressed, rep = compress(cfg_r, model, calib_tokens, labels=labels)
        stored = sum(rec.params.census_static for rec in rep.layers)
        points.append((float(ratio), rep.loss_after, int(stored)))
    return points
