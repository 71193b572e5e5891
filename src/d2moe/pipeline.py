"""End-to-end compression: calibrate, merge, factorize, prune, evaluate.

Stage order is fixed, and the report's `timing` records follow it:
`calibrate` (one dense pass over the calibration tokens in chunks of
`moe.TOKEN_CHUNK`: each chunk's capture, then the Fisher's reverse sweep
over it when the merge needs one; its token losses give `loss_before`),
then `merge`, `factorize`, `prune` and `package` in one serial pass over
the layers, then `evaluate-compressed` (one compressed pass, for
`loss_after` and the active-parameter census). Layers are independent once
calibration statistics exist; `build_compressed_layer` alone compresses a
layer. `compress`, the frontier and the sensitivity scan each calibrate
once (`_calibrate`, on the first `calib_samples` tokens) for all their
builds; `evaluate`, `loss_after` and the scan's probes keep each token's
loss batch by batch (`_forward_chunks`), as calibration does.

`compress`, `compute_layer_stats`, the frontier's builds and the scan run
with OpenBLAS pinned to one thread (`linalg.blas_threads(1)`), so their
bytes do not depend on `OPENBLAS_NUM_THREADS`; the thread counts in effect
before the call are restored, so the standalone forwards keep their threads.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, replace as dc_replace

import numpy as np

from .config import CompressionConfig
from .errors import ConfigError, D2MoeError, NumericalError, ParameterError, ShapeError
from .factorize import whitened_factors
from .gradients import _draw_labels, check_labels, fisher_accumulate, output_probabilities
from .linalg import PackedGrams, as_matrix, blas_threads
from .merge import merge_from_sums, weighted_merge
from .moe import (
    ROLES,
    MoELayer,
    MoEModel,
    Role,
    RoutingTrace,
    _chained_forward,
    capture_calibration,
    expert_frequency,
    token_chunks,
)
from .pruning import static_metric_from_gram, static_prune
from .report import CompressionReport, LayerRecord
from .runtime import CompressedLayer, compressed_model_forward, param_report, trim_deltas

# per-layer stages timed by build_compressed_layer, in run order
LAYER_STAGES = ("merge", "factorize", "prune", "package")


@dataclass(frozen=True)
class LayerStats:
    """Calibration statistics one layer's compression depends on: per role
    the `linalg.PackedGrams` (grams[role][i] is expert i's), the experts' routing
    frequencies, and for the Fisher merges per role the (m, n) sums
    (sum_i F_i * W_i, sum_i F_i) of fisher or the (E,) block means of
    fisher-scalar, where F_i is expert i's Fisher block."""

    grams: dict[Role, PackedGrams]
    frequency: np.ndarray
    fisher: dict[Role, tuple[np.ndarray, np.ndarray] | np.ndarray] | None


@blas_threads(1)
def compute_layer_stats(model: MoEModel, calib_tokens, cfg: CompressionConfig,
                        labels=None) -> tuple[list[LayerStats], np.ndarray | None]:
    """Grams, routing frequencies and (if the merge needs them) Fisher sums
    for every layer, plus each token's (T,) cross-entropy (None without
    labels), all from one dense pass over the calibration tokens.

    The pass runs in `moe.token_chunks`: each chunk's capture adds its
    Grams, routing counts and Fisher blocks to the running totals, and its
    logits give its token losses and are dropped, so peak memory is the
    model, its statistics and one chunk, whatever T is; no Fisher block
    outlives its turn in the sweep (`_fisher_totals`). Sampled labels come
    from one `default_rng(seed).random(T)`, sliced per chunk. Up to
    TOKEN_CHUNK tokens the bytes are those of a single capture, and the
    bases those of `weighted_merge` of its Fisher stacks; past it, they
    differ from that only in summation order. Gram totals or Fisher sums
    that overflowed are a NumericalError naming the layer and role.
    """
    cfg.validate()
    need_fisher = cfg.merge_method in ("fisher", "fisher-scalar")
    if need_fisher and cfg.fisher_mode == "data-label" and labels is None:
        raise ConfigError("fisher_mode=data-label requires calibration labels")
    # an array is not copied: the capture checks each chunk as it copies it
    x = calib_tokens
    if not isinstance(x, np.ndarray):
        x = as_matrix(x, "calibration tokens")
    if x.ndim != 2 or 0 in x.shape:
        raise ShapeError(f"calibration tokens: expected a non-degenerate 2-D array, "
                         f"got shape {x.shape}")
    n_tokens = x.shape[1]
    fisher = sink = draws = losses = None
    if labels is not None:
        labels = check_labels(labels, model.num_classes, n_tokens)
        losses = np.empty(n_tokens)
    if need_fisher:
        fisher, sink = _fisher_totals(model, n_tokens, cfg.merge_method == "fisher-scalar")
        if cfg.fisher_mode == "sampled-label":
            draws = np.random.default_rng(cfg.seed).random(n_tokens)
    counts = [np.zeros(layer.n_experts, dtype=np.int64) for layer in model.layers]
    grams = None  # the first chunk's capture allocates the Gram totals
    for cols in token_chunks(n_tokens):
        hidden, captures = capture_calibration(model, x[:, cols], grams)
        grams = [cap.grams for cap in captures]
        counts = [total + cap.trace.counts for total, cap in zip(counts, captures)]
        logits = model.head @ hidden
        if sink is not None:
            p = output_probabilities(logits, cols.start, n_tokens)
            y = labels[cols] if draws is None else _draw_labels(p, draws[cols])
            fisher_accumulate(model, captures, p, y, sink)
        if losses is not None:
            losses[cols] = _token_losses(logits, labels[cols], cols.start)
        del hidden, captures  # drop the chunk before the next one is captured
    stats = [LayerStats(grams=g, frequency=expert_frequency(c),
                        fisher=fisher[l] if fisher is not None else None)
             for l, (g, c) in enumerate(zip(grams, counts))]
    for l, st in enumerate(stats):
        for role in ROLES:
            sums = () if st.fisher is None else st.fisher[role]
            if not (np.isfinite(st.grams[role].data).all() and np.isfinite(sums).all()):
                raise NumericalError(f"layer {l} {role.value}: calibration Grams or Fisher sums overflow")
    return stats, losses


def _fisher_totals(model: MoEModel, n_tokens: int, scalar: bool):
    """Every layer's `LayerStats.fisher`, zero, and the `fisher_accumulate`
    sink adding a chunk's block B_i to it as F_i = B_i / T: np.mean(F_i) to
    the means, or F_i * W_i and F_i to the sums, in `weighted_merge`'s
    ascending expert order."""
    if scalar:
        totals = [{role: np.zeros(layer.n_experts) for role in ROLES} for layer in model.layers]
    else:
        totals = [{role: (np.zeros(w.shape[1:]), np.zeros(w.shape[1:]))
                   for role, w in layer.weights.items()} for layer in model.layers]

    def sink(l, role, i, block):
        block /= n_tokens
        if scalar:
            totals[l][role][i] += np.mean(block)
        else:
            num, den = totals[l][role]
            den += block
            num += block * model.layers[l].weights[role][i]
    return totals, sink


# ---------------------------------------------------------------------------
# per-layer build
# ---------------------------------------------------------------------------

def merge_role(layer: MoELayer, role: Role, stats: LayerStats,
               cfg: CompressionConfig) -> tuple[np.ndarray, int]:
    """One role's base and the count of its entries that fell back to the
    plain mean: `weighted_merge` with ones, routing frequencies or Fisher
    means, or `merge_from_sums` of the fisher merge's sums."""
    weights = layer.weights[role]
    if cfg.merge_method == "fisher":
        return merge_from_sums(weights, *stats.fisher[role], cfg.epsilon)
    coeffs = (np.ones(layer.n_experts) if cfg.merge_method == "mean" else
              stats.frequency if cfg.merge_method == "frequency" else stats.fisher[role])
    return weighted_merge(weights, coeffs, cfg.epsilon)


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
    """Merge, factorize and prune one layer a role at a time, so that one
    role's (E, m, n) deltas W_i - W_b are alive at once, then package it.
    Deltas that overflow are a NumericalError, and an error from a role's
    whitened factors is re-raised, each naming the layer and role.

    `layer_index` selects the layer's delta ratio (per-layer ratios).
    """
    seconds = dict.fromkeys(LAYER_STAGES, 0.0)
    pruned, factors, ranks, errors, fallback = {}, {}, {}, {}, 0
    for role in ROLES:
        marks = [time.perf_counter()]
        base, n_fallback = merge_role(layer, role, stats, cfg)
        deltas = layer.weights[role] - base
        if not np.isfinite(deltas).all():
            raise NumericalError(f"layer {layer_index} {role.value}: merged base or deltas overflow")
        marks.append(time.perf_counter())
        ranks[role.value] = cfg.rank_for(layer_index, *deltas.shape[1:])
        try:
            factors[role], role_errors = whitened_factors(deltas, stats.grams[role],
                                                          ranks[role.value], damping=cfg.damping)
        except D2MoeError as exc:
            raise type(exc)(f"layer {layer_index} {role.value}: {exc}") from exc
        del deltas  # before the next role's are formed
        marks.append(time.perf_counter())
        metric = static_metric_from_gram(base, sum(stats.grams[role].diagonals()))  # expert order
        pruned[role] = static_prune(base, metric, cfg.sparsity)
        marks.append(time.perf_counter())
        for stage, a, b in zip(LAYER_STAGES, marks, marks[1:]):
            seconds[stage] += b - a
        errors[role.value] = role_errors.tolist()
        fallback += n_fallback
    t0 = time.perf_counter()
    per_expert = {i: {role: factors[role][i] for role in ROLES} for i in range(layer.n_experts)}
    built = trim_deltas(CompressedLayer(gate=layer.gate, base=pruned, deltas=per_expert,
                                        top_k=layer.top_k), stats.frequency, cfg.trim)
    seconds["package"] = time.perf_counter() - t0
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
    terms are split out of the sum, then log1p(rest / n_max) + log(n_max) + max.
    The rest is summed class by class (a cumulative sum), as numpy sums
    columns of two or more tokens, so a one-token batch gets the same bytes."""
    top = logits.max(axis=0, keepdims=True)
    is_top = logits == top
    n_top = is_top.sum(axis=0, keepdims=True, dtype=np.float64)
    rest = np.exp(np.where(is_top, -np.inf, logits) - top).cumsum(axis=0)[-1:]
    return (np.log1p(rest / n_top) + np.log(n_top) + top)[0]


def _token_losses(logits: np.ndarray, y: np.ndarray, first: int = 0) -> np.ndarray:
    """Each token's cross-entropy; non-finite logits are rejected, naming tokens from `first` on."""
    bad = np.flatnonzero(~np.all(np.isfinite(logits), axis=0))
    if bad.size:
        raise NumericalError(f"logits are not finite for {bad.size} of {y.size} tokens "
                             f"(first: token {first + bad[0]}); the forward overflows")
    return _logsumexp_columns(logits) - logits[y, np.arange(y.size)]


def _batch_mean(per_token: np.ndarray, batch_size: int) -> float:
    """Mean of the token losses, summed per batch of batch_size; a non-finite mean is rejected."""
    total = sum(float(np.sum(per_token[cols])) for cols in token_chunks(per_token.size, batch_size))
    loss = total / per_token.size
    if not np.isfinite(loss):
        raise NumericalError(f"evaluation loss is not finite ({loss!r})")
    return loss


def _forward_chunks(model, x: np.ndarray, labels,
                   batch_size: int) -> tuple[np.ndarray | None, list[RoutingTrace]]:
    """Each token's cross-entropy of a model, dense or compressed, over checked
    tokens in chunks of batch_size (None without labels, which are checked
    before any forward), plus each layer's routing trace for the first chunk."""
    if batch_size < 1:
        raise ParameterError(f"batch_size must be positive, got {batch_size}")
    n_tokens = x.shape[1]
    losses = None
    if labels is not None:
        labels = check_labels(labels, model.head.shape[0], n_tokens)
        losses = np.empty(n_tokens)
    for cols in token_chunks(n_tokens, batch_size):
        logits, chunk_traces = compressed_model_forward(model, x[:, cols])
        if cols.start == 0:
            traces = chunk_traces
        if losses is not None:
            losses[cols] = _token_losses(logits, labels[cols], cols.start)
    return losses, traces


def evaluate(model, tokens, labels, batch_size: int = 128) -> EvalResult:
    """Mean cross-entropy of the model on labeled tokens, batched.

    Dynamic base masks depend on batch composition, so for compressed
    models the loss is defined relative to this batch size.
    """
    x = as_matrix(tokens, "tokens")
    if labels is None:
        raise ShapeError("evaluate needs one label per token")
    loss = _batch_mean(_forward_chunks(model, x, labels, batch_size)[0], batch_size)
    return EvalResult(loss=loss, perplexity=float(np.exp(min(loss, 709.0))),
                      n_tokens=int(x.shape[1]))


# ---------------------------------------------------------------------------
# full pipeline
# ---------------------------------------------------------------------------

@blas_threads(1)
def compress(cfg: CompressionConfig, model: MoEModel, calib_tokens, labels=None):
    """Compress every layer of `model` and report what happened.

    Returns (an `MoEModel` of `CompressedLayer`s, CompressionReport).
    `labels` are needed for the evaluation records and for data-label
    Fisher; when omitted, losses are reported as 0 and data-label Fisher is
    rejected. The compressed model runs over the calibration tokens once,
    also without labels: its logits give `loss_after`, its first chunk's
    routing the active census.
    """
    return _build_model(cfg, model, *_calibrate([cfg], model, calib_tokens, labels))


def _calibrate(configs: list[CompressionConfig], model: MoEModel, calib_tokens, labels):
    """`compress` up to the layer builds: check every config, then calibrate
    once for all of them, as the first sets it (tokens, merge, Fisher mode,
    seed). Every label is checked, also past `calib_samples`. Returns the
    statistics, the first `calib_samples` tokens and their labels,
    `loss_before` and the timings."""
    n_experts = min(layer.n_experts for layer in model.layers)
    for cfg in configs:
        cfg.validate()
        if cfg.per_layer_ratios is not None and len(cfg.per_layer_ratios) != len(model.layers):
            raise ConfigError(f"{len(cfg.per_layer_ratios)} per-layer ratios for "
                              f"{len(model.layers)} layers")
        if cfg.trim > n_experts:
            raise ConfigError(f"trim count {cfg.trim} outside [0, {n_experts}]")
    cfg = configs[0]
    calib = as_matrix(calib_tokens, "calib_tokens")
    n_use = min(cfg.calib_samples, calib.shape[1])
    calib_use = calib[:, :n_use]
    labels_use = None if labels is None else check_labels(labels, model.num_classes, calib.shape[1])[:n_use]
    t0 = time.perf_counter()
    stats, losses = compute_layer_stats(model, calib_use, cfg, labels=labels_use)
    loss_before = 0.0 if losses is None else _batch_mean(losses, cfg.batch_size)
    return stats, calib_use, labels_use, loss_before, [("calibrate", time.perf_counter() - t0)]


@blas_threads(1)
def _build_model(cfg: CompressionConfig, model: MoEModel, stats: list, calib: np.ndarray,
                 labels, loss_before: float, timings: list):
    """`compress` after `_calibrate`: build each layer from `stats`, which
    this empties as it goes, then run the compressed model over the
    calibration tokens and report."""
    builds = []
    for l, layer in enumerate(model.layers):
        builds.append(build_compressed_layer(layer, stats[l], cfg, l))
        stats[l] = None  # a built layer's statistics are not needed again
    compressed = MoEModel(layers=[b.layer for b in builds], head=model.head)
    timings += [(stage, sum(b.seconds[stage] for b in builds)) for stage in LAYER_STAGES]

    t0 = time.perf_counter()
    losses, traces = _forward_chunks(compressed, calib, labels, cfg.batch_size)
    loss_after = 0.0 if losses is None else _batch_mean(losses, cfg.batch_size)
    timings.append(("evaluate-compressed", time.perf_counter() - t0))

    records = []
    for l, (layer, b, trace) in enumerate(zip(model.layers, builds, traces)):
        m, n = layer.weights[Role.UP].shape[1:]
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
    """Sweep global delta ratios; returns (ratio, loss, stored params) points.
    Every point is checked first, then built as `compress` builds it, all
    from one calibration: the statistics depend on no ratio."""
    configs = [dc_replace(cfg, rank_mode="ratio", delta_ratio=float(ratio), per_layer_ratios=None)
               for ratio in ratios]
    if not configs:
        return []
    stats, calib, labels, _, _ = _calibrate(configs, model, calib_tokens, labels)
    points = []
    for cfg_r in configs:
        _, rep = _build_model(cfg_r, model, list(stats), calib, labels, 0.0, [])
        stored = sum(rec.params.census_static for rec in rep.layers)
        points.append((cfg_r.delta_ratio, rep.loss_after, int(stored)))
    return points


@dataclass(frozen=True)
class SensitivityProfile:
    """Calibration loss increase per layer when only that layer is compressed."""

    baseline_loss: float
    increases: tuple[float, ...]
    probe_ratio: float
    probe_config: dict


@blas_threads(1)
def layer_sensitivity_scan(model: MoEModel, calib_tokens, labels, probe_ratio: float,
                           config=None) -> SensitivityProfile:
    """Compress one layer at a time at probe_ratio and measure the calibration
    cross-entropy increase over the dense baseline.

    One `_calibrate` gives the statistics and the baseline. Dense layer l
    runs once, batch by batch, to give layer l + 1 its input, and probe l
    runs [probe, *layers[l + 1:]] on layer l's: each batch sees the ops of
    the dense model with only layer l compressed, over the same first
    `calib_samples` tokens, and the model is never mutated. Compression uses
    `config` (defaults: mean merge, no pruning) with its rank mode forced to
    a plain ratio of probe_ratio.
    """
    if not 0.0 < probe_ratio <= 1.0:
        raise ParameterError(f"probe_ratio must be in (0, 1], got {probe_ratio}")
    if labels is None:
        raise ShapeError("the sensitivity scan needs one label per calibration token")
    cfg = config if config is not None else CompressionConfig(merge_method="mean", sparsity=0.0)
    cfg = dc_replace(cfg, rank_mode="ratio", delta_ratio=probe_ratio, per_layer_ratios=None)
    stats, x, labels, baseline, _ = _calibrate([cfg], model, calib_tokens, labels)
    increases = []
    for l, layer in enumerate(model.layers):
        probe = build_compressed_layer(layer, stats[l], cfg, l).layer
        hybrid = MoEModel(layers=[probe, *model.layers[l + 1:]], head=model.head)
        losses, _ = _forward_chunks(hybrid, x, labels, cfg.batch_size)
        increases.append(_batch_mean(losses, cfg.batch_size) - baseline)
        if l + 1 < len(model.layers):  # layer l + 1's dense input, token-major
            x = np.vstack([_chained_forward([layer], x[:, cols])[0]
                           for cols in token_chunks(x.shape[1], cfg.batch_size)]).T
    return SensitivityProfile(baseline_loss=baseline, increases=tuple(increases),
                              probe_ratio=probe_ratio, probe_config=cfg.to_dict())
