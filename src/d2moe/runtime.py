"""Compressed inference and parameter accounting.

A compressed layer carries one pruned base per role plus per-expert low-rank
delta factors. Per token the runtime computes the shared masked-base path
once and adds each selected expert's rank-k correction:

    u_i = W_b_up^masked x + du_i (dv_i x)      h_i = silu(u_i)
    y_i = W_b_down^masked h_i + du'_i (dv'_i h_i)
    y   = sum_{i in TopK} G(x)_i y_i

Trimmed experts have no factors and contribute through the base path only.
Dynamic pruning masks are recomputed per batch and never stored. Parameter
accounting routes nothing: the active census is arithmetic on a layer and
the `RoutingTrace` of a forward already run through it (in `compress`, the
compressed pass over the first `batch_size` calibration tokens).

The forward runs token-major (see `moe`). The masked Up-base product
(T, hidden) is computed once per batch. Filling the routed core's slot
buffer gathers that product's rows for every (token, expert) slot, adds each
expert's Up correction to its block, applies silu once, writes the masked
Down-base product of all slots with one GEMM, since that base is shared,
and adds each expert's Down correction to its block. Every weight is read
through a transposed view; none is copied or stored transposed.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ParameterError, ShapeError
from .factorize import DeltaFactor
from .linalg import as_matrix
from .moe import (MoELayer, Role, RoutingTrace, _checked_top_k, _layer_input, chained_head,
                  layer_forward_dense, routed_forward, silu)
from .pruning import PrunedBase, _active_positions, _column_sumsq


@dataclass(frozen=True)
class CompressedLayer:
    """Pruned per-role base, per-expert delta factors, and the untouched router."""

    gate: np.ndarray                            # (N, d_model), never compressed
    base: dict[Role, PrunedBase]
    deltas: dict[int, dict[Role, DeltaFactor]]  # absent key = trimmed expert
    top_k: int

    def __post_init__(self):
        gate = as_matrix(self.gate, "gate")
        n, d = gate.shape
        object.__setattr__(self, "gate", gate)
        object.__setattr__(self, "top_k", _checked_top_k(self.top_k, n))
        if set(self.base) != {Role.UP, Role.DOWN}:
            raise ShapeError("base must define exactly the Up and Down roles")
        up, down = self.base[Role.UP], self.base[Role.DOWN]
        if up.total_cols != d:
            raise ShapeError(f"up base covers {up.total_cols} columns, d_model is {d}")
        hidden = up.kept.shape[0]
        if down.total_cols != hidden:
            raise ShapeError(f"down base covers {down.total_cols} columns, hidden is {hidden}")
        for i, factors in self.deltas.items():
            if not 0 <= i < n:
                raise ShapeError(f"delta factor for unknown expert {i}")
            if factors[Role.UP].shape != (hidden, d):
                raise ShapeError(f"expert {i} up factor shape {factors[Role.UP].shape} != ({hidden}, {d})")
            if factors[Role.DOWN].shape != (down.kept.shape[0], hidden):
                raise ShapeError(
                    f"expert {i} down factor shape {factors[Role.DOWN].shape} != "
                    f"({down.kept.shape[0]}, {hidden})"
                )

    @property
    def trimmed(self) -> tuple[int, ...]:
        """Experts without delta factors, ascending; they run on the base alone."""
        return tuple(i for i in range(self.n_experts) if i not in self.deltas)

    @property
    def n_experts(self) -> int:
        return self.gate.shape[0]

    @property
    def d_model(self) -> int:
        return self.gate.shape[1]

    @property
    def hidden(self) -> int:
        return self.base[Role.UP].kept.shape[0]

    @property
    def d_out(self) -> int:
        return self.base[Role.DOWN].kept.shape[0]


@dataclass(frozen=True)
class CompressedModel:
    """Layer stack (compressed, or dense for hybrid probes) plus the head."""

    layers: list  # CompressedLayer | MoELayer
    head: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "head", chained_head(self.layers, self.head))


def _base_path(layer: CompressedLayer, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Active Up positions, active Down positions and the masked Up-base
    product (T, hidden) for one checked token-major batch x (T, d_model).

    Positions index each base's kept columns. The Up mask scores the batch
    inputs; the Down mask scores the base-path hidden activations
    silu(W_b_up^masked x) so it is expert-independent.
    """
    up, down = layer.base[Role.UP], layer.base[Role.DOWN]
    up_pos = _active_positions(up, _column_sumsq(x)[up.kept_col_ids])
    u_base = x.take(up.kept_col_ids[up_pos], axis=1) @ up.kept[:, up_pos].T
    down_pos = _active_positions(down, _column_sumsq(silu(u_base))[down.kept_col_ids])
    return up_pos, down_pos, u_base


def compressed_forward(layer: CompressedLayer, x_batch) -> tuple[np.ndarray, RoutingTrace]:
    """Eq.-style compressed layer forward over one (d_model, T) batch.

    The input is checked once; dynamic masks and the masked Up-base product
    are computed once for the batch; gating is identical to the dense router.
    Returns (y_batch (d_out, T), routing trace).
    """
    x = _layer_input(layer, x_batch)
    _, down_pos, u_base = _base_path(layer, x)
    down = layer.base[Role.DOWN]
    down_masked_t = down.kept[:, down_pos].T
    down_ids = down.kept_col_ids[down_pos]

    # activation gathers use take: it is faster than fancy indexing on these
    # small arrays, and a column take comes back C-order, not Fortran order
    def fill(rows, groups, slots):
        h = u_base.take(rows, axis=0)
        xs = x.take(rows, axis=0)
        for i, start, stop in groups:
            factors = layer.deltas.get(i)
            if factors is not None:
                f = factors[Role.UP]
                h[start:stop] += (xs[start:stop] @ f.v.T) @ f.u.T
        silu(h, out=h)
        # the masked Down base is shared by every expert: one GEMM over all slots
        np.matmul(h.take(down_ids, axis=1), down_masked_t, out=slots)
        for i, start, stop in groups:
            factors = layer.deltas.get(i)
            if factors is not None:
                f = factors[Role.DOWN]
                slots[start:stop] += (h[start:stop] @ f.v.T) @ f.u.T

    y, trace = routed_forward(layer, x, fill)
    return y.T, trace


def compressed_model_forward(model: CompressedModel, x_batch) -> tuple[np.ndarray, list[RoutingTrace]]:
    """Chained forward over one batch; layers may be compressed or dense."""
    h = x_batch
    traces = []
    for layer in model.layers:
        if isinstance(layer, MoELayer):
            h, trace = layer_forward_dense(layer, h)
        else:
            h, trace = compressed_forward(layer, h)
        traces.append(trace)
    return model.head @ h, traces


def trim_deltas(layer: CompressedLayer, freq, t: int) -> CompressedLayer:
    """Drop the delta factors of the t lowest-frequency experts.

    Ties trim the lower expert index first; gating and base are unchanged.
    """
    f = np.asarray(freq, dtype=np.float64)
    if f.shape != (layer.n_experts,):
        raise ShapeError(f"freq shape {f.shape} != ({layer.n_experts},)")
    if not 0 <= t <= layer.n_experts:
        raise ParameterError(f"trim count {t} outside [0, {layer.n_experts}]")
    if t == 0:
        return layer
    order = np.argsort(f, kind="stable")  # ascending frequency, lower index first
    to_trim = set(int(i) for i in order[:t])
    return replace(layer, deltas={i: f for i, f in layer.deltas.items() if i not in to_trim})


# ---------------------------------------------------------------------------
# parameter accounting
# ---------------------------------------------------------------------------

def closed_form_params(count: int, m: float, p: float,
                       base_fraction: float) -> tuple[float, float, float]:
    """(original, total, literal) parameters of `count` experts of m each.

    Static storage takes count = n and base_fraction = s/2; active weights
    per token take count = k_top and base_fraction = s. `total` is the
    census-consistent count, count*p*m of factors plus the surviving base
    (1 - base_fraction)*m; `literal` is the published shorthand, which books
    the base as base_fraction*m instead.
    """
    return count * m, count * p * m + (1.0 - base_fraction) * m, (count * p + base_fraction) * m


@dataclass(frozen=True)
class ParamReport:
    """Per-layer accounting: closed formulas next to the exact census."""

    n: int
    m: int
    k_top: int
    p: float
    s: float
    original_static: float
    compressed_static: float
    original_active: float
    compressed_active: float
    literal_static: float
    literal_active: float
    literal_differs: bool
    census_static: int
    census_active_per_token: float


def census_static_params(layer: CompressedLayer) -> int:
    """Entries actually stored for the expert path: kept base + factors."""
    total = sum(layer.base[role].kept.size for role in (Role.UP, Role.DOWN))
    for factors in layer.deltas.values():
        for role in (Role.UP, Role.DOWN):
            total += factors[role].u.size + factors[role].v.size
    return int(total)


def census_active_params(layer: CompressedLayer, trace: RoutingTrace) -> float:
    """Average active multiply-weights per token of the forward call that
    routed `trace` through `layer`: every token keeps the kept base columns
    less the dynamic quota, plus its routed experts' factor entries."""
    if trace.counts.shape != (layer.n_experts,):
        raise ShapeError(f"trace counts shape {trace.counts.shape} != ({layer.n_experts},)")
    up, down = layer.base[Role.UP], layer.base[Role.DOWN]
    base_per_token = (layer.hidden * (up.kept_col_ids.size - up.dynamic_quota)
                      + layer.d_out * (down.kept_col_ids.size - down.dynamic_quota))
    factor_total = sum(int(trace.counts[i]) * sum(f[r].u.size + f[r].v.size for r in (Role.UP, Role.DOWN))
                       for i, f in layer.deltas.items())
    return base_per_token + factor_total / trace.n_tokens


def param_report(layer: CompressedLayer, p: float, s: float, trace: RoutingTrace) -> ParamReport:
    """Assemble the accounting report for one compressed layer; `trace` is
    its routing in the forward call the active census counts."""
    d, hidden, d_out = layer.d_model, layer.hidden, layer.d_out
    m = hidden * d + d_out * hidden  # per-expert parameters over both roles
    n = layer.n_experts
    original_static, compressed_static, literal_static = closed_form_params(n, m, p, s / 2.0)
    original_active, compressed_active, literal_active = closed_form_params(layer.top_k, m, p, s)
    return ParamReport(
        n=n, m=m, k_top=layer.top_k, p=p, s=s,
        original_static=original_static, compressed_static=compressed_static,
        original_active=original_active, compressed_active=compressed_active,
        literal_static=literal_static, literal_active=literal_active,
        literal_differs=bool(literal_static != compressed_static
                             or literal_active != compressed_active),
        census_static=census_static_params(layer),
        census_active_per_token=census_active_params(layer, trace),
    )
