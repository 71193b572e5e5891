"""Toy mixture-of-experts network: layers, top-k routing, dense forward,
and the calibration capture.

Conventions: at the public boundary token batches are matrices with tokens
along columns (d_model x n_tokens); every exported forward takes and returns
that layout. Inside a layer call the batch is token-major, a C-order
(n_tokens, d_model) array, so an expert's tokens are one gather of
contiguous rows; a layer transposes once on entry and returns its output as
the transposed view of a token-major array, which the next layer takes
without a copy. Each expert is a two-matrix FFN
E(x) = W_down @ silu(W_up @ x), with roles Up (hidden x d_model) and
Down (d_model x hidden); a layer holds each role's weights of all its
experts as one (E, ., .) stack, and token-major code reads every expert's
weights through transposed views. The router W_g and the classifier head are never
compressed, only the expert weights.

`routed_forward` is the single dispatch path for batches: it routes, groups
the (token, expert) pairs by expert into one slot buffer, and combines the
gated slots per token. The dense forward, calibration capture and the
compressed runtime differ only in the callback that fills the slots. The
capture is the dense pass over one chunk of calibration tokens; the Fisher
(`gradients`) sweeps its records backwards. Passes over a whole token set
(`pipeline.compute_layer_stats`, the fixture's label pass) run in
`token_chunks` of TOKEN_CHUNK tokens, so their peak memory is set by one
chunk, not by the token count.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DegenerateInputError, ShapeError
from .linalg import as_matrix, as_stack

TOKEN_CHUNK = 512


class Role(Enum):
    """Which weight slot of an expert a matrix occupies."""

    UP = "up"
    DOWN = "down"


ROLES = (Role.UP, Role.DOWN)


def silu(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """z * sigmoid(z), computed as z / (1 + exp(-z)) with one temporary.

    exp's argument is clipped at 709 so it never overflows and no floating
    point warning is raised; below z = -709 the result is z * e^-709 instead
    of about 0, under 1e-303 in magnitude for z >= -1e4. `out` may be `z`
    itself: the temporary is always fresh, so `z` is read before `out` is
    written.
    """
    t = np.negative(z)
    np.minimum(t, 709.0, out=t)
    np.exp(t, out=t)
    t += 1.0
    return np.divide(z, t, out=t if out is None else out)


def silu_grad(z: np.ndarray) -> np.ndarray:
    """d silu / dz = s (1 + z (1 - s)), s = 1 / (1 + exp(-z)) from the same
    clipped exp as `silu`, so no warning is raised. The steps are repeated,
    not shared, so that the forward's `silu` makes no extra call; they run
    in place, with two temporaries."""
    s = np.negative(z)
    np.minimum(s, 709.0, out=s)
    np.exp(s, out=s)
    s += 1.0
    np.reciprocal(s, out=s)
    t = np.subtract(1.0, s)
    t *= z
    t += 1.0
    t *= s
    return t


def _checked_top_k(top_k, n_experts: int) -> int:
    """`top_k` as a Python int in [1, n_experts]; a bool, a float or any other
    non-integer is a ShapeError, as is a value outside the range."""
    if isinstance(top_k, bool) or not isinstance(top_k, (int, np.integer)):
        raise ShapeError(f"top_k must be an integer, got {top_k!r}")
    if not 1 <= top_k <= n_experts:
        raise ShapeError(f"top_k={top_k} outside [1, {n_experts}]")
    return int(top_k)


@dataclass(frozen=True)
class MoELayer:
    """One MoE block: router weights (N, d_model) and per role one weight
    stack, weights[Role.UP] (N, hidden, d_model) and weights[Role.DOWN]
    (N, d_out, hidden); weights[role][i] is expert i's matrix. Each stack
    is checked once by `linalg.as_stack` (a C-order float64 stack is kept,
    not copied) into a dict of the layer's own; the caller's is not touched.
    """

    gate: np.ndarray
    weights: dict[Role, np.ndarray]
    top_k: int

    def __post_init__(self):
        gate = as_matrix(self.gate, "gate")
        if not isinstance(self.weights, dict) or set(self.weights) != set(ROLES):
            raise ShapeError(f"weights must define exactly the roles {[r.value for r in ROLES]}")
        up = as_stack(self.weights[Role.UP], "up weights")
        down = as_stack(self.weights[Role.DOWN], "down weights")
        n = gate.shape[0]
        if up.shape[0] != n or down.shape[0] != n:
            raise ShapeError(f"gate rows {n} != expert count {up.shape[0]} (up), {down.shape[0]} (down)")
        if up.shape[2] != gate.shape[1]:
            raise ShapeError(f"up cols {up.shape[2]} != d_model {gate.shape[1]}")
        if down.shape[2] != up.shape[1]:
            raise ShapeError(f"down cols {down.shape[2]} != hidden {up.shape[1]}")
        object.__setattr__(self, "gate", gate)
        object.__setattr__(self, "weights", {Role.UP: up, Role.DOWN: down})
        object.__setattr__(self, "top_k", _checked_top_k(self.top_k, n))

    @property
    def n_experts(self) -> int:
        return self.gate.shape[0]

    @property
    def d_model(self) -> int:
        return self.gate.shape[1]

    @property
    def hidden(self) -> int:
        return self.weights[Role.UP].shape[1]

    @property
    def d_out(self) -> int:
        return self.weights[Role.DOWN].shape[1]


def chained_head(layers, head) -> np.ndarray:
    """`head` as a checked matrix, once the layer chain is checked: each
    layer reads the previous layer's output and the head reads the last's.
    Layers only need `d_model` and `d_out`, so dense and compressed mix."""
    if not layers:
        raise ShapeError("model needs at least one layer")
    head = as_matrix(head, "head")
    if head.shape[0] < 2:
        raise ShapeError("head must produce at least 2 classes")
    d = layers[0].d_model
    for i, layer in enumerate(layers):
        if layer.d_model != d:
            raise ShapeError(f"layer {i} expects d_model {layer.d_model}, chain provides {d}")
        d = layer.d_out
    if head.shape[1] != d:
        raise ShapeError(f"head cols {head.shape[1]} != final layer output dim {d}")
    return head


@dataclass(frozen=True)
class MoEModel:
    """Stack of MoE layers followed by a linear classifier head."""

    layers: list[MoELayer]
    head: np.ndarray  # (num_classes, d_model of last layer output)

    def __post_init__(self):
        object.__setattr__(self, "head", chained_head(self.layers, self.head))

    @property
    def num_classes(self) -> int:
        return self.head.shape[0]


@dataclass(frozen=True)
class RoutingTrace:
    """Per-token selections/weights and per-expert selection counts."""

    selected: np.ndarray  # (T, k) expert indices, descending logit order
    weights: np.ndarray   # (T, k) gating weights, sum to 1 per token
    counts: np.ndarray    # (N,) selection counts

    @property
    def n_tokens(self) -> int:
        return self.selected.shape[0]


@dataclass(frozen=True)
class LayerCapture:
    """One layer of the calibration forward: input `x` (d_model, T), its
    routing, per routed expert i the ascending token rows[i] it received,
    and per role an (E, n, n) Gram stack laid out like the weights, to
    which the capture added X_i^T X_i at grams[role][i], where
    x_i = x[:, rows[i]].T is token-major and X_i is x_i for Up and
    silu(x_i @ up[i]^T) for Down (up = weights[Role.UP]); a never-routed
    expert's Gram gets nothing. The Up pre-activations x_i @ up[i]^T are
    not kept: the reverse sweep recomputes them, to the byte, one expert at
    a time. `x` is the transposed view of the token-major input, so `x.T`
    is C-order.
    """

    x: np.ndarray
    trace: RoutingTrace
    rows: dict[int, np.ndarray]
    grams: dict[Role, np.ndarray]


# ---------------------------------------------------------------------------
# routing
# ---------------------------------------------------------------------------

def _softmax(z: np.ndarray) -> np.ndarray:
    e = np.exp(z - np.max(z))
    return e / np.sum(e)


def route_batch(gate_w: np.ndarray, top_k: int, x_batch: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Routing for a token batch: (selected (T,k) indices, weights (T,k)).

    Each token keeps its top_k largest logits in descending order, ties going
    to the lower expert index, and its weights are the softmax over those.
    """
    logits = gate_w @ x_batch  # (N, T)
    selected = np.ascontiguousarray(np.argsort(-logits, axis=0, kind="stable")[:top_k].T)
    top = logits[selected, np.arange(x_batch.shape[1])[:, None]]  # (T, k)
    e = np.exp(top - top.max(axis=1, keepdims=True))
    return selected, e / e.sum(axis=1, keepdims=True)


def _trace_from_routing(selected: np.ndarray, weights: np.ndarray, n_experts: int) -> RoutingTrace:
    counts = np.bincount(selected.ravel(), minlength=n_experts).astype(np.int64, copy=False)
    return RoutingTrace(selected=selected, weights=weights, counts=counts)


# ---------------------------------------------------------------------------
# forward
# ---------------------------------------------------------------------------

def routed_forward(layer, x: np.ndarray, fill_slots) -> tuple[np.ndarray, RoutingTrace]:
    """Route a token-major batch x (T, d_model) through one layer:
    y = sum_i G(x)_i E_i(x), returned token-major (T, d_out).

    `layer` supplies gate, top_k, n_experts and d_out. The T*k (token,
    expert) pairs are grouped into one (T*k, d_out) slot buffer, experts in
    ascending index order and each expert's tokens in ascending order.
    fill_slots(rows, groups, slots) gets `rows`, the token row of every slot,
    and `groups`, one (i, start, stop) per expert that received tokens, and
    writes E_i of the tokens rows[start:stop] into slots[start:stop]. The
    buffer is then scaled once by the gates, and each token's k slots are
    summed from zeros in ascending expert order, the order in which a
    per-expert scatter would add them.
    """
    k = layer.top_k
    selected, weights = route_batch(layer.gate, k, x.T)
    trace = _trace_from_routing(selected, weights, layer.n_experts)
    # A stable sort of the flattened (T, k) selections lists each expert's
    # (token, slot) pairs in ascending token order.
    order = np.argsort(selected.ravel(), kind="stable")
    groups = []
    stop = 0
    for i, count in enumerate(trace.counts.tolist()):
        if count:
            start, stop = stop, stop + count
            groups.append((i, start, stop))
    slots = np.empty((order.size, layer.d_out))
    fill_slots(order // k, groups, slots)
    slots *= weights.take(order)[:, None]
    # where each (token, slot) pair landed; sorted per token, a token's slots
    # come in ascending expert order
    where = np.empty_like(order)
    where[order] = np.arange(order.size)
    where = np.sort(where.reshape(-1, k), axis=1)
    y = np.zeros((x.shape[0], layer.d_out))
    for j in range(k):
        y += slots.take(where[:, j], axis=0)
    return y, trace


def _layer_input(layer, x_batch, name: str = "x_batch") -> np.ndarray:
    """The checked token-major (T, d_model) form of a (d_model, T) batch: a
    view when x_batch is already the transpose of a C-order array (a layer
    output), else one copy."""
    x = as_matrix(np.asarray(x_batch).T, name)
    if x.shape[1] != layer.d_model:
        raise ShapeError(f"{name} rows {x.shape[1]} != d_model {layer.d_model}")
    return x


def layer_forward_dense(layer: MoELayer, x_batch: np.ndarray) -> tuple[np.ndarray, RoutingTrace]:
    """One dense MoE layer over a token batch: y = sum_i G(x)_i E_i(x)."""
    x = _layer_input(layer, x_batch)
    up, down = layer.weights[Role.UP], layer.weights[Role.DOWN]

    def fill(rows, groups, slots):
        for i, start, stop in groups:
            h = x.take(rows[start:stop], axis=0) @ up[i].T
            np.matmul(silu(h, out=h), down[i].T, out=slots[start:stop])

    y, trace = routed_forward(layer, x, fill)
    return y.T, trace


def moe_forward_dense(model: MoEModel, x_batch) -> tuple[np.ndarray, list[RoutingTrace]]:
    """Full dense forward: chained MoE layers, then head logits.

    Returns (logits (num_classes, T), routing trace per layer).
    """
    h = x_batch
    traces = []
    for layer in model.layers:
        h, trace = layer_forward_dense(layer, h)
        traces.append(trace)
    return model.head @ h, traces


def expert_frequency(counts: np.ndarray) -> np.ndarray:
    """Per-expert selection frequency from selection counts (a trace's, or
    their sum over chunks); proportional to counts, sums to 1."""
    total = int(counts.sum())
    if total < 1:
        raise DegenerateInputError("routing trace covers no tokens")
    return counts / float(total)


def token_chunks(n_tokens: int) -> list[slice]:
    """Column slices of consecutive TOKEN_CHUNK-token chunks covering
    n_tokens tokens, in order; the last may be shorter."""
    return [slice(start, min(start + TOKEN_CHUNK, n_tokens))
            for start in range(0, n_tokens, TOKEN_CHUNK)]


# ---------------------------------------------------------------------------
# calibration capture
# ---------------------------------------------------------------------------

def capture_calibration(model: MoEModel, calib, grams=None) -> tuple[np.ndarray, list[LayerCapture]]:
    """The dense forward over calibration tokens (d_model, T), one chunk of
    them in `pipeline.compute_layer_stats`: the final hidden state (d_out, T)
    and a `LayerCapture` per layer, which supplies the Grams, the routing
    counts and the Fisher's reverse sweep. The Grams are added into
    `grams`, per layer a dict of Gram stacks (the running totals over
    chunks), or into zeros when it is None.
    Accumulation order is layer -> expert -> token, so results are
    run-to-run identical.
    """
    h = _layer_input(model.layers[0], calib, "calibration tokens")
    captures: list[LayerCapture] = []
    if grams is None:
        grams = [{Role.UP: np.zeros((layer.n_experts, layer.d_model, layer.d_model)),
                  Role.DOWN: np.zeros((layer.n_experts, layer.hidden, layer.hidden))}
                 for layer in model.layers]
    for layer, gram in zip(model.layers, grams):
        routed = {}
        up, down = layer.weights[Role.UP], layer.weights[Role.DOWN]

        def fill(rows, groups, slots):
            for i, start, stop in groups:
                routed[i] = rows[start:stop]
                xi = h.take(routed[i], axis=0)
                hid = xi @ up[i].T
                silu(hid, out=hid)
                gram[Role.UP][i] += xi.T @ xi
                gram[Role.DOWN][i] += hid.T @ hid
                np.matmul(hid, down[i].T, out=slots[start:stop])

        y, trace = routed_forward(layer, h, fill)
        captures.append(LayerCapture(x=h.T, trace=trace, rows=routed, grams=gram))
        h = y
    return h.T, captures
