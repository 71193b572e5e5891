"""Toy mixture-of-experts network: layers, top-k routing, dense forward,
and the calibration capture.

Conventions: token batches are matrices with tokens along columns
(d_model x n_tokens). Each expert is a two-matrix FFN
E(x) = W_down @ silu(W_up @ x), with roles Up (hidden x d_model) and
Down (d_model x hidden). The router W_g and the classifier head are never
compressed, only the expert weights.

`routed_forward` is the single dispatch path for batches: it routes, groups
tokens by expert, and scatters the gated expert outputs. The dense forward,
calibration capture and the compressed runtime differ only in the
per-expert callback they pass it. The capture is the one dense pass over
calibration tokens; the Fisher (`gradients`) sweeps its records backwards.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.special import expit

from .errors import DegenerateInputError, ShapeError
from .linalg import as_matrix


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
    s = expit(z)
    return s * (1.0 + z * (1.0 - s))


@dataclass(frozen=True)
class MoELayer:
    """One MoE block: router weights plus N two-matrix experts."""

    gate: np.ndarray                      # (N, d_model)
    experts: list[dict[Role, np.ndarray]]
    top_k: int

    def __post_init__(self):
        gate = as_matrix(self.gate, "gate")
        object.__setattr__(self, "gate", gate)
        n = gate.shape[0]
        if len(self.experts) != n:
            raise ShapeError(f"gate rows {n} != expert count {len(self.experts)}")
        if not 1 <= self.top_k <= n:
            raise ShapeError(f"top_k={self.top_k} outside [1, {n}]")
        up_shape = down_shape = None
        for i, expert in enumerate(self.experts):
            if set(expert) != set(ROLES):
                raise ShapeError(f"expert {i} must define exactly the roles {[r.value for r in ROLES]}")
            up = as_matrix(expert[Role.UP], f"expert {i} up")
            down = as_matrix(expert[Role.DOWN], f"expert {i} down")
            expert[Role.UP], expert[Role.DOWN] = up, down
            if up_shape is None:
                up_shape, down_shape = up.shape, down.shape
            elif up.shape != up_shape or down.shape != down_shape:
                raise ShapeError(f"expert {i} shapes differ from expert 0")
            if up.shape[1] != gate.shape[1]:
                raise ShapeError(f"expert {i} up cols {up.shape[1]} != d_model {gate.shape[1]}")
            if down.shape[1] != up.shape[0]:
                raise ShapeError(f"expert {i} down cols {down.shape[1]} != hidden {up.shape[0]}")

    @property
    def n_experts(self) -> int:
        return self.gate.shape[0]

    @property
    def d_model(self) -> int:
        return self.gate.shape[1]

    @property
    def hidden(self) -> int:
        return self.experts[0][Role.UP].shape[0]

    @property
    def d_out(self) -> int:
        return self.experts[0][Role.DOWN].shape[0]


@dataclass(frozen=True)
class MoEModel:
    """Stack of MoE layers followed by a linear classifier head."""

    layers: list[MoELayer]
    head: np.ndarray  # (num_classes, d_model of last layer output)

    def __post_init__(self):
        if not self.layers:
            raise ShapeError("model needs at least one layer")
        head = as_matrix(self.head, "head")
        object.__setattr__(self, "head", head)
        if head.shape[0] < 2:
            raise ShapeError("head must produce at least 2 classes")
        d = self.layers[0].d_model
        for i, layer in enumerate(self.layers):
            if layer.d_model != d:
                raise ShapeError(f"layer {i} expects d_model {layer.d_model}, chain provides {d}")
            d = layer.d_out
        if head.shape[1] != d:
            raise ShapeError(f"head cols {head.shape[1]} != final layer output dim {d}")

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
    """One layer of the calibration forward: input `x`, its routing, and per
    routed expert i, acts[i] = (rows, W_up x[:, rows]) and grams[role][i] =
    X_i X_i^T, with X_i = x[:, rows] for Up and silu(W_up x[:, rows]) for Down.
    """

    x: np.ndarray
    trace: RoutingTrace
    acts: dict[int, tuple[np.ndarray, np.ndarray]]
    grams: dict[Role, list[np.ndarray]]

    def total_gram(self, role: Role) -> np.ndarray:
        """Sum of per-expert Grams, in expert order (deterministic)."""
        out = np.zeros_like(self.grams[role][0])
        for g in self.grams[role]:
            out += g
        return out


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

def routed_forward(layer, x_batch: np.ndarray, expert_fn) -> tuple[np.ndarray, RoutingTrace]:
    """Route a batch through one layer: y = sum_i G(x)_i expert_fn(i, rows).

    `layer` supplies gate, top_k, n_experts and d_out. For every expert that
    received tokens, in ascending index order, expert_fn(i, rows) gets the
    ascending token columns routed to expert i and returns that expert's
    (d_out, len(rows)) outputs, which are added into y scaled by their gates.
    The core scales the returned array in place, so expert_fn must return a
    fresh array, never a view of, or a reference to, data it keeps.
    """
    selected, weights = route_batch(layer.gate, layer.top_k, x_batch)
    trace = _trace_from_routing(selected, weights, layer.n_experts)
    # A stable sort of the flattened (T, k) selections lists each expert's
    # (token, slot) pairs in ascending token order.
    order = np.argsort(selected.ravel(), kind="stable")
    rows_sorted = order // layer.top_k
    weights_sorted = weights.ravel()[order]
    y = np.zeros((layer.d_out, x_batch.shape[1]))
    stop = 0
    for i, count in enumerate(trace.counts.tolist()):
        if count:
            start, stop = stop, stop + count
            rows = rows_sorted[start:stop]
            out = expert_fn(i, rows)
            out *= weights_sorted[start:stop]
            y[:, rows] += out
    return y, trace


def _layer_input(layer, x_batch) -> np.ndarray:
    xb = as_matrix(x_batch, "x_batch")
    if xb.shape[0] != layer.d_model:
        raise ShapeError(f"x_batch rows {xb.shape[0]} != d_model {layer.d_model}")
    return xb


def layer_forward_dense(layer: MoELayer, x_batch: np.ndarray) -> tuple[np.ndarray, RoutingTrace]:
    """One dense MoE layer over a token batch: y = sum_i G(x)_i E_i(x)."""
    xb = _layer_input(layer, x_batch)

    def expert(i, rows):
        h = layer.experts[i][Role.UP] @ xb[:, rows]
        return layer.experts[i][Role.DOWN] @ silu(h, out=h)

    return routed_forward(layer, xb, expert)


def moe_forward_dense(model: MoEModel, x_batch) -> tuple[np.ndarray, list[RoutingTrace]]:
    """Full dense forward: chained MoE layers, then head logits.

    Returns (logits (num_classes, T), routing trace per layer).
    """
    h = as_matrix(x_batch, "x_batch")
    traces = []
    for layer in model.layers:
        h, trace = layer_forward_dense(layer, h)
        traces.append(trace)
    return model.head @ h, traces


def expert_frequency(trace: RoutingTrace) -> np.ndarray:
    """Per-expert selection frequency; proportional to counts, sums to 1."""
    total = int(trace.counts.sum())
    if total < 1:
        raise DegenerateInputError("routing trace covers no tokens")
    return trace.counts / float(total)


# ---------------------------------------------------------------------------
# calibration capture
# ---------------------------------------------------------------------------

def capture_calibration(model: MoEModel, calib) -> tuple[np.ndarray, list[LayerCapture]]:
    """The one dense forward over calibration tokens: the final hidden state
    and a `LayerCapture` per layer, which supplies the Grams, the routing
    frequencies and the Fisher's reverse sweep. Accumulation order is layer
    -> expert -> token, so results are run-to-run identical.
    """
    xb = as_matrix(calib, "calibration tokens")
    if xb.shape[1] < 1:
        raise DegenerateInputError("empty calibration batch")
    captures: list[LayerCapture] = []
    h = xb
    for layer in model.layers:
        acts = {}
        grams = {Role.UP: [np.zeros((layer.d_model, layer.d_model)) for _ in range(layer.n_experts)],
                 Role.DOWN: [np.zeros((layer.hidden, layer.hidden)) for _ in range(layer.n_experts)]}

        def expert(i, rows):
            xi = h[:, rows]
            a = layer.experts[i][Role.UP] @ xi
            acts[i] = (rows, a)
            hid = silu(a)
            grams[Role.UP][i] += xi @ xi.T
            grams[Role.DOWN][i] += hid @ hid.T
            return layer.experts[i][Role.DOWN] @ hid

        y, trace = routed_forward(layer, h, expert)
        captures.append(LayerCapture(x=h, trace=trace, acts=acts, grams=grams))
        h = y
    return h, captures
