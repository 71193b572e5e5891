"""Reverse-mode gradients of the calibration log-likelihood and Fisher
information accumulation.

The discrete top-k routing choice is treated as locally constant (it is
piecewise constant in the parameters, so this is the exact gradient almost
everywhere); the softmax over the surviving logits is differentiated exactly.

Both callers run the same code: the calibration forward
`moe.capture_calibration`, which records every layer's input, routing and
Up pre-activations, then one reverse sweep over the layers
(`_reverse_sweep`). `fisher_accumulate` takes that capture from its caller,
so the Grams, the routing frequencies and the Fisher all come from one dense
pass over the calibration tokens. A token routed to expert i contributes a
single outer product to each of that expert's gradients, ebar hid^T (Down)
and abar x^T (Up). `backward_logloss` runs the sweep on one token and forms
those outer products. `fisher_accumulate` runs it on the whole calibration
batch and sums their elementwise squares over each expert's routed tokens in
closed form:

    F_down[i] = (Ebar∘Ebar) (Hid∘Hid)^T,    F_up[i] = (Abar∘Abar) (X∘X)^T,

with those tokens along the columns of each matrix. sampled-label mode draws
every label from one `u = rng.random(T)`: label t is the number of entries
of `cdf_t` at or below u[t], where `cdf_t` is `cumsum(p_t)` divided by its
last entry. That is exactly what `rng.choice(classes, p=p_t)` returns when
called once per token in calibration order.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ParameterError, ShapeError
from .moe import MoEModel, Role, ROLES, _softmax, capture_calibration, silu, silu_grad

FISHER_MODES = ("sampled-label", "data-label")


@dataclass
class GradientSet:
    """Per-parameter gradients mirroring the model structure."""

    gate_grads: list[np.ndarray]                      # per layer (N, d)
    expert_grads: list[list[dict[Role, np.ndarray]]]  # per layer, expert, role
    head_grad: np.ndarray


@dataclass
class FisherInfo:
    """Elementwise accumulated squared gradients per layer/expert/role.

    Entries are averages over sample_count calibration inputs; experts never
    routed during calibration have exactly-zero blocks.
    """

    fisher: list[list[dict[Role, np.ndarray]]]
    sample_count: int
    mode: str


def backward_logloss(model: MoEModel, x, y: int) -> GradientSet:
    """Exact analytic gradient of log softmax(head @ MoE(x))[y] with respect
    to every gate, expert, and head entry."""
    xv = np.ascontiguousarray(x, dtype=np.float64)
    if xv.ndim != 1 or xv.shape[0] != model.layers[0].d_model:
        raise ShapeError(f"x must be a length-{model.layers[0].d_model} vector")
    if not 0 <= y < model.num_classes:
        raise ParameterError(f"label {y} outside [0, {model.num_classes})")

    h, captures = capture_calibration(model, xv[:, None])
    lbar = -_softmax((model.head @ h)[:, 0])
    lbar[y] += 1.0  # d log p(y|x) / d logits = onehot(y) - softmax
    lbar = lbar[:, None]

    expert_grads = [
        [{role: np.zeros_like(expert[role]) for role in ROLES} for expert in layer.experts]
        for layer in model.layers
    ]

    def expert(l, i, x_i, ebar, hid, abar):
        expert_grads[l][i][Role.DOWN] = ebar @ hid.T
        expert_grads[l][i][Role.UP] = abar @ x_i.T

    zbars = _reverse_sweep(model, captures, model.head.T @ lbar, expert)
    gate_grads = [zbar @ cap.x.T for zbar, cap in zip(zbars, captures)]
    return GradientSet(gate_grads=gate_grads, expert_grads=expert_grads, head_grad=lbar @ h.T)


def check_labels(labels, num_classes: int, n_tokens: int) -> np.ndarray:
    """One int64 label per token in [0, num_classes): a wrong shape raises
    ShapeError, non-integral or out-of-range labels ParameterError."""
    y = np.asarray(labels)
    if y.shape != (n_tokens,):
        raise ShapeError(f"labels shape {y.shape} does not match {n_tokens} tokens")
    if y.dtype.kind not in "iuf" or (y.dtype.kind == "f" and not np.all(np.trunc(y) == y)):
        raise ParameterError("labels must be integral class indices")
    if np.any((y < 0) | (y >= num_classes)):
        raise ParameterError(f"labels must lie in [0, {num_classes})")
    return y.astype(np.int64, copy=False)


def fisher_accumulate(model: MoEModel, capture, mode: str = "sampled-label",
                      seed: int = 0, labels=None) -> FisherInfo:
    """Average elementwise squared log-likelihood gradients over calibration
    tokens.

    `capture` is `moe.capture_calibration(model, calib)`; no forward runs
    here. sampled-label mode draws one label per input from the model's own
    predictive distribution (seeded, in calibration order); data-label mode
    uses the provided labels. Non-finite output probabilities raise
    NumericalError.
    """
    if mode not in FISHER_MODES:
        raise ParameterError(f"fisher mode must be one of {FISHER_MODES}, got {mode!r}")
    hidden, captures = capture
    n_tokens = hidden.shape[1]
    if mode == "data-label":
        if labels is None:
            raise ParameterError("data-label mode requires labels")
        labels = check_labels(labels, model.num_classes, n_tokens)

    logits = model.head @ hidden
    e = np.exp(logits - np.max(logits, axis=0))
    p = e / np.sum(e, axis=0)
    bad = np.flatnonzero(~np.all(np.isfinite(p), axis=0))
    if bad.size:
        raise NumericalError(f"output probabilities are not finite for {bad.size} of {n_tokens} "
                             f"calibration tokens (first: token {bad[0]}); the logits overflow")
    if mode == "sampled-label":
        labels = _draw_labels(p, np.random.default_rng(seed))

    lbar = -p
    lbar[labels, np.arange(n_tokens)] += 1.0  # d log p(y|x) / d logits = onehot(y) - softmax

    fisher = [[{role: np.zeros_like(expert[role]) for role in ROLES} for expert in layer.experts]
              for layer in model.layers]

    def expert(l, i, x_i, ebar, hid, abar):
        fisher[l][i][Role.DOWN] = (ebar * ebar) @ (hid * hid).T / n_tokens
        fisher[l][i][Role.UP] = (abar * abar) @ (x_i * x_i).T / n_tokens

    _reverse_sweep(model, captures, model.head.T @ lbar, expert)
    return FisherInfo(fisher=fisher, sample_count=n_tokens, mode=mode)


def _reverse_sweep(model: MoEModel, captures, ybar: np.ndarray, expert_fn) -> list[np.ndarray]:
    """Backpropagate ybar, the gradient at the final hidden state, from the
    last layer down. Returns each layer's gate-logit gradient zbar (N, T),
    zero off each token's selection.

    For every routed expert i of layer l, in ascending order, calls
    expert_fn(l, i, x_i, ebar, hid, abar) with that expert's tokens along the
    columns. Token t's gradient is ebar_t hid_t^T for the expert's Down
    weight and abar_t x_t^T for its Up weight.
    """
    cols = np.arange(ybar.shape[1])
    zbars = [None] * len(model.layers)
    for l in range(len(model.layers) - 1, -1, -1):
        layer = model.layers[l]
        xin, trace, acts = captures[l].x, captures[l].trace, captures[l].acts
        g = np.zeros((layer.n_experts, cols.size))  # gating weights, zero off the selection
        g[trace.selected, cols[:, None]] = trace.weights
        gbar = np.zeros_like(g)
        xbar = np.zeros_like(xin)
        for i, (rows, a) in acts.items():
            up, down = layer.experts[i][Role.UP], layer.experts[i][Role.DOWN]
            hid = silu(a)
            ybar_i = ybar[:, rows]
            q = down.T @ ybar_i  # d (ybar . expert output) / d hid
            gbar[i, rows] = np.sum(hid * q, axis=0)
            abar = g[i, rows] * q * silu_grad(a)
            expert_fn(l, i, xin[:, rows], g[i, rows] * ybar_i, hid, abar)
            xbar[:, rows] += up.T @ abar
        # gating weights are softmax over the surviving logits
        zbars[l] = zbar = g * (gbar - np.sum(g * gbar, axis=0))
        ybar = xbar + layer.gate.T @ zbar
    return zbars


def _draw_labels(p: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One label per column of the (classes, T) probabilities p, the same
    labels T successive `rng.choice(classes, p=p[:, t])` calls return: each
    cdf column is non-decreasing and ends at exactly 1.0, so its count of
    entries <= u[t] is its `searchsorted(u[t], side="right")`."""
    cdf = np.cumsum(p, axis=0)
    cdf /= cdf[-1]
    u = rng.random(p.shape[1])
    return (cdf <= u).sum(axis=0)
