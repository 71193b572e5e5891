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

with those tokens along the rows of each token-major matrix (the sweep
runs token-major, like the forward). sampled-label mode draws
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
    """Gradients laid out like the parameters they belong to: per layer the
    gate's (N, d_model) gradient and, per role, an (E, m, n) stack with
    expert_grads[l][role][i] the gradient of expert i's weight (the layout
    of `MoELayer.weights` and of the Fisher); then the head's."""

    gate_grads: list[np.ndarray]
    expert_grads: list[dict[Role, np.ndarray]]
    head_grad: np.ndarray


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
    lbar = lbar[None, :]

    zbars, expert_grads = _reverse_sweep(model, captures, lbar @ model.head,
                                         lambda bar, act: bar.T @ act)
    gate_grads = [zbar.T @ cap.x.T for zbar, cap in zip(zbars, captures)]
    return GradientSet(gate_grads=gate_grads, expert_grads=expert_grads, head_grad=lbar.T @ h.T)


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
                      seed: int = 0, labels=None) -> list[dict[Role, np.ndarray]]:
    """Average elementwise squared log-likelihood gradients over calibration
    tokens: per layer, one (E, m, n) Fisher stack per role, stack[i] the
    block of expert i's weight in that role. Experts never routed during
    calibration have exactly-zero blocks.

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
    return _reverse_sweep(model, captures, lbar.T @ model.head,
                          lambda bar, act: (bar * bar).T @ (act * act) / n_tokens)[1]


def _reverse_sweep(model: MoEModel, captures, ybar: np.ndarray, block):
    """Backpropagate ybar (T, d_out), the token-major gradient at the final
    hidden state, from the last layer down. Returns each layer's gate-logit
    gradient zbar (T, N), zero off each token's selection, and per layer and
    role a stack shaped like `MoELayer.weights`.

    Block i of a stack is zero for an expert never routed, else
    block(bar, act), with the expert's tokens along the rows of bar and act:
    token t's gradient of the expert's weight is bar_t^T act_t, with
    (bar, act) = (ebar, hid) for Down and (abar, x) for Up.
    """
    toks = np.arange(ybar.shape[0])[:, None]
    zbars = [None] * len(model.layers)
    stacks = [{role: np.zeros_like(layer.weights[role]) for role in ROLES}
              for layer in model.layers]
    for l in range(len(model.layers) - 1, -1, -1):
        layer = model.layers[l]
        xin, trace, acts = captures[l].x.T, captures[l].trace, captures[l].acts
        g = np.zeros((toks.size, layer.n_experts))  # gating weights, zero off the selection
        g[toks, trace.selected] = trace.weights
        gbar = np.zeros_like(g)
        xbar = np.zeros_like(xin)
        up, down = layer.weights[Role.UP], layer.weights[Role.DOWN]
        for i, (rows, a) in acts.items():
            hid = silu(a)
            g_i = g[rows, i][:, None]
            ybar_i = ybar[rows]
            q = ybar_i @ down[i]  # d (ybar . expert output) / d hid
            gbar[rows, i] = np.sum(hid * q, axis=1)
            abar = g_i * q * silu_grad(a)
            stacks[l][Role.DOWN][i] = block(g_i * ybar_i, hid)
            stacks[l][Role.UP][i] = block(abar, xin[rows])
            xbar[rows] += abar @ up[i]
        # gating weights are softmax over the surviving logits
        zbars[l] = zbar = g * (gbar - np.sum(g * gbar, axis=1, keepdims=True))
        ybar = xbar + zbar @ layer.gate
    return zbars, stacks


def _draw_labels(p: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One label per column of the (classes, T) probabilities p, the same
    labels T successive `rng.choice(classes, p=p[:, t])` calls return: each
    cdf column is non-decreasing and ends at exactly 1.0, so its count of
    entries <= u[t] is its `searchsorted(u[t], side="right")`."""
    cdf = np.cumsum(p, axis=0)
    cdf /= cdf[-1]
    u = rng.random(p.shape[1])
    return (cdf <= u).sum(axis=0)
