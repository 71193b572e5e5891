"""Reverse-mode gradients of the calibration log-likelihood and Fisher
information accumulation.

The discrete top-k routing choice is treated as locally constant (it is
piecewise constant in the parameters, so this is the exact gradient almost
everywhere); the softmax over the surviving logits is differentiated exactly.

Both callers run the same code: the calibration forward
`moe.capture_calibration`, which records every layer's input and routing,
then one reverse sweep over the layers (`_reverse_sweep`), which recomputes
each expert's Up pre-activations as it reaches them. `fisher_accumulate`
takes that capture from its caller, so the Grams, the routing counts and
the Fisher all come from one dense pass over each chunk of calibration
tokens. A token routed to expert i contributes a single outer product to
each of that expert's gradients, ebar hid^T (Down) and abar x^T (Up).
`backward_logloss` runs the sweep on one token and forms those outer
products. `fisher_accumulate` runs it on one chunk of the calibration
tokens and adds the sums of their elementwise squares over each expert's
routed tokens, in closed form, into running totals:

    F_down[i] += (Ebar∘Ebar) (Hid∘Hid)^T,    F_up[i] += (Abar∘Abar) (X∘X)^T,

with those tokens along the rows of each token-major matrix (the sweep
runs token-major, like the forward); `pipeline.compute_layer_stats` divides
the totals by the token count once. sampled-label mode draws every label
from one `u = rng.random(T)` over all T calibration tokens, sliced per
chunk: label t is the number of entries of `cdf_t` at or below u[t], where
`cdf_t` is `cumsum(p_t)` divided by its last entry. That is exactly what
`rng.choice(classes, p=p_t)` returns when called once per token in
calibration order, whatever the chunk size.
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

    expert_grads = [{role: np.zeros_like(layer.weights[role]) for role in ROLES}
                    for layer in model.layers]
    zbars = _reverse_sweep(model, captures, lbar @ model.head, lambda bar, act: bar.T @ act,
                           expert_grads)
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


def output_probabilities(logits: np.ndarray, first: int, n_total: int) -> np.ndarray:
    """Softmax over the classes of the (classes, T) logits of calibration
    tokens first .. first + T - 1 of n_total. Tokens whose probabilities are
    not finite raise NumericalError naming the first one by its index among
    all n_total."""
    n_tokens = logits.shape[1]
    e = np.exp(logits - np.max(logits, axis=0))
    p = e / np.sum(e, axis=0)
    bad = np.flatnonzero(~np.all(np.isfinite(p), axis=0))
    if bad.size:
        raise NumericalError(f"output probabilities are not finite for {bad.size} of calibration "
                             f"tokens {first}..{first + n_tokens - 1} ({n_total} in all; first: "
                             f"token {first + bad[0]}); the logits overflow")
    return p


def fisher_accumulate(model: MoEModel, captures, p: np.ndarray, labels: np.ndarray,
                      fisher: list[dict[Role, np.ndarray]]) -> None:
    """Add one chunk's sums of elementwise squared log-likelihood gradients
    into `fisher`: per layer, one (E, m, n) stack per role, stack[i] the
    block of expert i's weight in that role. An expert the chunk never
    routes gets nothing added, so one never routed at all keeps an
    exactly-zero block.

    `captures` are the chunk's `moe.capture_calibration` records (no
    forward runs here), `p` its (classes, T) `output_probabilities` and
    `labels` its T checked class indices: the data labels, or in
    sampled-label mode `_draw_labels` of p.
    """
    lbar = -p
    lbar[labels, np.arange(labels.size)] += 1.0  # d log p(y|x) / d logits = onehot(y) - softmax
    _reverse_sweep(model, captures, lbar.T @ model.head,
                   lambda bar, act: (bar * bar).T @ (act * act), fisher)


def _reverse_sweep(model: MoEModel, captures, ybar: np.ndarray, block, stacks):
    """Backpropagate ybar (T, d_out), the token-major gradient at the final
    hidden state, from the last layer down. Returns each layer's gate-logit
    gradient zbar (T, N), zero off each token's selection.

    `stacks` holds per layer and role a stack shaped like
    `MoELayer.weights`; block(bar, act) is added into block i of it for
    every routed expert i, with the expert's tokens along the rows of bar
    and act: token t's gradient of the expert's weight is bar_t^T act_t,
    with (bar, act) = (ebar, hid) for Down and (abar, x) for Up.
    """
    toks = np.arange(ybar.shape[0])[:, None]
    zbars = [None] * len(model.layers)
    for l in range(len(model.layers) - 1, -1, -1):
        layer = model.layers[l]
        xin, trace = captures[l].x.T, captures[l].trace
        g = np.zeros((toks.size, layer.n_experts))  # gating weights, zero off the selection
        g[toks, trace.selected] = trace.weights
        gbar = np.zeros_like(g)
        xbar = np.zeros_like(xin)
        up, down = layer.weights[Role.UP], layer.weights[Role.DOWN]
        for i, rows in captures[l].rows.items():
            x_i = xin[rows]
            a = x_i @ up[i].T  # the capture's Up pre-activations, recomputed
            hid = silu(a)
            g_i = g[rows, i][:, None]
            ybar_i = ybar[rows]
            q = ybar_i @ down[i]  # d (ybar . expert output) / d hid
            gbar[rows, i] = np.sum(hid * q, axis=1)
            abar = g_i * q
            abar *= silu_grad(a)
            stacks[l][Role.DOWN][i] += block(g_i * ybar_i, hid)
            stacks[l][Role.UP][i] += block(abar, x_i)
            xbar[rows] += abar @ up[i]
        # gating weights are softmax over the surviving logits
        zbars[l] = zbar = g * (gbar - np.sum(g * gbar, axis=1, keepdims=True))
        ybar = xbar + zbar @ layer.gate
    return zbars


def _draw_labels(p: np.ndarray, u: np.ndarray) -> np.ndarray:
    """One label per column of the (classes, T) probabilities p from T
    uniform draws u: with u = rng.random(T), the labels T successive
    `rng.choice(classes, p=p[:, t])` calls return. Each cdf column is
    non-decreasing and ends at exactly 1.0, so its count of entries <= u[t]
    is its `searchsorted(u[t], side="right")`."""
    cdf = np.cumsum(p, axis=0)
    cdf /= cdf[-1]
    return (cdf <= u).sum(axis=0)
