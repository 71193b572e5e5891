"""Reverse-mode gradients of the calibration log-likelihood and Fisher
information accumulation.

The discrete top-k routing choice is treated as locally constant (it is
piecewise constant in the parameters, so this is the exact gradient almost
everywhere); the softmax over the surviving logits is differentiated exactly.

The gradients come from the calibration forward `moe.capture_calibration`,
which records every layer's input and routing, then one reverse sweep over
the layers (`_reverse_sweep`), which recomputes each expert's Up
pre-activations as it reaches them. `fisher_accumulate` takes that capture
from its caller, so the Grams, the routing counts and the Fisher all come
from one dense pass over each chunk of calibration tokens. A token routed
to expert i contributes a single outer product to each of that expert's
gradients, ebar hid^T (Down) and abar x^T (Up). `fisher_accumulate` runs
the sweep on one chunk and hands its caller each expert's sum of their
elementwise squares over its tokens, in closed form (tokens along the rows,
the sweep is token-major):

    B_down[i] = (Ebar∘Ebar) (Hid∘Hid)^T,    B_up[i] = (Abar∘Abar) (X∘X)^T.

sampled-label mode draws all T labels from one `rng.random(T)`, sliced per
chunk (`_draw_labels`), so they do not depend on the chunk size.
"""
from __future__ import annotations

import numpy as np

from .errors import NumericalError, ParameterError, ShapeError
from .moe import MoEModel, Role, _softmax, silu, silu_grad

FISHER_MODES = ("sampled-label", "data-label")


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
    p = _softmax(logits)
    bad = np.flatnonzero(~np.all(np.isfinite(p), axis=0))
    if bad.size:
        raise NumericalError(f"output probabilities are not finite for {bad.size} of calibration "
                             f"tokens {first}..{first + p.shape[1] - 1} ({n_total} in all; first: "
                             f"token {first + bad[0]}); the logits overflow")
    return p


def fisher_accumulate(model: MoEModel, captures, p: np.ndarray, labels: np.ndarray,
                      sink) -> None:
    """Hand one chunk's sums of elementwise squared log-likelihood gradients
    to `sink(l, role, i, block)`: block is the (m, n) sum for expert i's
    weight in `role` of layer l, a new array the sink may change. Only
    experts the chunk routes get a block; layers come last to first, and
    within a layer experts in ascending order, Down before Up.

    `captures` are the chunk's `moe.capture_calibration` records (no
    forward runs here), `p` its (classes, T) `output_probabilities` and
    `labels` its T checked class indices: the data labels, or in
    sampled-label mode `_draw_labels` of p.
    """
    lbar = -p
    lbar[labels, np.arange(labels.size)] += 1.0  # d log p(y|x) / d logits = onehot(y) - softmax
    _reverse_sweep(model, captures, lbar.T @ model.head,
                   lambda bar, act: (bar * bar).T @ (act * act), sink)


def _reverse_sweep(model: MoEModel, captures, ybar: np.ndarray, block, sink):
    """Backpropagate ybar (T, d_out), the token-major gradient at the final
    hidden state, from the last layer down. Returns each layer's gate-logit
    gradient zbar (T, N), zero off each token's selection.

    For every routed expert i of layer l, sink(l, role, i, block(bar, act))
    is called, with the expert's tokens along the rows of bar and act:
    token t's gradient of the expert's weight is bar_t^T act_t, with
    (bar, act) = (ebar, hid) for Down and (abar, x) for Up.
    """
    toks = np.arange(ybar.shape[0])[:, None]
    zbars = [None] * len(model.layers)
    for l in range(len(model.layers) - 1, -1, -1):
        layer = model.layers[l]
        xin, trace = captures[l].x.T, captures[l].trace
        g = np.zeros((toks.size, layer.n_experts))  # gating weights, zero off the selection
        g[toks, trace.selected] = trace.weights
        gbar = np.zeros_like(g)
        xbar = np.zeros_like(xin)  # left at zero in layer 0: nothing reads it
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
            sink(l, Role.DOWN, i, block(g_i * ybar_i, hid))
            sink(l, Role.UP, i, block(abar, x_i))
            if l:
                xbar[rows] += abar @ up[i]
        # gating weights are softmax over the surviving logits
        zbars[l] = zbar = g * (gbar - np.sum(g * gbar, axis=1, keepdims=True))
        ybar = xbar + zbar @ layer.gate if l else None
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
