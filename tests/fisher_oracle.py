"""Reference routines the tests judge the package against; the pipeline
calls none of them.

`fisher_stacks` runs one capture of all T calibration tokens and one
reverse sweep over it, with `fisher_accumulate` adding every block into
zero (E, m, n) stacks (`add_into`), then divides by T: per layer and role,
stack[i] is expert i's Fisher block F_i. `oracle_merge` is
`weighted_merge` of those stacks, elementwise for `fisher` and by block
mean for `fisher-scalar`. `backward_logloss` is the exact gradient of one
token's log-likelihood, from the package's own capture and reverse sweep.
`vanilla_svd_compress` is the unwhitened truncated SVD, the baseline the
whitened factors beat, and `static_metric` the pruning metric from the
calibration activations themselves.
"""

from dataclasses import dataclass

import numpy as np

from d2moe.errors import ParameterError, ShapeError
from d2moe.factorize import DeltaFactor
from d2moe.gradients import (_draw_labels, _reverse_sweep, check_labels, fisher_accumulate,
                             output_probabilities)
from d2moe.linalg import as_matrix
from d2moe.merge import weighted_merge
from d2moe.moe import ROLES, Role, _softmax, capture_calibration


def add_into(stacks):
    """A `_reverse_sweep` sink that adds each block into stacks[l][role][i]:
    per layer, one stack per role shaped like `MoELayer.weights`."""
    def sink(l: int, role: Role, i: int, block: np.ndarray) -> None:
        stacks[l][role][i] += block
    return sink


def fisher_stacks(model, x, cfg, labels=None):
    """Per layer and role the (E, m, n) Fisher stack of the calibration
    tokens x (d_model, T), with `cfg`'s Fisher mode and seed."""
    n_tokens = x.shape[1]
    hidden, captures = capture_calibration(model, x)
    p = output_probabilities(model.head @ hidden, 0, n_tokens)
    if cfg.fisher_mode == "data-label":
        y = check_labels(labels, model.num_classes, n_tokens)
    else:
        y = _draw_labels(p, np.random.default_rng(cfg.seed).random(n_tokens))
    stacks = [{role: np.zeros_like(layer.weights[role]) for role in ROLES}
              for layer in model.layers]
    fisher_accumulate(model, captures, p, y, add_into(stacks))
    return [{role: stack / n_tokens for role, stack in layer.items()} for layer in stacks]


def oracle_merge(weights, stack, method, epsilon):
    """`merge_role`'s base and fallback count for one role, from
    `weighted_merge` of its Fisher stack: elementwise for `fisher`, by
    block mean for `fisher-scalar`."""
    coeffs = stack if method == "fisher" else np.mean(stack, axis=(1, 2))
    return weighted_merge(weights, coeffs, epsilon)


@dataclass
class GradientSet:
    """Gradients laid out like the parameters they belong to: per layer the
    gate's (N, d_model) gradient and, per role, an (E, m, n) stack with
    expert_grads[l][role][i] the gradient of expert i's weight (the layout
    of `MoELayer.weights`); then the head's."""

    gate_grads: list[np.ndarray]
    expert_grads: list[dict[Role, np.ndarray]]
    head_grad: np.ndarray


def backward_logloss(model, x, y: int) -> GradientSet:
    """Exact analytic gradient of log softmax(head @ MoE(x))[y] with respect
    to every gate, expert, and head entry: `capture_calibration` of the one
    token, then `_reverse_sweep` adding its outer products into stacks."""
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
                           add_into(expert_grads))
    gate_grads = [zbar.T @ cap.x.T for zbar, cap in zip(zbars, captures)]
    return GradientSet(gate_grads=gate_grads, expert_grads=expert_grads, head_grad=lbar.T @ h.T)


def vanilla_svd_compress(delta, k: int) -> DeltaFactor:
    """Plain truncated SVD, LAPACK's thin SVD of the delta with no whitening,
    split as U_k sqrt(Sigma_k), sqrt(Sigma_k) V_k^T."""
    d = as_matrix(delta, "delta")
    if not 1 <= k <= min(d.shape):
        raise ParameterError(f"rank k={k} outside [1, {min(d.shape)}]")
    u, sigma, vt = np.linalg.svd(d, full_matrices=False)
    root = np.sqrt(sigma[:k])
    return DeltaFactor(u=u[:, :k] * root, v=root[:, None] * vt[:k])


def static_metric(w_b, calib_x) -> np.ndarray:
    """Column pruning metric C_j = ||W_b[:, j]||_2 * ||X[j, :]||_2."""
    w = as_matrix(w_b, "w_b")
    x = as_matrix(calib_x, "calib_x")
    if x.shape[0] != w.shape[1]:
        raise ShapeError(f"calib_x rows {x.shape[0]} != w_b cols {w.shape[1]}")
    return np.linalg.norm(w, axis=0) * np.linalg.norm(x, axis=1)
