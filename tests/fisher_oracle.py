"""The Fisher stacks and Fisher-merged bases that the streamed merge
replaced, kept for the tests as an oracle.

`fisher_stacks` runs one capture of all T calibration tokens and one
reverse sweep over it, with `fisher_accumulate` adding every block into
zero (E, m, n) stacks (`gradients.add_into`), then divides by T: per layer
and role, stack[i] is expert i's Fisher block F_i. `oracle_merge` is
`weighted_merge` of those stacks, elementwise for `fisher` and by block
mean for `fisher-scalar`.
"""

import numpy as np

from d2moe.gradients import _draw_labels, add_into, check_labels, fisher_accumulate, output_probabilities
from d2moe.merge import weighted_merge
from d2moe.moe import ROLES, capture_calibration


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
