"""Analysis toolkit: expert similarity, delta spectra, trimming, and
sensitivity-driven rank budgets.

High CKA between experts is what makes a shared base viable; the delta
spectrum says how much rank the residuals actually need; the sensitivity
scan turns a global rank budget into per-layer ratios.
"""

import numpy as np

from d2moe import CompressionConfig, compress, evaluate, gen_fixture
from d2moe.analysis import allocate_adaptive_ratios, cka, energy_retention
from d2moe.merge import weighted_merge
from d2moe.moe import MoEModel, Role
from d2moe.pipeline import compute_layer_stats, layer_sensitivity_scan
from d2moe.runtime import trim_deltas

fx = gen_fixture(seed=0)
layer = fx.model.layers[0]
ups = layer.weights[Role.UP]

print("expert-pair CKA (up weights):")
for i in range(layer.n_experts):
    print("  " + " ".join(f"{cka(ups[i], ups[j]):.3f}" for j in range(layer.n_experts)))

base, _ = weighted_merge(ups, np.ones(len(ups)))  # equal weights: the plain mean
print("\ndelta energy retention at k =", fx.rank_noise, "(per expert):")
rets = [energy_retention(np.linalg.svd(w - base, compute_uv=False), fx.rank_noise) for w in ups]
print("  " + " ".join(f"{r:.4f}" for r in rets))

# trimming: drop delta factors of the rarest experts, keep the shared base
cfg = CompressionConfig(merge_method="fisher", delta_ratio=0.5, sparsity=0.4)
compressed, rep = compress(cfg, fx.model, fx.tokens, labels=fx.labels)
freq = compute_layer_stats(fx.model, fx.tokens, cfg, labels=fx.labels)[0][0].frequency
print("\nrouting frequency per expert:")
print("  " + " ".join(f"{f:.3f}" for f in freq))
print("loss as trim count grows (rarest experts lose their deltas first):")
for t in range(layer.n_experts + 1):
    trimmed = MoEModel(layers=[trim_deltas(compressed.layers[0], freq, t)], head=compressed.head)
    loss = evaluate(trimmed, fx.tokens, fx.labels).loss
    print(f"  t={t}: {loss:.5f}")

# per-layer budgets from a sensitivity scan on a deeper model
deep = gen_fixture(11, n_experts=4, d_model=16, hidden=24, layers=3,
                   tokens=192, rank_noise=2)
profile = layer_sensitivity_scan(deep.model, deep.tokens, deep.labels,
                                 probe_ratio=0.5)
alloc = allocate_adaptive_ratios(profile, budget=0.5, p_min=0.05)
print("\nlayer sensitivity (loss increase when only that layer is compressed)")
for l, (inc, ratio) in enumerate(zip(profile.increases, alloc.ratios)):
    print(f"  layer {l}: +{inc:.5f} -> allocated ratio {ratio:.3f}")
print(f"parameter-weighted mean ratio {alloc.realized_ratio:.4f} "
      f"(budget 0.5): sensitive layers get the rank")
