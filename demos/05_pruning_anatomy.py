"""Inside semi-dynamic pruning: the static half retires columns for good,
the dynamic half re-picks per batch.

A target sparsity s removes floor(n*s) columns per forward call: half of
that (floor(n*s/2)) is decided once from calibration, the rest is a quota
filled per batch by the same norm-product metric. Batches with different
activity light up different columns.
"""

import numpy as np

from d2moe import gen_fixture
from d2moe.merge import weighted_merge
from d2moe.moe import Role
from d2moe.pruning import dynamic_mask, static_metric_from_gram, static_prune

fx = gen_fixture(seed=0)
layer = fx.model.layers[0]
base, _ = weighted_merge(layer.weights[Role.UP], np.ones(layer.n_experts))
n = base.shape[1]

metric = static_metric_from_gram(base, np.sum(fx.tokens * fx.tokens, axis=1))
print("column salience (norm of column x norm of its activation row):")
print("  weakest 8:", np.argsort(metric, kind="stable")[:8].tolist())

s = 0.4
pruned = static_prune(base, metric, s)
quota = pruned.dynamic_quota
print(f"\ns={s}: {pruned.static_removed.size} columns removed statically, "
      f"quota of {quota} more per batch "
      f"(total floor(n*s) = {int(n * s)})")
print("  statically removed:", pruned.static_removed.tolist())

# the fixture has bursty coordinates that fire on few tokens; split the
# stream into tokens where they are silent vs tokens where one fired
burst_cols = [c for c in range(3) if c in pruned.kept_col_ids]
hot = np.abs(fx.tokens[burst_cols]).max(axis=0) > 1.0
for name, mask in (("burst-cold", ~hot), ("burst-hot", hot)):
    xb = fx.tokens[np.ix_(pruned.kept_col_ids, np.flatnonzero(mask)[:64])]
    active = dynamic_mask(pruned, xb)
    parked = sorted(set(pruned.kept_col_ids.tolist()) - set(active.tolist()))
    print(f"{name} batch ({xb.shape[1]} tokens): parked {parked}")
print("\nthe parked set follows the batch -- silent bursty columns are parked "
      "while they sleep, reclaimed the moment a batch wakes them; "
      "the static set never moves")
