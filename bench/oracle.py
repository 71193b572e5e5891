"""Independent numpy reference for the dense and the compressed forward.

The oracle reads `.d2m` files with its own parser of the documented container
layout and recomputes logits token by token, so it shares no code with the
package's loader, router or runtime. It covers:

* top-k routing: stable descending sort of the router logits, ties to the
  lower expert index, softmax over the selected logits;
* the dense expert FFN  y_i = W_down_i silu(W_up_i x);
* the compressed layer  u_i = W_b_up^active x + U_i (V_i x),
  y_i = W_b_down^active h_i + U'_i (V'_i h_i), h_i = silu(u_i), where the
  active base columns are re-picked per batch: the quota
  floor(n*s) - |statically removed| of kept columns with the smallest
  metric ||W_b[:, j]|| * ||X[j, :]|| is dropped (stable argsort, so ties
  drop the lower original index first). The Down mask scores the base-path
  hidden activations silu(W_b_up^active x), which makes it expert-independent.
  Trimmed experts have no factors and use the base path only.
"""
from __future__ import annotations

import math
from pathlib import Path

import numpy as np

MAGIC = b"D2MZ0001"


def read_container(path) -> dict[str, np.ndarray]:
    """Name -> float64 matrix mapping of a `.d2m` tensor container."""
    data = Path(path).read_bytes()
    if data[:8] != MAGIC:
        raise ValueError(f"{path}: not a tensor container")
    n = int.from_bytes(data[8:16], "little")
    out = {}
    for line in data[16:16 + n].decode("utf-8").splitlines():
        name, rows, cols, offset = line.split(" ")
        rows, cols, offset = int(rows), int(cols), int(offset)
        a = np.frombuffer(data, dtype="<f8", count=rows * cols, offset=offset)
        out[name] = a.reshape(rows, cols).astype(np.float64)
    return out


def _silu(z):
    return z * 0.5 * (1.0 + np.tanh(0.5 * z))


def _route(gate, top_k, x):
    """(selected (k, T), weights (k, T)) for tokens along the columns of x."""
    logits = gate @ x
    order = np.argsort(-logits, axis=0, kind="stable")[:top_k]
    z = np.take_along_axis(logits, order, axis=0)
    e = np.exp(z - z.max(axis=0))
    return order, e / e.sum(axis=0)


def _active_positions(kept, kept_ids, meta, rows):
    """Positions (into the kept columns) that stay active for this batch."""
    total, sparsity = int(meta[0, 0]), float(meta[0, 1])
    quota = math.floor(total * sparsity) - (total - kept_ids.size)
    if quota <= 0:
        return np.arange(kept_ids.size)
    metric = np.linalg.norm(kept, axis=0) * np.linalg.norm(rows, axis=1)
    drop = np.argsort(metric, kind="stable")[:quota]
    return np.setdiff1d(np.arange(kept_ids.size), drop)


class DenseOracle:
    """Dense MoE forward rebuilt from a dense-model container."""

    def __init__(self, path):
        t = read_container(path)
        self.head = t["head"]
        self.layers = []
        l = 0
        while f"layer{l}/gate" in t:
            top_k, n = (int(v) for v in t[f"layer{l}/meta"][0, :2])
            experts = [(t[f"layer{l}/expert{i}/up"], t[f"layer{l}/expert{i}/down"])
                       for i in range(n)]
            self.layers.append((t[f"layer{l}/gate"], top_k, experts))
            l += 1

    def logits(self, x):
        h = np.array(x, dtype=np.float64)
        for gate, top_k, experts in self.layers:
            sel, w = _route(gate, top_k, h)
            y = np.zeros((experts[0][1].shape[0], h.shape[1]))
            for t in range(h.shape[1]):
                for j in range(top_k):
                    up, down = experts[sel[j, t]]
                    y[:, t] += w[j, t] * (down @ _silu(up @ h[:, t]))
            h = y
        return self.head @ h


class CompressedOracle:
    """Compressed forward rebuilt from a compressed-model container."""

    def __init__(self, path):
        t = read_container(path)
        self.head = t["head"]
        self.layers = []
        l = 0
        while f"layer{l}/gate" in t:
            top_k, n = (int(v) for v in t[f"layer{l}/meta"][0, :2])
            base = {}
            for role in ("up", "down"):
                p = f"layer{l}/base_{role}"
                base[role] = (t[f"{p}/kept"], t[f"{p}/kept_ids"][0].astype(np.int64), t[f"{p}/meta"])
            factors = {}
            for i in range(n):
                if f"layer{l}/expert{i}/up_u" in t:
                    factors[i] = {role: (t[f"layer{l}/expert{i}/{role}_u"],
                                         t[f"layer{l}/expert{i}/{role}_v"])
                                  for role in ("up", "down")}
            self.layers.append((t[f"layer{l}/gate"], top_k, base, factors))
            l += 1

    def logits(self, x):
        h = np.array(x, dtype=np.float64)
        for gate, top_k, base, factors in self.layers:
            up_kept, up_ids, up_meta = base["up"]
            pos = _active_positions(up_kept, up_ids, up_meta, h[up_ids, :])
            u_base = up_kept[:, pos] @ h[up_ids[pos], :]
            down_kept, down_ids, down_meta = base["down"]
            pos = _active_positions(down_kept, down_ids, down_meta, _silu(u_base)[down_ids, :])
            w_down, down_active = down_kept[:, pos], down_ids[pos]

            sel, w = _route(gate, top_k, h)
            y = np.zeros((down_kept.shape[0], h.shape[1]))
            for t in range(h.shape[1]):
                for j in range(top_k):
                    f = factors.get(int(sel[j, t]))
                    u = u_base[:, t]
                    if f is not None:
                        u = u + f["up"][0] @ (f["up"][1] @ h[:, t])
                    hid = _silu(u)
                    yi = w_down @ hid[down_active]
                    if f is not None:
                        yi = yi + f["down"][0] @ (f["down"][1] @ hid)
                    y[:, t] += w[j, t] * yi
            h = y
        return self.head @ h


def relative_error(got, want) -> float:
    """max |got - want| / max |want|; inf when the shapes differ."""
    got, want = np.asarray(got), np.asarray(want)
    if got.shape != want.shape:
        return math.inf
    scale = max(float(np.max(np.abs(want))), np.finfo(np.float64).tiny)
    return float(np.max(np.abs(got - want))) / scale
