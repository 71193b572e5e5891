"""Compressed inference and parameter accounting tests.

The forward path is checked against a per-token oracle that materializes
each expert's effective weight as a dense masked base plus the factor
product, then loops over tokens in plain python. The batched fast path is
also checked byte for byte against the slow path it replaced, written in
the same token-major layout: per-call dynamic masks that recompute the base
column norms, ids mapped back to positions with searchsorted, and the
cumsum-bounded routed core that scatters each expert's gated outputs. Run
with the first `z * expit(z)` activation instead, that slow path bounds how
far the exp-form silu may move the logits. The column-major forwards that
the token-major ones replaced are kept here too, as oracles within 1e-12.
"""

import dataclasses
import sys

import numpy as np
import pytest
from scipy.special import expit

import d2moe.linalg
from d2moe.config import CompressionConfig
from d2moe.errors import ConfigError, ParameterError, ShapeError
from d2moe.factorize import rank_for_ratio, whitened_factors
from d2moe.merge import weighted_merge
from d2moe.moe import (MoELayer, MoEModel, Role, RoutingTrace, _layer_input, layer_forward_dense,
                       moe_forward_dense, route_batch, routed_forward, silu)
from d2moe.pruning import _active_positions, static_metric, static_prune
from d2moe.runtime import (
    CompressedLayer,
    CompressedModel,
    _base_path,
    census_active_params,
    census_static_params,
    closed_form_params,
    compressed_forward,
    compressed_model_forward,
    param_report,
    trim_deltas,
)


def make_dense_layer(rng, n_experts=4, d=6, hidden=8, top_k=2):
    ups, downs = zip(*[(rng.normal(size=(hidden, d)) / np.sqrt(d),
                        rng.normal(size=(d, hidden)) / np.sqrt(hidden))
                       for _ in range(n_experts)])
    return MoELayer(gate=rng.normal(size=(n_experts, d)),
                    weights={Role.UP: ups, Role.DOWN: downs}, top_k=top_k)


def compress_by_hand(dense, x, p=0.5, s=0.0, lossless=False, trimmed=()):
    """Mean merge + whitened factors + static pruning, no pipeline involved."""
    up_w, down_w = dense.weights[Role.UP], dense.weights[Role.DOWN]
    base_up = weighted_merge(up_w, np.ones(len(up_w)))[0]
    base_down = weighted_merge(down_w, np.ones(len(down_w)))[0]
    h = silu(base_up @ x)
    hidden, d = base_up.shape
    d_out = base_down.shape[0]
    k_up = min(hidden, d) if lossless else rank_for_ratio(hidden, d, p)
    k_down = min(d_out, hidden) if lossless else rank_for_ratio(d_out, hidden, p)
    deltas = {}
    for i in range(dense.n_experts):
        if i in trimmed:
            continue
        deltas[i] = {
            Role.UP: whitened_factors([up_w[i] - base_up], [x @ x.T], k_up)[0][0],
            Role.DOWN: whitened_factors([down_w[i] - base_down], [h @ h.T], k_down)[0][0],
        }
    return CompressedLayer(
        gate=dense.gate,
        base={Role.UP: static_prune(base_up, static_metric(base_up, x), s),
              Role.DOWN: static_prune(base_down, static_metric(base_down, h), s)},
        deltas=deltas, top_k=dense.top_k)


def active_columns(layer, xb):
    """Per-role active original column ids of one (d_model, T) batch, from the base path."""
    up_pos, down_pos, _ = _base_path(layer, np.ascontiguousarray(xb.T))
    return {Role.UP: layer.base[Role.UP].kept_col_ids[up_pos],
            Role.DOWN: layer.base[Role.DOWN].kept_col_ids[down_pos]}


def forward_oracle(layer, xb):
    """Token loop over dense materialized weights W_hat = masked base + u@v."""
    active = active_columns(layer, xb)
    up, down = layer.base[Role.UP], layer.base[Role.DOWN]
    w_up = np.zeros((layer.hidden, layer.d_model))
    kept_up = up.kept_col_ids.tolist()
    for j in active[Role.UP].tolist():
        w_up[:, j] = up.kept[:, kept_up.index(j)]
    w_down = np.zeros((layer.d_out, layer.hidden))
    kept_down = down.kept_col_ids.tolist()
    for j in active[Role.DOWN].tolist():
        w_down[:, j] = down.kept[:, kept_down.index(j)]
    selected, weights = route_batch(layer.gate, layer.top_k, xb)
    y = np.zeros((layer.d_out, xb.shape[1]))
    for t in range(xb.shape[1]):
        for slot in range(layer.top_k):
            i = int(selected[t, slot])
            f = layer.deltas.get(i)
            w_up_eff = w_up if f is None else w_up + f[Role.UP].product()
            h = silu(w_up_eff @ xb[:, t])
            y_t = w_down @ h
            if f is not None:
                y_t = y_t + f[Role.DOWN].u @ (f[Role.DOWN].v @ h)
            y[:, t] += weights[t, slot] * y_t
    return y


class TestCompressedForward:
    def test_matches_materialization_oracle(self):
        rng = np.random.default_rng(0)
        dense = make_dense_layer(rng)
        x = rng.normal(size=(6, 40))
        layer = compress_by_hand(dense, x, p=0.5, s=0.5, trimmed=(3,))
        batch = rng.normal(size=(6, 25))
        y, trace = compressed_forward(layer, batch)
        np.testing.assert_allclose(y, forward_oracle(layer, batch), atol=1e-10)
        np.testing.assert_array_equal(
            trace.counts, np.bincount(trace.selected.ravel(), minlength=4))

    def test_lossless_unpruned_round_trip(self):
        rng = np.random.default_rng(1)
        dense = make_dense_layer(rng)
        x = rng.normal(size=(6, 40))
        layer = compress_by_hand(dense, x, s=0.0, lossless=True)
        batch = rng.normal(size=(6, 30))
        y_ref, trace_ref = layer_forward_dense(dense, batch)
        y, trace = compressed_forward(layer, batch)
        np.testing.assert_allclose(y, y_ref, atol=1e-7)
        np.testing.assert_array_equal(trace.selected, trace_ref.selected)
        np.testing.assert_allclose(trace.weights, trace_ref.weights, atol=1e-12)

    def test_hybrid_model_forward(self):
        rng = np.random.default_rng(2)
        layers = [make_dense_layer(rng, d=6, hidden=8),
                  make_dense_layer(rng, d=6, hidden=8)]
        model = MoEModel(layers=layers, head=rng.normal(size=(3, 6)))
        x = rng.normal(size=(6, 40))
        compressed0 = compress_by_hand(layers[0], x, s=0.0, lossless=True)
        hybrid = CompressedModel(layers=[compressed0, layers[1]], head=model.head)
        logits_ref, _ = moe_forward_dense(model, x[:, :20])
        logits, traces = compressed_model_forward(hybrid, x[:, :20])
        np.testing.assert_allclose(logits, logits_ref, atol=1e-7)
        assert len(traces) == 2

    def test_all_experts_trimmed_runs_base_only(self):
        rng = np.random.default_rng(3)
        dense = make_dense_layer(rng)
        x = rng.normal(size=(6, 40))
        layer = compress_by_hand(dense, x, s=0.4, trimmed=(0, 1, 2, 3))
        y, _ = compressed_forward(layer, rng.normal(size=(6, 10)))
        assert np.all(np.isfinite(y))

    def test_batch_dim_checked(self):
        rng = np.random.default_rng(4)
        dense = make_dense_layer(rng)
        layer = compress_by_hand(dense, rng.normal(size=(6, 40)))
        with pytest.raises(ShapeError):
            compressed_forward(layer, rng.normal(size=(7, 10)))


def legacy_routed_forward(layer, x, fill_slots):
    """The routed core over a token-major batch, with each expert's bounds
    taken from a cumsum of the counts and its gated slots scattered into y."""
    selected, weights = route_batch(layer.gate, layer.top_k, x.T)
    counts = np.bincount(selected.ravel(), minlength=layer.n_experts).astype(np.int64)
    order = np.argsort(selected.ravel(), kind="stable")
    rows = order // layer.top_k
    weights_sorted = weights.ravel()[order]
    bounds = np.concatenate(([0], np.cumsum(counts))).tolist()
    groups = [(i, bounds[i], bounds[i + 1]) for i in np.flatnonzero(counts).tolist()]
    slots = np.empty((order.size, layer.d_out))
    fill_slots(rows, groups, slots)
    y = np.zeros((x.shape[0], layer.d_out))
    for _, start, stop in groups:
        y[rows[start:stop]] += weights_sorted[start:stop, None] * slots[start:stop]
    return y, RoutingTrace(selected=selected, weights=weights, counts=counts)


def legacy_dynamic_mask(pruned, rows):
    """Active original ids, with the metric (base column norms included) recomputed per call."""
    quota = pruned.dynamic_quota
    if quota == 0:
        return pruned.kept_col_ids.copy()
    drop = np.argsort(static_metric(pruned.kept, rows), kind="stable")[:quota]
    keep = np.ones(pruned.kept_col_ids.size, dtype=bool)
    keep[drop] = False
    return pruned.kept_col_ids[keep]


def expit_silu(z):
    """The activation as it was first written, before the exp form."""
    return z * expit(z)


def legacy_compressed_forward(layer, x, silu=silu):
    """Compressed layer forward over a token-major batch, on active ids mapped
    to kept positions by searchsorted; the masks score (kept, T) copies."""
    up, down = layer.base[Role.UP], layer.base[Role.DOWN]
    active_up = legacy_dynamic_mask(up, x[:, up.kept_col_ids].T)
    u_base = x.take(active_up, axis=1) @ up.kept[:, np.searchsorted(up.kept_col_ids, active_up)].T
    active_down = legacy_dynamic_mask(down, silu(u_base)[:, down.kept_col_ids].T)
    down_masked = down.kept[:, np.searchsorted(down.kept_col_ids, active_down)]

    def fill(rows, groups, slots):
        h = u_base[rows]
        for i, start, stop in groups:
            factors = layer.deltas.get(i)
            if factors is not None:
                f = factors[Role.UP]
                h[start:stop] = h[start:stop] + (x[rows[start:stop]] @ f.v.T) @ f.u.T
        h = silu(h)
        slots[...] = h.take(active_down, axis=1) @ down_masked.T
        for i, start, stop in groups:
            factors = layer.deltas.get(i)
            if factors is not None:
                f = factors[Role.DOWN]
                slots[start:stop] = slots[start:stop] + (h[start:stop] @ f.v.T) @ f.u.T

    return legacy_routed_forward(layer, x, fill)


def legacy_model_forward(model, x, silu=silu):
    h, traces = np.ascontiguousarray(np.asarray(x, dtype=np.float64).T), []
    for layer in model.layers:
        if isinstance(layer, MoELayer):
            def fill(rows, groups, slots, layer=layer, h=h):
                for i, start, stop in groups:
                    up, down = layer.weights[Role.UP][i], layer.weights[Role.DOWN][i]
                    slots[start:stop] = silu(h[rows[start:stop]] @ up.T) @ down.T
            h, trace = legacy_routed_forward(layer, h, fill)
        else:
            h, trace = legacy_compressed_forward(layer, h, silu)
        traces.append(trace)
    return model.head @ h.T, traces


def oracle_model(top_k, seed=11, d=12, hidden=16, n_experts=6):
    """Hybrid stack: pruned with trimmed experts, dense, unpruned (quota 0), pruned."""
    rng = np.random.default_rng(seed)
    dense = [make_dense_layer(rng, n_experts=n_experts, d=d, hidden=hidden, top_k=top_k)
             for _ in range(4)]
    x = rng.normal(size=(d, 60))
    layers = [compress_by_hand(dense[0], x, p=0.4, s=0.5, trimmed=(1, 4)), dense[1],
              compress_by_hand(dense[2], x, p=0.4, s=0.0),
              compress_by_hand(dense[3], x, p=0.6, s=0.3)]
    return CompressedModel(layers=layers, head=rng.normal(size=(5, d))), rng


def assert_same_trace(got, want):
    for field in ("selected", "weights", "counts"):
        a, b = getattr(got, field), getattr(want, field)
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), field


class TestSlowPathOracle:
    @pytest.mark.parametrize("top_k", [1, 2, 3])
    @pytest.mark.parametrize("batch", [1, 2, 7, 128, 1024])
    def test_model_forward_byte_identical(self, top_k, batch):
        model, rng = oracle_model(top_k)
        assert model.layers[0].base[Role.UP].dynamic_quota > 0
        assert model.layers[2].base[Role.UP].dynamic_quota == 0
        assert model.layers[2].base[Role.DOWN].dynamic_quota == 0
        for _ in range(3):
            x = rng.normal(size=(12, batch))
            logits, traces = compressed_model_forward(model, x)
            want_logits, want_traces = legacy_model_forward(model, x)
            assert logits.tobytes() == want_logits.tobytes()
            assert len(traces) == len(want_traces) == 4
            for got, want in zip(traces, want_traces):
                assert_same_trace(got, want)

    @pytest.mark.parametrize("top_k", [1, 2, 3])
    @pytest.mark.parametrize("batch", [1, 7, 128, 1024])
    def test_model_forward_within_1e12_of_expit_silu(self, top_k, batch):
        """The exp-form silu moves logits by round-off only, never routing."""
        model, rng = oracle_model(top_k)
        for _ in range(3):
            x = rng.normal(size=(12, batch))
            logits, traces = compressed_model_forward(model, x)
            want_logits, want_traces = legacy_model_forward(model, x, silu=expit_silu)
            assert np.max(np.abs(logits - want_logits)) <= 1e-12 * np.max(np.abs(want_logits))
            for got, want in zip(traces, want_traces):
                np.testing.assert_array_equal(got.selected, want.selected)
                np.testing.assert_array_equal(got.counts, want.counts)

    @pytest.mark.parametrize("top_k", [1, 2, 3])
    @pytest.mark.parametrize("batch", [1, 2, 7, 128, 1024])
    def test_active_columns_match_per_call_masks(self, top_k, batch):
        model, rng = oracle_model(top_k)
        layer = model.layers[0]
        x = rng.normal(size=(12, batch))
        up, down = layer.base[Role.UP], layer.base[Role.DOWN]
        want_up = legacy_dynamic_mask(up, x[up.kept_col_ids, :])
        u_base = up.kept[:, np.searchsorted(up.kept_col_ids, want_up)] @ x[want_up, :]
        want_down = legacy_dynamic_mask(down, silu(u_base)[down.kept_col_ids, :])
        active = active_columns(layer, x)
        np.testing.assert_array_equal(active[Role.UP], want_up)
        np.testing.assert_array_equal(active[Role.DOWN], want_down)

    @pytest.mark.parametrize("top_k", [1, 2, 3])
    @pytest.mark.parametrize("batch", [1, 2, 7, 128, 1024])
    def test_routed_core_matches_cumsum_bounds(self, top_k, batch):
        rng = np.random.default_rng(12)
        layer = make_dense_layer(rng, n_experts=6, d=5, hidden=4, top_k=top_k)
        x = rng.normal(size=(batch, 5))
        payload = rng.normal(size=(6, batch, layer.d_out))
        # the scatter adds into zeros, so a sum of -0.0 terms reads +0.0
        payload[:, :, 0] = -0.0
        calls, want_calls = [], []

        def fill(log):
            def fn(rows, groups, slots):
                for i, start, stop in groups:
                    log.append((i, rows[start:stop].tolist()))
                    slots[start:stop] = payload[i][rows[start:stop]]
            return fn

        y, trace = routed_forward(layer, x, fill(calls))
        want_y, want_trace = legacy_routed_forward(layer, x, fill(want_calls))
        assert calls == want_calls
        assert y.tobytes() == want_y.tobytes()
        assert_same_trace(trace, want_trace)


# The column-major forwards (tokens along columns inside every layer call)
# that the token-major ones replaced, kept as oracles.

def colmajor_routed_forward(layer, x_batch, expert_fn):
    selected, weights = route_batch(layer.gate, layer.top_k, x_batch)
    counts = np.bincount(selected.ravel(), minlength=layer.n_experts).astype(np.int64)
    trace = RoutingTrace(selected=selected, weights=weights, counts=counts)
    order = np.argsort(selected.ravel(), kind="stable")
    rows_sorted = order // layer.top_k
    weights_sorted = weights.ravel()[order]
    y = np.zeros((layer.d_out, x_batch.shape[1]))
    stop = 0
    for i, count in enumerate(trace.counts.tolist()):
        if count:
            start, stop = stop, stop + count
            rows = rows_sorted[start:stop]
            out = expert_fn(i, rows)
            out *= weights_sorted[start:stop]
            y[:, rows] += out
    return y, trace


def colmajor_layer_forward_dense(layer, xb):
    def expert(i, rows):
        h = layer.weights[Role.UP][i] @ xb[:, rows]
        return layer.weights[Role.DOWN][i] @ silu(h, out=h)

    return colmajor_routed_forward(layer, xb, expert)


def colmajor_base_path(layer, xb):
    up, down = layer.base[Role.UP], layer.base[Role.DOWN]
    x_kept = xb[up.kept_col_ids, :]
    up_pos = _active_positions(up, (x_kept * x_kept).sum(axis=1))
    u_base = up.kept[:, up_pos] @ x_kept[up_pos, :]  # (hidden, T)
    g = u_base[down.kept_col_ids, :]
    g = silu(g, out=g)
    down_pos = _active_positions(down, (g * g).sum(axis=1))
    return up_pos, down_pos, u_base


def colmajor_compressed_forward(layer, xb):
    _, down_pos, u_base = colmajor_base_path(layer, xb)
    down = layer.base[Role.DOWN]
    down_masked = down.kept[:, down_pos]
    down_ids = down.kept_col_ids[down_pos]

    def expert(i, rows):
        h_i = u_base.take(rows, axis=1)
        factors = layer.deltas.get(i)
        if factors is not None:
            f = factors[Role.UP]
            h_i += f.u @ (f.v @ xb[:, rows])
        silu(h_i, out=h_i)
        y_i = down_masked @ h_i[down_ids, :]
        if factors is not None:
            f = factors[Role.DOWN]
            y_i += f.u @ (f.v @ h_i)
        return y_i

    return colmajor_routed_forward(layer, xb, expert)


class TestColumnMajorOracle:
    """The token-major forwards against the column-major ones they replaced:
    logits within 1e-12 relative, the same routing and the same active
    columns in every layer."""

    @pytest.mark.parametrize("top_k", [1, 2, 3])
    @pytest.mark.parametrize("batch", [1, 2, 7, 128, 1024])
    def test_model_forward_within_1e12(self, top_k, batch):
        model, rng = oracle_model(top_k)
        for _ in range(3):
            x = rng.normal(size=(12, batch))
            logits, traces = compressed_model_forward(model, x)
            h, h_col = x, np.ascontiguousarray(x)
            for layer, trace in zip(model.layers, traces, strict=True):
                if isinstance(layer, MoELayer):
                    h, got = layer_forward_dense(layer, h)
                    h_col, want = colmajor_layer_forward_dense(layer, h_col)
                else:
                    active = active_columns(layer, h)
                    up_pos, down_pos, _ = colmajor_base_path(layer, h_col)
                    np.testing.assert_array_equal(active[Role.UP], layer.base[Role.UP].kept_col_ids[up_pos])
                    np.testing.assert_array_equal(active[Role.DOWN], layer.base[Role.DOWN].kept_col_ids[down_pos])
                    h, got = compressed_forward(layer, h)
                    h_col, want = colmajor_compressed_forward(layer, h_col)
                for t in (trace, got):
                    np.testing.assert_array_equal(t.selected, want.selected)
                    np.testing.assert_array_equal(t.counts, want.counts)
            want_logits = model.head @ h_col
            assert np.max(np.abs(logits - want_logits)) <= 1e-12 * np.max(np.abs(want_logits))

    @pytest.mark.parametrize("top_k", [1, 2, 3])
    @pytest.mark.parametrize("batch", [1, 2, 7, 128, 1024])
    def test_dense_model_forward_within_1e12(self, top_k, batch):
        rng = np.random.default_rng(15)
        model = MoEModel(layers=[make_dense_layer(rng, n_experts=6, d=12, hidden=16, top_k=top_k)
                                 for _ in range(3)], head=rng.normal(size=(5, 12)))
        x = rng.normal(size=(12, batch))
        logits, traces = moe_forward_dense(model, x)
        h = np.ascontiguousarray(x)
        for layer, trace in zip(model.layers, traces, strict=True):
            h, want = colmajor_layer_forward_dense(layer, h)
            np.testing.assert_array_equal(trace.selected, want.selected)
            np.testing.assert_array_equal(trace.counts, want.counts)
        want_logits = model.head @ h
        assert np.max(np.abs(logits - want_logits)) <= 1e-12 * np.max(np.abs(want_logits))


class TestPerCallOverhead:
    """Count the finiteness scans (as_matrix calls) a compressed forward makes."""

    def count_scans(self, monkeypatch):
        original = d2moe.linalg.as_matrix
        names = []

        def counting(*args, **kwargs):
            names.append(args[1] if len(args) > 1 else kwargs.get("name"))
            return original(*args, **kwargs)

        patched = set()
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] == "d2moe" and getattr(mod, "as_matrix", None) is original:
                monkeypatch.setattr(mod, "as_matrix", counting)
                patched.add(mod_name)
        assert {"d2moe.linalg", "d2moe.moe", "d2moe.pruning", "d2moe.runtime"} <= patched
        return names

    @pytest.mark.parametrize("batch", [1, 128])
    def test_four_layer_forward_scans_once_per_layer(self, monkeypatch, batch):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(12, 60))
        layers = [compress_by_hand(make_dense_layer(rng, n_experts=6, d=12, hidden=16), x,
                                   p=0.5, s=0.5, trimmed=(2,))
                  for _ in range(4)]
        model = CompressedModel(layers=layers, head=rng.normal(size=(3, 12)))
        batch_x = rng.normal(size=(12, batch))
        names = self.count_scans(monkeypatch)
        compressed_model_forward(model, batch_x)
        assert len(names) <= 5, names

    def test_chained_layers_take_the_previous_output_without_a_copy(self):
        """A layer returns the transposed view of a token-major array, and the
        next layer's input check takes it as it is."""
        rng = np.random.default_rng(16)
        x = rng.normal(size=(12, 60))
        dense = make_dense_layer(rng, n_experts=6, d=12, hidden=16)
        layer = compress_by_hand(dense, x, p=0.5, s=0.5)
        for forward, owner in ((layer_forward_dense, dense), (compressed_forward, layer)):
            y, _ = forward(owner, x[:, :7])
            assert y.shape == (12, 7) and y.T.flags.c_contiguous
            assert np.shares_memory(_layer_input(layer, y), y)
            assert not np.shares_memory(_layer_input(layer, x[:, :7]), x)


class TestTrim:
    def make(self, seed=5):
        rng = np.random.default_rng(seed)
        dense = make_dense_layer(rng)
        return compress_by_hand(dense, rng.normal(size=(6, 40)))

    def test_zero_trim_is_identity(self):
        layer = self.make()
        assert trim_deltas(layer, [0.25] * 4, 0) is layer

    def test_trims_lowest_frequency(self):
        layer = self.make()
        trimmed = trim_deltas(layer, [0.4, 0.1, 0.3, 0.2], 2)
        assert trimmed.trimmed == (1, 3)
        assert set(trimmed.deltas) == {0, 2}

    def test_ties_trim_lower_index(self):
        layer = self.make()
        trimmed = trim_deltas(layer, [0.3, 0.1, 0.1, 0.5], 2)
        assert trimmed.trimmed == (1, 2)

    def test_retrims_accumulate(self):
        layer = self.make()
        freq = [0.1, 0.2, 0.3, 0.4]
        once = trim_deltas(layer, freq, 1)
        twice = trim_deltas(once, freq, 2)
        assert twice.trimmed == (0, 1)
        assert set(twice.deltas) == {2, 3}

    def test_census_drops_by_factor_size(self):
        layer = self.make()
        freed = sum(layer.deltas[1][r].u.size + layer.deltas[1][r].v.size
                    for r in (Role.UP, Role.DOWN))
        trimmed = trim_deltas(layer, [0.7, 0.0, 0.2, 0.1], 1)
        assert census_static_params(layer) - census_static_params(trimmed) == freed

    def test_validation(self):
        layer = self.make()
        with pytest.raises(ParameterError):
            trim_deltas(layer, [0.25] * 4, 5)
        with pytest.raises(ShapeError):
            trim_deltas(layer, [0.5, 0.5], 1)
        with pytest.raises(ShapeError, match="unknown expert 4"):
            CompressedLayer(gate=layer.gate, base=layer.base, deltas={**layer.deltas, 4: layer.deltas[0]},
                            top_k=layer.top_k)


class TestParamFormulas:
    """`closed_form_params(count, m, p, base_fraction)`: static storage takes
    (n, s/2), active weights per token take (k_top, s)."""

    def test_static_count_example(self):
        original, total, literal = closed_form_params(8, 100.0, 0.5, 0.2 / 2)
        assert original == pytest.approx(800.0)
        assert total == pytest.approx(400.0 + 90.0)  # factors 8*0.5*100, base (1 - 0.1)*100
        assert literal == pytest.approx(410.0)
        assert literal != total

    def test_active_count_example(self):
        original, total, literal = closed_form_params(2, 100.0, 0.5, 0.2)
        assert original == pytest.approx(200.0)
        assert total == pytest.approx(100.0 + 80.0)  # factors 2*0.5*100, base (1 - 0.2)*100
        assert literal == pytest.approx(120.0)

    def test_literal_flagging(self):
        def differs(count, m, p, base_fraction):
            _, total, literal = closed_form_params(count, m, p, base_fraction)
            return literal != total
        # the static shorthand never matches the survivor count (s/2 vs 1-s/2)
        assert differs(4, 10.0, 1.0, 0.0 / 2)
        assert differs(4, 10.0, 0.5, 0.5 / 2)
        # the active shorthand lines up exactly at s = 0.5 and nowhere else
        assert not differs(2, 10.0, 0.5, 0.5)
        assert differs(2, 10.0, 0.5, 0.25)

    def test_parameter_ranges(self):
        # p outside (0, 1] and s outside [0, 1) are rejected by the config
        # before any count is formed
        with pytest.raises(ConfigError):
            CompressionConfig(delta_ratio=0.0, sparsity=0.2).validate()
        with pytest.raises(ConfigError):
            CompressionConfig(delta_ratio=0.5, sparsity=1.0).validate()


class TestCensus:
    def test_static_census_hand_count(self):
        rng = np.random.default_rng(6)
        dense = make_dense_layer(rng, n_experts=3, d=6, hidden=8)
        layer = compress_by_hand(dense, rng.normal(size=(6, 40)), p=0.5, s=0.5)
        # kept: up 8 x (6-1), down 6 x (8-2); factors: 3 experts, both roles
        k_up = rank_for_ratio(8, 6, 0.5)
        k_down = rank_for_ratio(6, 8, 0.5)
        expected = 8 * 5 + 6 * 6 + 3 * ((8 + 6) * k_up + (6 + 8) * k_down)
        assert census_static_params(layer) == expected

    def test_active_census_single_expert(self):
        rng = np.random.default_rng(7)
        dense = make_dense_layer(rng, n_experts=1, d=6, hidden=8, top_k=1)
        layer = compress_by_hand(dense, rng.normal(size=(6, 40)), p=0.5, s=0.5)
        batch = rng.normal(size=(6, 12))
        # every token hits expert 0: base active cols + full factor cost
        k_up = rank_for_ratio(8, 6, 0.5)
        k_down = rank_for_ratio(6, 8, 0.5)
        expected = 8 * 3 + 6 * 4 + (8 + 6) * k_up + (6 + 8) * k_down
        assert census_active_params(layer, compressed_forward(layer, batch)[1]) == pytest.approx(expected)

    def test_census_equals_formula_on_divisible_config(self):
        """d = hidden = 32, p = 0.5, s = 0.5 make every floor exact, so the
        census must equal the closed formulas to the last bit."""
        rng = np.random.default_rng(8)
        dense = make_dense_layer(rng, n_experts=4, d=32, hidden=32, top_k=2)
        x = rng.normal(size=(32, 48))
        layer = compress_by_hand(dense, x, p=0.5, s=0.5)
        report = param_report(layer, 0.5, 0.5, compressed_forward(layer, rng.normal(size=(32, 16)))[1])
        assert report.m == 2048
        assert report.census_static == report.compressed_static
        assert report.census_active_per_token == report.compressed_active
        assert report.original_static == 4 * 2048

    def test_layer_shape_validation(self):
        rng = np.random.default_rng(9)
        dense = make_dense_layer(rng)
        layer = compress_by_hand(dense, rng.normal(size=(6, 40)))
        with pytest.raises(ShapeError):
            CompressedLayer(gate=layer.gate, base={Role.UP: layer.base[Role.UP]},
                            deltas={}, top_k=1)
        with pytest.raises(ShapeError):
            census_active_params(layer, layer_forward_dense(make_dense_layer(rng, n_experts=3),
                                                            rng.normal(size=(6, 4)))[1])

    @pytest.mark.parametrize("top_k", [1.5, 2.0, True, np.bool_(True), "2", None, 0, 5, np.int64(5)],
                             ids=repr)
    def test_top_k_must_be_an_integer_in_range(self, top_k):
        layer = compress_by_hand(make_dense_layer(np.random.default_rng(9)),
                                 np.random.default_rng(10).normal(size=(6, 40)))
        with pytest.raises(ShapeError, match="top_k"):
            dataclasses.replace(layer, top_k=top_k)

    def test_numpy_integer_top_k_is_stored_as_an_int(self):
        rng = np.random.default_rng(9)
        layer = compress_by_hand(make_dense_layer(rng), rng.normal(size=(6, 40)))
        again = dataclasses.replace(layer, top_k=np.int64(2))
        assert type(again.top_k) is int and again.top_k == 2
        x = rng.normal(size=(6, 3))
        assert np.array_equal(compressed_forward(again, x)[0], compressed_forward(layer, x)[0])
