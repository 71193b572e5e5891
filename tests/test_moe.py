"""Routing, dense forward, and calibration-capture tests.

The routing oracle enumerates every k-subset of experts instead of
sorting; the forward oracle is a straight scalar loop. Both are coded
independently of the batched implementations they check.
"""

import itertools
import math
import warnings

import numpy as np
import pytest
from scipy.special import expit

from d2moe.errors import DegenerateInputError, ShapeError
from d2moe.moe import (
    MoELayer,
    MoEModel,
    Role,
    capture_calibration,
    expert_frequency,
    layer_forward_dense,
    moe_forward_dense,
    route_batch,
    routed_forward,
    silu,
    silu_grad,
)


def subset_oracle(logits, k):
    """Best k-subset by total logit, ties to lexicographically first subset.

    itertools.combinations yields subsets in lexicographic order and the
    strict > keeps the first maximizer, which is exactly lowest-index
    tie-breaking.
    """
    best, best_sum = None, -math.inf
    for combo in itertools.combinations(range(len(logits)), k):
        s = sum(logits[i] for i in combo)
        if s > best_sum:
            best, best_sum = combo, s
    return set(best)


def make_layer(rng, n_experts, d_model, hidden, d_out, top_k):
    ups, downs = zip(*[(rng.normal(size=(hidden, d_model)), rng.normal(size=(d_out, hidden)))
                       for _ in range(n_experts)])
    return MoELayer(gate=rng.normal(size=(n_experts, d_model)),
                    weights={Role.UP: ups, Role.DOWN: downs}, top_k=top_k)


def route_logits(logits, k):
    """route_batch on one token whose router logits are exactly `logits`."""
    sel, w = route_batch(np.eye(len(logits)), k, np.asarray(logits, dtype=np.float64)[:, None])
    return sel[0], w[0]


UP, DOWN = np.ones((3, 5, 4)), np.ones((3, 4, 5))  # 3 experts, d_model 4, hidden 5


def with_entry(a, index, value):
    a = a.copy()
    a[index] = value
    return a


class TestLayerValidation:
    def test_keeps_a_c_order_stack_and_copies_the_callers_dict(self):
        weights = {Role.UP: UP, Role.DOWN: DOWN}
        layer = MoELayer(gate=np.ones((3, 4)), weights=weights, top_k=1)
        assert layer.weights[Role.UP] is UP and layer.weights[Role.DOWN] is DOWN
        assert layer.weights is not weights
        assert weights[Role.UP] is UP and weights[Role.DOWN] is DOWN and len(weights) == 2
        assert (layer.n_experts, layer.d_model, layer.hidden, layer.d_out) == (3, 4, 5, 4)

    def test_converts_a_sequence_without_touching_it(self):
        rng = np.random.default_rng(20)
        ups = [np.asfortranarray(rng.normal(size=(5, 4))) for _ in range(3)]
        downs = [rng.normal(size=(4, 5)).astype(np.float32) for _ in range(3)]
        weights = {Role.UP: ups, Role.DOWN: downs}
        layer = MoELayer(gate=np.ones((3, 4)), weights=weights, top_k=1)
        assert weights[Role.UP] is ups and weights[Role.DOWN] is downs
        assert all(w.flags["F_CONTIGUOUS"] for w in ups) and downs[0].dtype == np.float32
        for role, mats in ((Role.UP, ups), (Role.DOWN, downs)):
            got = layer.weights[role]
            assert got.dtype == np.float64 and got.flags["C_CONTIGUOUS"]
            assert np.array_equal(got, np.stack(mats).astype(np.float64))

    @pytest.mark.parametrize("weights, match", [
        ({Role.UP: UP}, "roles"),
        ({Role.UP: UP[:2], Role.DOWN: DOWN[:2]}, "expert count"),
        ({Role.UP: UP, Role.DOWN: DOWN[:2]}, "expert count"),
        ({Role.UP: UP, Role.DOWN: np.ones((3, 4, 6))}, "hidden"),
        ({Role.UP: np.ones((3, 5, 3)), Role.DOWN: DOWN}, "d_model"),
        ({Role.UP: with_entry(UP, (1, 2, 3), np.nan), Role.DOWN: DOWN}, "non-finite"),
        ({Role.UP: UP, Role.DOWN: with_entry(DOWN, (2, 0, 0), np.inf)}, "non-finite"),
        ({Role.UP: [np.ones((5, 4)), np.ones((5, 3)), np.ones((5, 4))], Role.DOWN: DOWN}, "float64 array"),
        ({Role.UP: UP[0], Role.DOWN: DOWN}, "3-D"),
        ({Role.UP: UP.astype(complex), Role.DOWN: DOWN}, "float64 array"),
    ], ids=["missing-role", "stack-length", "down-length", "hidden", "d-model", "nan", "inf",
            "ragged", "one-matrix", "complex"])
    def test_rejects_bad_stacks(self, weights, match):
        with pytest.raises(ShapeError, match=match):
            MoELayer(gate=np.ones((3, 4)), weights=weights, top_k=1)

    def test_rejects_a_complex_gate(self):
        with pytest.raises(ShapeError, match="gate: not convertible"):
            MoELayer(gate=np.ones((3, 4)) * (1 + 1j), weights={Role.UP: UP, Role.DOWN: DOWN}, top_k=1)

    @pytest.mark.parametrize("top_k", [1.5, 2.0, True, np.bool_(True), "2", None, 0, 4, np.int64(4)],
                             ids=repr)
    def test_top_k_must_be_an_integer_in_range(self, top_k):
        with pytest.raises(ShapeError, match="top_k"):
            MoELayer(gate=np.ones((3, 4)), weights={Role.UP: UP, Role.DOWN: DOWN}, top_k=top_k)

    def test_numpy_integer_top_k_is_stored_as_an_int(self):
        layer = MoELayer(gate=np.ones((3, 4)), weights={Role.UP: UP, Role.DOWN: DOWN},
                         top_k=np.int32(2))
        assert type(layer.top_k) is int and layer.top_k == 2
        assert layer_forward_dense(layer, np.ones((4, 2)))[0].shape == (4, 2)


class TestGating:
    def test_two_logit_softmax(self):
        # router logits [1,2,3] via d_model=1 and x=[1]
        layer = MoELayer(gate=np.array([[1.0], [2.0], [3.0]]),
                         weights={Role.UP: np.ones((3, 2, 1)), Role.DOWN: np.ones((3, 1, 2))},
                         top_k=2)
        sel, w = route_batch(layer.gate, layer.top_k, np.array([[1.0]]))
        assert sel[0].tolist() == [2, 1]
        np.testing.assert_allclose(w[0], [0.73106, 0.26894], atol=1e-5)

    def test_k1_one_hot(self):
        rng = np.random.default_rng(0)
        layer = make_layer(rng, 5, 3, 4, 3, top_k=1)
        x = rng.normal(size=(3, 20))
        sel, w = route_batch(layer.gate, layer.top_k, x)
        assert np.all(w == 1.0)
        np.testing.assert_array_equal(sel[:, 0], np.argmax(layer.gate @ x, axis=0))

    def test_subset_enumeration_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            logits = rng.normal(size=4)
            sel, _ = route_logits(logits, 2)
            assert set(int(i) for i in sel) == subset_oracle(list(logits), 2)

    def test_tie_breaks_to_lower_index(self):
        assert route_logits([2.0, 2.0, 2.0], 2)[0].tolist() == [0, 1]
        assert route_logits([1.0, 3.0, 3.0], 1)[0].tolist() == [1]

    def test_weights_sum_to_one_with_support_k(self):
        rng = np.random.default_rng(2)
        layer = make_layer(rng, 6, 4, 5, 4, top_k=3)
        sel, w = route_batch(layer.gate, layer.top_k, rng.normal(size=(4, 25)))
        assert sel.shape == w.shape == (25, 3)
        for t in range(25):
            assert len(set(sel[t].tolist())) == 3
            assert np.all(w[t] > 0)
            assert abs(w[t].sum() - 1.0) <= 1e-12

    def test_selected_set_invariant_to_positive_logit_scaling(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            logits = rng.normal(size=6)
            base = set(int(i) for i in route_logits(logits, 2)[0])
            for c in (0.1, 7.0, 1000.0):
                assert set(int(i) for i in route_logits(c * logits, 2)[0]) == base


def topk_select(logits, k):
    """Indices of the k largest logits in descending order, ties to the lower index."""
    return np.argsort(-logits, kind="stable")[:k]


def per_token_routing(logits, k):
    """Reference router: topk_select plus a softmax over the survivors, token by token."""
    selected = np.empty((logits.shape[1], k), dtype=np.int64)
    weights = np.empty((logits.shape[1], k))
    for t in range(logits.shape[1]):
        sel = topk_select(logits[:, t], k)
        z = logits[sel, t]
        e = np.exp(z - np.max(z))
        selected[t], weights[t] = sel, e / np.sum(e)
    return selected, weights


class TestRouteBatch:
    @pytest.mark.parametrize("integer_logits", [False, True])
    def test_matches_per_token_reference_bytewise(self, integer_logits):
        rng = np.random.default_rng(30 + integer_logits)
        for _ in range(12):
            n, d = int(rng.integers(2, 33)), int(rng.integers(1, 9))
            for k in range(1, n + 1):
                for t in (1, int(rng.integers(2, 200))):
                    if integer_logits:  # small integers force ties in the logits
                        gate_w = rng.integers(-2, 3, size=(n, d)).astype(np.float64)
                        x = rng.integers(-2, 3, size=(d, t)).astype(np.float64)
                    else:
                        gate_w, x = rng.normal(size=(n, d)), rng.normal(size=(d, t))
                    # a C-order batch, and the transposed view of a token-major
                    # one that routed_forward passes
                    for xv in (x, np.ascontiguousarray(x.T).T):
                        want_sel, want_w = per_token_routing(gate_w @ xv, k)
                        sel, w = route_batch(gate_w, k, xv)
                        assert np.array_equal(sel, want_sel)
                        assert w.shape == want_w.shape and w.tobytes() == want_w.tobytes()


class TestSilu:
    """silu is z / (1 + exp(min(-z, 709))); the oracle is z * expit(z)."""

    def test_matches_expit_form(self):
        z = np.concatenate([np.linspace(-700.0, 700.0, 20001),
                            np.random.default_rng(41).normal(scale=8.0, size=5000), [0.0, -0.0]])
        np.testing.assert_allclose(silu(z), z * expit(z), rtol=1e-15, atol=0)

    def test_clipped_tail_is_tiny(self):
        z = np.concatenate([np.linspace(-1e4, -700.0, 20001)[:-1], [-709.0, -709.9, -745.0]])
        assert np.max(np.abs(silu(z) - z * expit(z))) <= 1e-300

    def test_no_floating_point_warnings(self):
        z = np.array([1000.0, -1000.0, -745.0, -709.9, 1e-300, -1e-300, 0.0, -0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = silu(z)
        assert np.all(np.isfinite(got))
        assert got[0] == 1000.0 and got[6] == 0.0

    def test_in_place_is_byte_equal(self):
        z = np.random.default_rng(42).normal(scale=10.0, size=(16, 33))
        want = silu(z.copy())
        out = silu(z, out=z)
        assert out is z
        assert z.tobytes() == want.tobytes()

    def test_separate_out_buffer(self):
        z = np.random.default_rng(43).normal(size=(5, 7))
        out = np.empty_like(z)
        assert silu(z, out=out) is out
        assert out.tobytes() == silu(z).tobytes()

    def test_leaves_input_unchanged(self):
        z = np.random.default_rng(44).normal(scale=10.0, size=(8, 9))
        before = z.copy()
        silu(z)
        assert z.tobytes() == before.tobytes()


class TestSiluGrad:
    """silu_grad takes the sigmoid from silu's clipped exp; the oracle takes
    it from expit. The two sigmoids differ by an ulp or two, and the terms of
    1 + z (1 - s) cancel near z = -1.28, so the bound is relative to the size
    of the terms, s (1 + |z|), not to the result."""

    def test_matches_expit_form(self):
        z = np.concatenate([np.linspace(-700.0, 700.0, 20001), np.linspace(-2.0, 0.0, 2001),
                            np.random.default_rng(45).normal(scale=8.0, size=5000), [0.0, -0.0]])
        s = expit(z)
        want = s * (1.0 + z * (1.0 - s))
        assert np.all(np.abs(silu_grad(z) - want) <= 1e-15 * s * (1.0 + np.abs(z)))

    def test_no_floating_point_warnings(self):
        z = np.array([1000.0, -1000.0, -745.0, -709.9, 1e-300, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = silu_grad(z)
        assert np.all(np.isfinite(got))
        assert got[0] == 1.0 and got[5] == 0.5
        assert np.all(np.abs(got[1:4]) <= 1e-300)


class TestRoutedForward:
    def test_callback_sees_each_experts_ascending_tokens_once(self):
        rng = np.random.default_rng(31)
        layer = make_layer(rng, n_experts=6, d_model=4, hidden=5, d_out=3, top_k=2)
        x = rng.normal(size=(40, 4))  # token-major
        selected, weights = route_batch(layer.gate, layer.top_k, x.T)
        calls = []

        def fill(rows, groups, slots):
            assert slots.shape == (rows.size, layer.d_out) == (80, 3)
            for i, start, stop in groups:
                calls.append((i, rows[start:stop].tolist()))
                slots[start:stop] = float(i + 1)

        y, trace = routed_forward(layer, x, fill)
        want_calls = [(i, np.nonzero((selected == i).any(axis=1))[0].tolist())
                      for i in range(6) if np.any(selected == i)]
        assert calls == want_calls
        np.testing.assert_array_equal(trace.selected, selected)
        want_y = np.zeros((40, 3))
        for t in range(40):
            for j in range(2):
                want_y[t] += weights[t, j] * (selected[t, j] + 1)
        np.testing.assert_allclose(y, want_y, rtol=1e-15, atol=0)


class TestDenseForward:
    def test_single_expert_equals_plain_ffn(self):
        rng = np.random.default_rng(4)
        layer = make_layer(rng, 1, 3, 6, 3, top_k=1)
        x = rng.normal(size=(3, 5))
        y, _ = layer_forward_dense(layer, x)
        expected = layer.weights[Role.DOWN][0] @ silu(layer.weights[Role.UP][0] @ x)
        np.testing.assert_allclose(y, expected, atol=1e-14)

    def test_identical_experts_ignore_routing(self):
        rng = np.random.default_rng(5)
        up, down = rng.normal(size=(6, 3)), rng.normal(size=(3, 6))
        layer = MoELayer(gate=rng.normal(size=(4, 3)),
                         weights={Role.UP: np.stack([up] * 4), Role.DOWN: np.stack([down] * 4)},
                         top_k=2)
        x = rng.normal(size=(3, 7))
        y, _ = layer_forward_dense(layer, x)
        np.testing.assert_allclose(y, down @ silu(up @ x), atol=1e-12)

    def test_scalar_loop_oracle(self):
        """Batched forward equals token-by-token scalar arithmetic."""
        rng = np.random.default_rng(6)
        layer = make_layer(rng, 2, 3, 4, 3, top_k=1)
        head = rng.normal(size=(5, 3))
        model = MoEModel(layers=[layer], head=head)
        x = rng.normal(size=(3, 3))
        logits, traces = moe_forward_dense(model, x)

        for t in range(3):
            gl = [sum(layer.gate[i][a] * x[a][t] for a in range(3)) for i in range(2)]
            win = 0 if gl[0] >= gl[1] else 1
            e = {role: layer.weights[role][win] for role in (Role.UP, Role.DOWN)}
            hid = []
            for r in range(4):
                z = sum(e[Role.UP][r][a] * x[a][t] for a in range(3))
                hid.append(z / (1.0 + math.exp(-z)))
            out = [sum(e[Role.DOWN][d][r] * hid[r] for r in range(4)) for d in range(3)]
            for c in range(5):
                ref = sum(head[c][d] * out[d] for d in range(3))
                assert abs(logits[c][t] - ref) <= 1e-12 * max(1.0, abs(ref))
            assert traces[0].selected[t][0] == win
            assert traces[0].weights[t][0] == 1.0

    def test_trace_counts_match_selections(self):
        rng = np.random.default_rng(7)
        layer = make_layer(rng, 5, 4, 6, 4, top_k=2)
        x = rng.normal(size=(4, 40))
        _, trace = layer_forward_dense(layer, x)
        counts = np.zeros(5, dtype=int)
        for row in trace.selected:
            for i in row:
                counts[i] += 1
        np.testing.assert_array_equal(trace.counts, counts)
        assert trace.counts.sum() == 40 * 2

    def test_dimension_mismatch_raises(self):
        rng = np.random.default_rng(8)
        layer = make_layer(rng, 2, 3, 4, 3, top_k=1)
        with pytest.raises(ShapeError):
            layer_forward_dense(layer, rng.normal(size=(4, 2)))


class TestCalibrationCapture:
    def test_single_token_single_gram(self):
        rng = np.random.default_rng(9)
        # gate forces expert 0: its row dominates every x with positive first coord
        ups, downs = zip(*[(rng.normal(size=(4, 2)), rng.normal(size=(2, 4))) for _ in range(3)])
        layer = MoELayer(gate=np.array([[100.0, 0.0], [0.0, 1.0], [-1.0, 0.0]]),
                         weights={Role.UP: ups, Role.DOWN: downs}, top_k=1)
        model = MoEModel(layers=[layer], head=np.eye(2))
        x = np.array([[1.0], [0.5]])
        _, stats = capture_calibration(model, x)
        traces = [st.trace for st in stats]
        np.testing.assert_allclose(stats[0].grams[Role.UP][0], x @ x.T, atol=0)
        for i in (1, 2):
            assert not stats[0].grams[Role.UP][i].any()
            assert not stats[0].grams[Role.DOWN][i].any()
            assert stats[0].trace.counts[i] == 0
        assert stats[0].trace.counts[0] == 1
        assert traces[0].counts[0] == 1

    def test_gram_recomputation_oracle(self):
        """Grams match a recomputation from the recorded per-token routing."""
        rng = np.random.default_rng(10)
        l0 = make_layer(rng, 4, 5, 6, 5, top_k=2)
        l1 = make_layer(rng, 3, 5, 7, 5, top_k=1)
        model = MoEModel(layers=[l0, l1], head=rng.normal(size=(3, 5)))
        x = rng.normal(size=(5, 64))
        _, stats = capture_calibration(model, x)
        traces = [st.trace for st in stats]

        h = x
        for layer, st, trace in zip(model.layers, stats, traces):
            up_ref = [np.zeros((layer.d_model,) * 2) for _ in range(layer.n_experts)]
            down_ref = [np.zeros((layer.hidden,) * 2) for _ in range(layer.n_experts)]
            for t in range(h.shape[1]):
                for i in trace.selected[t]:
                    xi = h[:, t:t + 1]
                    hi = silu(layer.weights[Role.UP][i] @ xi)
                    up_ref[i] += xi @ xi.T
                    down_ref[i] += hi @ hi.T
            for i in range(layer.n_experts):
                np.testing.assert_allclose(st.grams[Role.UP][i], up_ref[i], atol=1e-10)
                np.testing.assert_allclose(st.grams[Role.DOWN][i], down_ref[i], atol=1e-10)
                assert (st.rows[i].size if i in st.rows else 0) == trace.counts[i]
            h, _ = layer_forward_dense(layer, h)

    def test_gram_symmetry_and_psd(self):
        rng = np.random.default_rng(11)
        layer = make_layer(rng, 3, 4, 5, 4, top_k=2)
        model = MoEModel(layers=[layer], head=rng.normal(size=(2, 4)))
        _, stats = capture_calibration(model, rng.normal(size=(4, 30)))
        for role in (Role.UP, Role.DOWN):
            for g in stats[0].grams[role]:
                np.testing.assert_allclose(g, g.T, atol=1e-9)
                assert np.linalg.eigvalsh(g).min() >= -1e-9

    def test_empty_calibration_rejected(self):
        rng = np.random.default_rng(12)
        layer = make_layer(rng, 2, 3, 4, 3, top_k=1)
        model = MoEModel(layers=[layer], head=np.eye(3))
        with pytest.raises((DegenerateInputError, ShapeError)):
            capture_calibration(model, np.zeros((3, 0)))

    def test_total_gram_sums_expert_grams(self):
        """With top_k = 1 every token reaches one expert, so the Up Gram
        stack sums to X X^T of all tokens. The total the static pruning
        reads is Python's `sum` of the stack: the expert loop, to the byte."""
        rng = np.random.default_rng(13)
        layer = make_layer(rng, 6, 4, 5, 4, top_k=1)
        model = MoEModel(layers=[layer], head=np.eye(4))
        x = rng.normal(size=(4, 16))
        _, stats = capture_calibration(model, x)
        for role in (Role.UP, Role.DOWN):
            grams = stats[0].grams[role]
            assert grams.shape == (6, *grams.shape[1:]) and grams.flags["C_CONTIGUOUS"]
            total = np.zeros_like(grams[0])
            for g in grams:
                total += g
            assert sum(grams).tobytes() == total.tobytes()
        np.testing.assert_allclose(sum(stats[0].grams[Role.UP]), x @ x.T, atol=1e-12)

    def test_capture_records_the_dense_forward(self):
        """The capture is the dense forward: the same final hidden state and
        routing, each layer's input, and for every routed expert its token
        rows."""
        rng = np.random.default_rng(14)
        l0 = make_layer(rng, 4, 5, 6, 5, top_k=2)
        l1 = make_layer(rng, 3, 5, 7, 5, top_k=1)
        model = MoEModel(layers=[l0, l1], head=rng.normal(size=(3, 5)))
        x = rng.normal(size=(5, 40))
        hidden, stats = capture_calibration(model, x)
        logits, traces = moe_forward_dense(model, x)
        assert np.array_equal(model.head @ hidden, logits)
        h = x
        for layer, st, trace in zip(model.layers, stats, traces):
            assert np.array_equal(st.x, h)
            assert np.array_equal(st.trace.selected, trace.selected)
            assert np.array_equal(st.trace.weights, trace.weights)
            for i in range(layer.n_experts):
                rows = np.flatnonzero((trace.selected == i).any(axis=1))
                if rows.size == 0:
                    assert i not in st.rows
                    continue
                assert np.array_equal(st.rows[i], rows)
            h, _ = layer_forward_dense(layer, h)


class TestExpertFrequency:
    def test_counts_3_1(self):
        tr = make_trace(counts=[3, 1])
        np.testing.assert_allclose(expert_frequency(tr.counts), [0.75, 0.25], atol=0)

    def test_uniform(self):
        tr = make_trace(counts=[5, 5, 5, 5])
        np.testing.assert_allclose(expert_frequency(tr.counts), [0.25] * 4, atol=0)

    def test_seeded_count_oracle(self):
        rng = np.random.default_rng(14)
        layer = make_layer(rng, 4, 3, 5, 3, top_k=2)
        x = rng.normal(size=(3, 50))
        _, trace = layer_forward_dense(layer, x)
        freq = expert_frequency(trace.counts)
        np.testing.assert_allclose(freq, trace.counts / 100.0, atol=0)
        assert abs(freq.sum() - 1.0) <= 1e-12

    def test_zero_tokens_rejected(self):
        with pytest.raises(DegenerateInputError):
            expert_frequency(make_trace(counts=[0, 0]).counts)


def make_trace(counts):
    counts = np.asarray(counts, dtype=np.int64)
    total = int(counts.sum())
    sel = np.repeat(np.arange(len(counts)), counts).reshape(max(total, 0), 1)
    if total == 0:
        sel = np.zeros((0, 1), dtype=np.int64)
    from d2moe.moe import RoutingTrace
    return RoutingTrace(selected=sel, weights=np.ones((sel.shape[0], 1)), counts=counts)
