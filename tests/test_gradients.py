"""Analytic-gradient and Fisher tests against finite differences and
against the per-token backward the shared reverse sweep replaced.

The finite-difference oracle never touches the backward code: it rebuilds
the model with one entry nudged and recomputes the log-likelihood
numerically. Seeds are chosen so routing margins are far wider than the
step size; a top-k flip under perturbation would invalidate the comparison,
and the helper guards against that by checking the selected sets match at x.

`legacy_backward_logloss` is the old single-token backward, kept here as an
oracle: a per-token forward cache and a loop over the selected experts,
independent of `gradients._reverse_sweep`. `per_token_fisher` is the slow path
the batched closed-form Fisher replaced: one forward and one legacy backward
per token, labels drawn with one `rng.choice` per token. `backward_logloss`
and the batched Fisher must match them to 1e-12 of each block's maximum,
with the same exact zeros and the same sampled labels.
"""

import math

import numpy as np
import pytest

from d2moe.config import CompressionConfig
from d2moe.errors import NumericalError, ParameterError
from d2moe.fixtures import gen_fixture
from d2moe.gradients import GradientSet, _draw_labels, backward_logloss
from d2moe.merge import weighted_merge
from d2moe.moe import (MoELayer, MoEModel, Role, _softmax, moe_forward_dense,
                       route_batch, silu, silu_grad)
from d2moe.pipeline import compress, compute_layer_stats

H = 1e-5


def make_model(seed, n_experts=2, d_model=4, hidden=5, layers=2, classes=3, top_k=1):
    rng = np.random.default_rng(seed)
    lys = []
    for _ in range(layers):
        ups, downs = zip(*[(rng.normal(size=(hidden, d_model)), rng.normal(size=(d_model, hidden)))
                           for _ in range(n_experts)])
        lys.append(MoELayer(gate=rng.normal(size=(n_experts, d_model)),
                            weights={Role.UP: ups, Role.DOWN: downs}, top_k=top_k))
    return MoEModel(layers=lys, head=rng.normal(size=(classes, d_model)))


def _forward_with_cache(model, x):
    """Single-token forward keeping the activations the legacy backward needs."""
    caches = []
    h = x
    for layer in model.layers:
        sel, g = route_batch(layer.gate, layer.top_k, h[:, None])
        sel, g = sel[0], g[0]
        per_expert = {}
        y = np.zeros(layer.d_out)
        for j, i in enumerate(sel):
            a = layer.weights[Role.UP][i] @ h
            hid = silu(a)
            e = layer.weights[Role.DOWN][i] @ hid
            per_expert[int(i)] = (a, hid, e)
            y += g[j] * e
        caches.append((h, sel, g, per_expert))
        h = y
    logits = model.head @ h
    return logits, h, caches


def legacy_backward_logloss(model, x, y):
    """Per-token backward: the gradient of log p(y|x), one selected expert at a time."""
    logits, final_h, caches = _forward_with_cache(model, x)
    p = _softmax(logits)
    lbar = -p
    lbar[y] += 1.0
    head_grad = np.outer(lbar, final_h)
    ybar = model.head.T @ lbar
    gate_grads = [np.zeros_like(layer.gate) for layer in model.layers]
    expert_grads = [{role: np.zeros_like(layer.weights[role]) for role in (Role.UP, Role.DOWN)}
                    for layer in model.layers]
    for l in range(len(model.layers) - 1, -1, -1):
        layer = model.layers[l]
        xin, sel, g, per_expert = caches[l]
        xbar = np.zeros_like(xin)
        gbar = np.array([per_expert[int(i)][2] @ ybar for i in sel])
        zbar = g * (gbar - g @ gbar)
        gate_grads[l][sel, :] += zbar[:, None] * xin[None, :]
        xbar += layer.gate[sel].T @ zbar
        for j, i in enumerate(sel):
            i = int(i)
            a, hid, _ = per_expert[i]
            ebar = g[j] * ybar
            expert_grads[l][Role.DOWN][i] += np.outer(ebar, hid)
            hbar = layer.weights[Role.DOWN][i].T @ ebar
            abar = hbar * silu_grad(a)
            expert_grads[l][Role.UP][i] += np.outer(abar, xin)
            xbar += layer.weights[Role.UP][i].T @ abar
        ybar = xbar
    return GradientSet(gate_grads=gate_grads, expert_grads=expert_grads, head_grad=head_grad)


def per_token_fisher(model, calib, mode="sampled-label", seed=0, labels=None):
    """Fisher stacks (per layer and role, block i for expert i) and labels
    from one forward and one legacy backward per token."""
    rng = np.random.default_rng(seed)
    acc = [{role: np.zeros_like(layer.weights[role]) for role in (Role.UP, Role.DOWN)}
           for layer in model.layers]
    drawn = []
    for t in range(calib.shape[1]):
        x = calib[:, t]
        if mode == "sampled-label":
            logits, _, _ = _forward_with_cache(model, x)
            y = int(rng.choice(model.num_classes, p=_softmax(logits)))
        else:
            y = int(labels[t])
        drawn.append(y)
        grads = legacy_backward_logloss(model, x, y)
        for l, layer_grads in enumerate(grads.expert_grads):
            for role in (Role.UP, Role.DOWN):
                acc[l][role] += layer_grads[role] * layer_grads[role]
    for layer_acc in acc:
        for role in (Role.UP, Role.DOWN):
            layer_acc[role] /= calib.shape[1]
    return acc, drawn


def batched_fisher(model, calib, mode="sampled-label", seed=0, labels=None):
    """The Fisher stacks `compress` merges with: those of
    `compute_layer_stats`, whose chunks `fisher_accumulate` sums."""
    cfg = CompressionConfig(merge_method="fisher", fisher_mode=mode, seed=seed)
    stats, _ = compute_layer_stats(model, calib, cfg, labels=labels)
    return [st.fisher for st in stats]


def assert_block_matches(a, b, rel=1e-12):
    """Within rel of the block's maximum, with identical exact zeros."""
    np.testing.assert_array_equal(a == 0, b == 0)
    assert np.abs(a - b).max() <= rel * np.abs(b).max()


def assert_fisher_matches(got, want):
    for got_layer, want_layer in zip(got, want, strict=True):
        for role in (Role.UP, Role.DOWN):
            assert got_layer[role].shape == want_layer[role].shape
            for got_block, want_block in zip(got_layer[role], want_layer[role]):
                assert_block_matches(got_block, want_block)


def log_likelihood(model, x, y):
    logits, _ = moe_forward_dense(model, x[:, None])
    z = logits[:, 0]
    return float(z[y] - math.log(np.sum(np.exp(z - z.max()))) - z.max())


def rebuild(model, layer_idx, expert_idx, role, entry, delta):
    """Copy of the model with one parameter entry shifted by delta.

    layer_idx=None targets the head; expert_idx=None targets a gate.
    """
    head = model.head.copy()
    layers = []
    for l, layer in enumerate(model.layers):
        gate = layer.gate.copy()
        weights = {r: w.copy() for r, w in layer.weights.items()}
        if l == layer_idx:
            if expert_idx is None:
                gate[entry] += delta
            else:
                weights[role][expert_idx][entry] += delta
        layers.append(MoELayer(gate=gate, weights=weights, top_k=layer.top_k))
    if layer_idx is None:
        head[entry] += delta
    return MoEModel(layers=layers, head=head)


def central_difference(model, x, y, layer_idx, expert_idx, role, entry):
    plus = log_likelihood(rebuild(model, layer_idx, expert_idx, role, entry, H), x, y)
    minus = log_likelihood(rebuild(model, layer_idx, expert_idx, role, entry, -H), x, y)
    return (plus - minus) / (2.0 * H)


def max_relative_error(model, x, y):
    grads = backward_logloss(model, x, int(y))
    worst = 0.0
    for l, layer in enumerate(model.layers):
        for entry in np.ndindex(layer.gate.shape):
            fd = central_difference(model, x, y, l, None, None, entry)
            an = grads.gate_grads[l][entry]
            worst = max(worst, abs(an - fd) / max(abs(fd), 1e-6))
        for i in range(layer.n_experts):
            for role in (Role.UP, Role.DOWN):
                for entry in np.ndindex(layer.weights[role][i].shape):
                    fd = central_difference(model, x, y, l, i, role, entry)
                    an = grads.expert_grads[l][role][i][entry]
                    worst = max(worst, abs(an - fd) / max(abs(fd), 1e-6))
    for entry in np.ndindex(model.head.shape):
        fd = central_difference(model, x, y, None, None, None, entry)
        worst = max(worst, abs(grads.head_grad[entry] - fd) / max(abs(fd), 1e-6))
    return worst


class TestBackward:
    def test_finite_difference_oracle_small_model(self):
        model = make_model(42, n_experts=2, d_model=4, hidden=5, layers=2, classes=3)
        rng = np.random.default_rng(100)
        x = rng.normal(size=4)
        assert max_relative_error(model, x, y=1) < 1e-4

    def test_finite_difference_oracle_d8_topk2(self):
        model = make_model(7, n_experts=3, d_model=8, hidden=6, layers=1,
                           classes=4, top_k=2)
        rng = np.random.default_rng(101)
        x = rng.normal(size=8)
        assert max_relative_error(model, x, y=2) < 1e-4

    def test_unselected_expert_block_is_exactly_zero(self):
        model = make_model(3, n_experts=4, top_k=1, layers=1)
        rng = np.random.default_rng(102)
        x = rng.normal(size=4)
        _, traces = moe_forward_dense(model, x[:, None])
        chosen = set(int(i) for i in traces[0].selected[0])
        grads = backward_logloss(model, x, 0)
        for i in range(4):
            for role in (Role.UP, Role.DOWN):
                block = grads.expert_grads[0][role][i]
                if i in chosen:
                    assert block.any()
                else:
                    assert not block.any()

    def test_head_gradient_softmax_identity(self):
        """Head gradient equals outer(onehot(y) - softmax(logits), final hidden)."""
        from d2moe.moe import layer_forward_dense

        model = make_model(5, layers=1)
        rng = np.random.default_rng(103)
        x = rng.normal(size=4)
        y = 2
        h = x[:, None]
        for layer in model.layers:
            h, _ = layer_forward_dense(layer, h)
        z = model.head @ h[:, 0]
        p = np.exp(z - z.max())
        p /= p.sum()
        lbar = -p
        lbar[y] += 1.0
        grads = backward_logloss(model, x, y)
        np.testing.assert_allclose(grads.head_grad, np.outer(lbar, h[:, 0]), atol=1e-12)

    def test_rejects_bad_label(self):
        model = make_model(6, layers=1, classes=3)
        with pytest.raises(ParameterError):
            backward_logloss(model, np.zeros(4), 3)

    @pytest.mark.parametrize("top_k", [1, 2, 3])
    @pytest.mark.parametrize("layers", [1, 2, 3])
    def test_matches_legacy_backward(self, layers, top_k):
        model = make_model(40 + 3 * layers + top_k, n_experts=4, d_model=6, hidden=7,
                           layers=layers, classes=5, top_k=top_k)
        rng = np.random.default_rng(120 + layers)
        for _ in range(4):
            x, y = rng.normal(size=6), int(rng.integers(0, 5))
            got, want = backward_logloss(model, x, y), legacy_backward_logloss(model, x, y)
            for l in range(layers):
                assert_block_matches(got.gate_grads[l], want.gate_grads[l])
                for i in range(4):
                    for role in (Role.UP, Role.DOWN):
                        assert_block_matches(got.expert_grads[l][role][i],
                                             want.expert_grads[l][role][i])
            assert_block_matches(got.head_grad, want.head_grad)

    @pytest.mark.parametrize("top_k", [1, 2, 3])
    def test_single_token_fisher_squares_backward(self, top_k):
        """Both callers run one sweep: a one-token data-label Fisher is the
        elementwise square of that token's expert gradients."""
        model = make_model(50 + top_k, n_experts=4, d_model=6, hidden=7, layers=3,
                           classes=5, top_k=top_k)
        rng = np.random.default_rng(130)
        for _ in range(4):
            x, y = rng.normal(size=6), int(rng.integers(0, 5))
            fi = batched_fisher(model, x[:, None], mode="data-label", labels=[y])
            grads = backward_logloss(model, x, y)
            for l in range(3):
                for i in range(4):
                    for role in (Role.UP, Role.DOWN):
                        g = grads.expert_grads[l][role][i]
                        assert_block_matches(fi[l][role][i], g * g, rel=1e-15)


class TestFisher:
    def test_never_routed_expert_zero_block(self):
        rng = np.random.default_rng(11)
        gate = np.array([[5.0, 5.0, 5.0, 5.0],
                         [4.0, 4.0, 4.0, 4.0],
                         [-50.0, -50.0, -50.0, -50.0]])
        ups, downs = zip(*[(rng.normal(size=(5, 4)), rng.normal(size=(4, 5))) for _ in range(3)])
        layer = MoELayer(gate=gate, weights={Role.UP: ups, Role.DOWN: downs}, top_k=2)
        model = MoEModel(layers=[layer], head=rng.normal(size=(3, 4)))
        x = np.abs(rng.normal(size=(4, 12)))  # positive coords keep expert 2 unreachable
        fi = batched_fisher(model, x, mode="sampled-label", seed=0)
        for role in (Role.UP, Role.DOWN):
            assert not fi[0][role][2].any()
            assert fi[0][role][0].any()

    def test_identical_inputs_average_to_single_input_fisher(self):
        model = make_model(12, layers=1)
        rng = np.random.default_rng(104)
        x = rng.normal(size=(4, 1))
        fi_one = batched_fisher(model, x, mode="data-label", labels=[1])
        fi_two = batched_fisher(model, np.hstack([x, x]), mode="data-label", labels=[1, 1])
        for i in range(2):
            for role in (Role.UP, Role.DOWN):
                np.testing.assert_allclose(fi_two[0][role][i], fi_one[0][role][i], atol=1e-15)

    def test_sampled_label_reproducible(self):
        model = make_model(13, layers=2)
        rng = np.random.default_rng(105)
        x = rng.normal(size=(4, 10))
        a = batched_fisher(model, x, mode="sampled-label", seed=9)
        b = batched_fisher(model, x, mode="sampled-label", seed=9)
        for l in range(2):
            for i in range(2):
                for role in (Role.UP, Role.DOWN):
                    assert np.array_equal(a[l][role][i], b[l][role][i])

    def test_data_label_matches_squared_fd_oracle(self):
        """Fisher equals mean of squared central-difference gradients."""
        model = make_model(14, n_experts=2, d_model=4, hidden=4, layers=1, classes=3)
        rng = np.random.default_rng(106)
        x = rng.normal(size=(4, 32))
        labels = rng.integers(0, 3, size=32)
        fi = batched_fisher(model, x, mode="data-label", labels=labels)

        acc = [{role: np.zeros_like(model.layers[0].weights[role][i])
                for role in (Role.UP, Role.DOWN)} for i in range(2)]
        for t in range(32):
            for i in range(2):
                for role in (Role.UP, Role.DOWN):
                    for entry in np.ndindex(acc[i][role].shape):
                        fd = central_difference(model, x[:, t], int(labels[t]), 0, i, role, entry)
                        acc[i][role][entry] += fd * fd
        for i in range(2):
            for role in (Role.UP, Role.DOWN):
                ref = acc[i][role] / 32.0
                got = fi[0][role][i]
                mask = ref > 1e-8
                np.testing.assert_allclose(got[mask], ref[mask], rtol=1e-3)

    def test_non_negative_and_scalar_reduction(self):
        """Blocks are non-negative, and the fisher-scalar merge weights each
        expert by its block mean."""
        model = make_model(15, layers=1)
        rng = np.random.default_rng(107)
        x = rng.normal(size=(4, 6))
        fi = batched_fisher(model, x, mode="sampled-label", seed=1)
        for role in (Role.UP, Role.DOWN):
            blocks = fi[0][role]
            weights = [model.layers[0].weights[role][i] for i in range(2)]
            assert all(np.all(block >= 0) for block in blocks)
            means = [float(block.mean()) for block in blocks]
            want = (means[0] * weights[0] + means[1] * weights[1]) / (means[0] + means[1])
            coeffs = np.mean(blocks, axis=(1, 2))
            np.testing.assert_allclose(weighted_merge(weights, coeffs)[0], want, rtol=1e-12)


class TestBatchedFisher:
    @pytest.mark.parametrize("mode", ["sampled-label", "data-label"])
    @pytest.mark.parametrize("top_k", [1, 2, 3])
    def test_matches_per_token_oracle(self, mode, top_k):
        model = make_model(20 + top_k, n_experts=4, d_model=6, hidden=7, layers=3,
                           classes=5, top_k=top_k)
        rng = np.random.default_rng(110)
        x = rng.normal(size=(6, 48))
        labels = rng.integers(0, 5, size=48)
        got = batched_fisher(model, x, mode=mode, seed=4, labels=labels)
        want, _ = per_token_fisher(model, x, mode=mode, seed=4, labels=labels)
        assert_fisher_matches(got, want)

    def test_never_routed_expert_matches_oracle(self):
        rng = np.random.default_rng(111)
        gate = np.array([[5.0, 5.0, 5.0, 5.0],
                         [4.0, 4.0, 4.0, 4.0],
                         [-50.0, -50.0, -50.0, -50.0]])
        ups, downs = zip(*[(rng.normal(size=(5, 4)), rng.normal(size=(4, 5))) for _ in range(3)])
        first = MoELayer(gate=gate, top_k=2, weights={Role.UP: ups, Role.DOWN: downs})
        rest = make_model(112, n_experts=3, d_model=4, hidden=5, layers=2, top_k=2)
        model = MoEModel(layers=[first, *rest.layers], head=rest.head)
        x = np.abs(rng.normal(size=(4, 40)))  # positive coords keep expert 2 unreachable
        got = batched_fisher(model, x, mode="sampled-label", seed=3)
        want, _ = per_token_fisher(model, x, mode="sampled-label", seed=3)
        assert_fisher_matches(got, want)
        for role in (Role.UP, Role.DOWN):
            assert not got[0][role][2].any()

    def test_labels_match_per_token_choice(self):
        """Fed the same probabilities, the single draw and one rng.choice per
        token give the same labels and leave the generator in the same state."""
        model = make_model(30, n_experts=4, d_model=6, hidden=7, layers=2, classes=7, top_k=2)
        rng = np.random.default_rng(113)
        logits, _ = moe_forward_dense(model, rng.normal(size=(6, 300)))
        p = np.stack([_softmax(logits[:, t]) for t in range(300)], axis=1)
        one, many = np.random.default_rng(8), np.random.default_rng(8)
        drawn = _draw_labels(p, one.random(300))
        chosen = [int(many.choice(7, p=p[:, t])) for t in range(300)]
        assert drawn.tolist() == chosen
        assert one.random() == many.random()

    def test_sampled_labels_match_oracle_end_to_end(self):
        """data-label Fisher with the oracle's drawn labels reproduces the
        sampled-label Fisher, so both paths drew the same labels."""
        model = make_model(31, n_experts=4, d_model=6, hidden=7, layers=2, classes=6, top_k=2)
        x = np.random.default_rng(114).normal(size=(6, 64))
        _, drawn = per_token_fisher(model, x, mode="sampled-label", seed=5)
        sampled = batched_fisher(model, x, mode="sampled-label", seed=5)
        labelled = batched_fisher(model, x, mode="data-label", labels=drawn)
        for a, b in zip(sampled, labelled, strict=True):
            for role in (Role.UP, Role.DOWN):
                assert np.array_equal(a[role], b[role])

    @pytest.mark.parametrize("mode", ["sampled-label", "data-label"])
    def test_two_calls_byte_identical(self, mode):
        fx = gen_fixture(1, n_experts=6, d_model=12, hidden=16, layers=3, tokens=96, rank_noise=2)
        a = batched_fisher(fx.model, fx.tokens, mode=mode, seed=2, labels=fx.labels)
        b = batched_fisher(fx.model, fx.tokens, mode=mode, seed=2, labels=fx.labels)
        for la, lb in zip(a, b, strict=True):
            for role in (Role.UP, Role.DOWN):
                assert la[role].tobytes() == lb[role].tobytes()

    @pytest.mark.parametrize("mode", ["sampled-label", "data-label"])
    def test_non_finite_probabilities_raise(self, mode):
        model = make_model(32, layers=2)
        huge = MoEModel(layers=[MoELayer(gate=layer.gate, top_k=layer.top_k,
                                         weights={r: w * 1e150 for r, w in layer.weights.items()})
                                for layer in model.layers],
                        head=model.head * 1e150)
        x = np.random.default_rng(115).normal(size=(4, 8))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalError, match="not finite"):
                batched_fisher(huge, x, mode=mode, labels=np.zeros(8, dtype=int))

    def test_out_of_range_data_label_rejected(self):
        model = make_model(33, layers=1, classes=3)
        with pytest.raises(ParameterError, match="labels"):
            batched_fisher(model, np.zeros((4, 2)), mode="data-label", labels=[0, 3])

    def test_fractional_data_label_rejected(self):
        """A fractional label is rejected, not truncated to a class index."""
        model = make_model(34, layers=1, classes=3)
        with pytest.raises(ParameterError, match="integral"):
            batched_fisher(model, np.zeros((4, 2)), mode="data-label", labels=[0, 0.5])

    def test_compress_matches_oracle_fisher(self, monkeypatch):
        """`compress --merge fisher` builds the same layers as with the
        per-token Fisher. A silent input coordinate makes layer 0 fall back."""
        fx = gen_fixture(0, n_experts=6, d_model=12, hidden=16, layers=3, tokens=64,
                         rank_noise=2, top_k=2)
        x = fx.tokens.copy()
        x[0] = 0.0
        cfg = CompressionConfig(merge_method="fisher", delta_ratio=0.5, sparsity=0.4)
        _, rep = compress(cfg, fx.model, x, labels=fx.labels)

        def oracle(model, captures, p, labels, fisher):
            # 64 tokens are one chunk, so the oracle draws its own labels
            # for all of them with the config's seed
            x = captures[0].x
            want, _ = per_token_fisher(model, x, mode="sampled-label", seed=cfg.seed)
            for total, layer in zip(fisher, want, strict=True):
                for role in (Role.UP, Role.DOWN):
                    total[role] += layer[role] * x.shape[1]

        monkeypatch.setattr("d2moe.pipeline.fisher_accumulate", oracle)
        _, ref = compress(cfg, fx.model, x, labels=fx.labels)
        assert rep.layers[0].fisher_fallback > 0
        for got, want in zip(rep.layers, ref.layers, strict=True):
            assert got.fisher_fallback == want.fisher_fallback
            assert got.rank == want.rank
            assert got.params == want.params
            for role, errors in want.weighted_errors.items():
                np.testing.assert_allclose(got.weighted_errors[role], errors, rtol=1e-9)
        assert rep.loss_after == pytest.approx(ref.loss_after, rel=1e-9)
