"""Chunked calibration statistics against the single capture they replaced.

`compute_layer_stats` runs the calibration tokens through the model in
chunks of `moe.TOKEN_CHUNK`, adding each chunk's Grams, routing counts and
Fisher sums to running totals. `unchunked_stats` is the earlier pass, kept
here as the oracle: one capture of every token, one reverse sweep over it,
the sampled labels drawn at once. Up to one chunk the two agree byte for
byte; past it they differ only in summation order, so within 1e-12 of each
stack's largest entry, with the routing frequencies still exact.
"""

import tracemalloc

import numpy as np
import pytest

from d2moe import pipeline
from d2moe.config import CompressionConfig
from d2moe.errors import NumericalError
from d2moe.fixtures import gen_fixture
from d2moe.gradients import _draw_labels, check_labels, fisher_accumulate, output_probabilities
from d2moe.moe import (ROLES, TOKEN_CHUNK, MoELayer, MoEModel, capture_calibration, expert_frequency,
                       token_chunks)
from d2moe.pipeline import LayerStats, compute_layer_stats, merge_layer

MERGES = [("fisher", "sampled-label"), ("fisher", "data-label"),
          ("fisher-scalar", "sampled-label"), ("frequency", "sampled-label"),
          ("mean", "sampled-label")]


def unchunked_stats(model, x, cfg, labels=None):
    """`compute_layer_stats` as one capture of all T tokens: the Grams and
    counts of that capture, and its Fisher sums divided by T."""
    n_tokens = x.shape[1]
    hidden, captures = capture_calibration(model, x)
    logits = model.head @ hidden
    fisher = None
    if cfg.merge_method in ("fisher", "fisher-scalar"):
        p = output_probabilities(logits, 0, n_tokens)
        if cfg.fisher_mode == "data-label":
            y = check_labels(labels, model.num_classes, n_tokens)
        else:
            y = _draw_labels(p, np.random.default_rng(cfg.seed).random(n_tokens))
        fisher = [{role: np.zeros_like(layer.weights[role]) for role in ROLES}
                  for layer in model.layers]
        fisher_accumulate(model, captures, p, y, fisher)
        fisher = [{role: stack / n_tokens for role, stack in f.items()} for f in fisher]
    stats = [LayerStats(grams=cap.grams, frequency=expert_frequency(cap.trace.counts),
                        fisher=None if fisher is None else fisher[l])
             for l, cap in enumerate(captures)]
    return stats, logits


@pytest.fixture(scope="module")
def fx():
    return gen_fixture(2, layers=2, n_experts=6, d_model=16, hidden=24, rank_noise=2,
                       tokens=8 * TOKEN_CHUNK)


def both(fx, n_tokens, merge, mode):
    cfg = CompressionConfig(merge_method=merge, fisher_mode=mode, seed=3)
    x, labels = fx.tokens[:, :n_tokens], fx.labels[:n_tokens]
    return (compute_layer_stats(fx.model, x, cfg, labels=labels),
            unchunked_stats(fx.model, x, cfg, labels=labels), cfg)


def close(got, want):
    """Within 1e-12 of the largest entry of `want`."""
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())


@pytest.mark.parametrize("n_tokens", [37, TOKEN_CHUNK])
@pytest.mark.parametrize("merge,mode", MERGES)
def test_one_chunk_is_byte_identical(fx, n_tokens, merge, mode):
    (got, got_logits), (want, want_logits), _ = both(fx, n_tokens, merge, mode)
    assert got_logits.tobytes() == want_logits.tobytes()
    for g, w in zip(got, want, strict=True):
        assert g.frequency.tobytes() == w.frequency.tobytes()
        assert (g.fisher is None) == (w.fisher is None)
        for role in ROLES:
            assert g.grams[role].tobytes() == w.grams[role].tobytes()
            if w.fisher is not None:
                assert g.fisher[role].tobytes() == w.fisher[role].tobytes()


@pytest.mark.parametrize("merge,mode", MERGES)
def test_eight_chunks_match_within_summation_order(fx, merge, mode):
    (got, got_logits), (want, want_logits), cfg = both(fx, 8 * TOKEN_CHUNK, merge, mode)
    close(got_logits, want_logits)
    for layer, g, w in zip(fx.model.layers, got, want, strict=True):
        assert np.array_equal(g.frequency, w.frequency)
        for role in ROLES:
            close(g.grams[role], w.grams[role])
            if w.fisher is not None:
                close(g.fisher[role], w.fisher[role])
        got_bases, _, _ = merge_layer(layer, g, cfg)
        want_bases, _, _ = merge_layer(layer, w, cfg)
        for role in ROLES:
            close(got_bases[role], want_bases[role])


def test_sampled_labels_do_not_depend_on_the_chunk_size(fx, monkeypatch):
    """The labels drawn chunk by chunk are those of one `_draw_labels` over
    all T tokens with one `default_rng(seed).random(T)`."""
    drawn = []

    def spy(p, u):
        drawn.append(_draw_labels(p, u))
        return drawn[-1]

    monkeypatch.setattr(pipeline, "_draw_labels", spy)
    n_tokens = 5 * TOKEN_CHUNK + 100
    cfg = CompressionConfig(merge_method="fisher", seed=11)
    _, logits = compute_layer_stats(fx.model, fx.tokens[:, :n_tokens], cfg)
    assert [d.size for d in drawn] == [c.stop - c.start for c in token_chunks(n_tokens)]
    want = _draw_labels(output_probabilities(logits, 0, n_tokens),
                        np.random.default_rng(11).random(n_tokens))
    assert np.array_equal(np.concatenate(drawn), want)


@pytest.mark.parametrize("mode", ["sampled-label", "data-label"])
def test_non_finite_probabilities_name_the_global_token(fx, mode):
    """Weights scaled by 1e80 per layer keep every logit finite except
    those of tokens 700 and 900, scaled by 1e150 as well."""
    big = MoEModel(layers=[MoELayer(gate=layer.gate, top_k=layer.top_k,
                                    weights={r: w * 1e40 for r, w in layer.weights.items()})
                           for layer in fx.model.layers],
                   head=fx.model.head)
    x = fx.tokens[:, :2 * TOKEN_CHUNK].copy()
    x[:, [700, 900]] *= 1e150
    cfg = CompressionConfig(merge_method="fisher", fisher_mode=mode)
    with np.errstate(all="ignore"):
        with pytest.raises(NumericalError) as info:
            compute_layer_stats(big, x, cfg, labels=fx.labels[:2 * TOKEN_CHUNK])
    message = str(info.value)
    assert "tokens 512..1023 (1024 in all; first: token 700)" in message
    assert "for 2 of" in message


@pytest.mark.parametrize("merge", ["fisher", "mean"])
def test_peak_memory_is_set_by_one_chunk(merge):
    """Sixteen chunks take at most 1.5x the traced peak of one chunk."""
    small = gen_fixture(0, tokens=16 * TOKEN_CHUNK)
    cfg = CompressionConfig(merge_method=merge)
    one = np.ascontiguousarray(small.tokens[:, :TOKEN_CHUNK])

    def peak(x, labels):
        tracemalloc.start()
        try:
            compute_layer_stats(small.model, x, cfg, labels=labels)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    one_chunk = peak(one, small.labels[:TOKEN_CHUNK])
    sixteen = peak(small.tokens, small.labels)
    assert sixteen <= 1.5 * one_chunk, (sixteen, one_chunk)
