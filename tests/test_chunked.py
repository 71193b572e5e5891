"""Chunked calibration statistics against the single capture they replaced,
and the streamed Fisher merge against the Fisher stacks it replaced.

`compute_layer_stats` runs the calibration tokens through the model in
chunks of `moe.TOKEN_CHUNK`, adding each chunk's Grams, routing counts and
Fisher blocks to running totals; of the Fisher it keeps only what the
merge needs. `unchunked_stats` is the earlier pass, kept here as the
oracle: one capture of every token, its Grams and counts, and the Fisher
stacks of `fisher_oracle`, merged by `weighted_merge`. Up to one chunk the
two agree byte for byte, bases and fallback counts included; past it they
differ only in summation order, so within 1e-12 of each array's largest
entry, with the routing frequencies still exact.
"""

import tracemalloc

import numpy as np
import pytest

from d2moe import pipeline
from d2moe.config import CompressionConfig
from d2moe.container import save_compressed_model
from d2moe.errors import NumericalError
from d2moe.fixtures import gen_fixture
from d2moe.gradients import _draw_labels, output_probabilities
from d2moe.moe import (ROLES, TOKEN_CHUNK, MoELayer, MoEModel, capture_calibration, expert_frequency,
                       token_chunks)
from d2moe.pipeline import LayerStats, compress, compute_layer_stats, merge_role
from d2moe.report import dumps_report, strip_timings
from fisher_oracle import fisher_stacks, oracle_merge

FISHER_MERGES = [("fisher", "sampled-label"), ("fisher", "data-label"),
                 ("fisher-scalar", "sampled-label"), ("fisher-scalar", "data-label")]
MERGES = [*FISHER_MERGES[:3], ("frequency", "sampled-label"), ("mean", "sampled-label")]


def unchunked_stats(model, x, cfg, labels=None):
    """`compute_layer_stats` as one capture of all T tokens: per layer the
    Grams and counts of that capture (no Fisher), and its logits; then the
    Fisher stacks of the same tokens, or None when the merge needs none."""
    hidden, captures = capture_calibration(model, x)
    stats = [LayerStats(grams=cap.grams, frequency=expert_frequency(cap.trace.counts), fisher=None)
             for cap in captures]
    stacks = None
    if cfg.merge_method in ("fisher", "fisher-scalar"):
        stacks = fisher_stacks(model, x, cfg, labels)
    return stats, model.head @ hidden, stacks


def want_merge(layer, role, stats, cfg, stacks):
    """The base and fallback count `merge_role` must give: the oracle merge
    of the Fisher stacks, or `merge_role` on the unchunked stats when the
    merge needs no Fisher."""
    if stacks is None:
        return merge_role(layer, role, stats, cfg)
    return oracle_merge(layer.weights[role], stacks[role], cfg.merge_method, cfg.epsilon)


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
    (got, got_logits), (want, want_logits, stacks), cfg = both(fx, n_tokens, merge, mode)
    assert got_logits.tobytes() == want_logits.tobytes()
    for l, (layer, g, w) in enumerate(zip(fx.model.layers, got, want, strict=True)):
        assert g.frequency.tobytes() == w.frequency.tobytes()
        assert (g.fisher is None) == (stacks is None)
        for role in ROLES:
            assert g.grams[role].tobytes() == w.grams[role].tobytes()
            got_base, got_fallback = merge_role(layer, role, g, cfg)
            want_base, want_fallback = want_merge(layer, role, w, cfg,
                                                  None if stacks is None else stacks[l])
            assert got_fallback == want_fallback
            assert got_base.tobytes() == want_base.tobytes()


@pytest.mark.parametrize("merge,mode", MERGES)
def test_eight_chunks_match_within_summation_order(fx, merge, mode):
    (got, got_logits), (want, want_logits, stacks), cfg = both(fx, 8 * TOKEN_CHUNK, merge, mode)
    close(got_logits, want_logits)
    for l, (layer, g, w) in enumerate(zip(fx.model.layers, got, want, strict=True)):
        assert np.array_equal(g.frequency, w.frequency)
        for role in ROLES:
            close(g.grams[role], w.grams[role])
            got_base, got_fallback = merge_role(layer, role, g, cfg)
            want_base, want_fallback = want_merge(layer, role, w, cfg,
                                                  None if stacks is None else stacks[l])
            assert got_fallback == want_fallback
            close(got_base, want_base)


def oracle_compress(monkeypatch, cfg, model, x, labels):
    """`compress` with `merge_role` replaced by the oracle merge of the
    Fisher stacks of x's first calib_samples tokens."""
    n_use = min(cfg.calib_samples, x.shape[1])
    stacks = fisher_stacks(model, x[:, :n_use], cfg, labels[:n_use])

    def merge(layer, role, stats, cfg):
        l = next(k for k, known in enumerate(model.layers) if known is layer)
        return oracle_merge(layer.weights[role], stacks[l][role], cfg.merge_method, cfg.epsilon)

    with monkeypatch.context() as patch:
        patch.setattr(pipeline, "merge_role", merge)
        return compress(cfg, model, x, labels=labels)


@pytest.mark.parametrize("n_tokens", [TOKEN_CHUNK, 8 * TOKEN_CHUNK])
@pytest.mark.parametrize("merge,mode", FISHER_MERGES)
def test_compress_matches_the_fisher_stack_oracle(fx, monkeypatch, tmp_path, n_tokens, merge, mode):
    """With input coordinate 0 silent, layer 0's elementwise merge falls
    back on that Up column. Over one chunk the container, the stripped
    report and the fallback counts are those of the stack oracle to the
    byte; over eight chunks the fallback counts, kept columns and ranks
    still match, the kept base entries agree within 1e-12 of their largest,
    and the weighted errors and the loss within 1e-9 relative (errors at
    round-off level within 1e-9 of the largest error)."""
    x = fx.tokens.copy()
    x[0] = 0.0
    cfg = CompressionConfig(merge_method=merge, fisher_mode=mode, delta_ratio=0.5, sparsity=0.4,
                            calib_samples=n_tokens)
    got, got_rep = compress(cfg, fx.model, x, labels=fx.labels)
    want, want_rep = oracle_compress(monkeypatch, cfg, fx.model, x, fx.labels)
    assert [r.fisher_fallback for r in got_rep.layers] == [r.fisher_fallback for r in want_rep.layers]
    if merge == "fisher":
        assert got_rep.layers[0].fisher_fallback == fx.model.layers[0].hidden
    if n_tokens == TOKEN_CHUNK:
        save_compressed_model(tmp_path / "got.d2m", got)
        save_compressed_model(tmp_path / "want.d2m", want)
        assert (tmp_path / "got.d2m").read_bytes() == (tmp_path / "want.d2m").read_bytes()
        assert dumps_report(strip_timings(got_rep)) == dumps_report(strip_timings(want_rep))
        return
    largest = max(max(errors) for r in want_rep.layers for errors in r.weighted_errors.values())
    for g, w in zip(got_rep.layers, want_rep.layers, strict=True):
        assert g.rank == w.rank
        for role, errors in w.weighted_errors.items():
            np.testing.assert_allclose(g.weighted_errors[role], errors, rtol=1e-9,
                                       atol=1e-9 * largest)
    for g, w in zip(got.layers, want.layers, strict=True):
        for role in ROLES:
            assert np.array_equal(g.base[role].kept_col_ids, w.base[role].kept_col_ids)
            close(g.base[role].kept, w.base[role].kept)
    assert got_rep.loss_after == pytest.approx(want_rep.loss_after, rel=1e-9)


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


def test_fisher_merge_keeps_no_fisher_stack():
    """The fisher merge keeps two (m, n) sums per layer and role, not a
    Fisher block per expert: `compute_layer_stats` with it peaks at most
    one layer's expert weights above the same call with the mean merge, on
    a fixture of three layers whose Fisher stacks would take three. Few
    tokens keep the sweep's per-expert temporaries small beside them."""
    fixture = gen_fixture(0, layers=3, n_experts=32, d_model=32, hidden=64, tokens=64)
    layer_bytes = sum(w.nbytes for w in fixture.model.layers[0].weights.values())

    def peak(merge):
        cfg = CompressionConfig(merge_method=merge)
        tracemalloc.start()
        try:
            compute_layer_stats(fixture.model, fixture.tokens, cfg, labels=fixture.labels)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    extra = peak("fisher") - peak("mean")
    assert extra <= layer_bytes, (extra, layer_bytes)
