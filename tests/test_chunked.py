"""Chunked calibration statistics against the single capture they replaced,
and the streamed Fisher merge against the Fisher stacks it replaced.

`compute_layer_stats` runs the calibration tokens through the model in
chunks of `moe.TOKEN_CHUNK`, adding each chunk's Grams, routing counts and
Fisher blocks to running totals; of the Fisher it keeps only what the
merge needs, of the logits only each token's loss, and of each Gram only
its lower triangle (`linalg.PackedGrams`). `unchunked_stats` is the
earlier pass, kept here as the oracle: one capture of every token, its
Grams added into zero (E, n, n) stacks (`gram_stacks`), its counts and
token losses, and the Fisher stacks of `fisher_oracle`, merged by
`weighted_merge`. Up to one chunk the two agree byte for byte, bases and
fallback counts included; past it they differ only in summation order, so
within 1e-12 of each array's largest entry, with the routing frequencies
still exact, and the packed Grams read back as the stacks the same chunks
add up to, byte for byte.
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
from d2moe.moe import (ROLES, TOKEN_CHUNK, MoELayer, MoEModel, Role, capture_calibration,
                       expert_frequency, silu, token_chunks)
from d2moe.pipeline import (LayerStats, _batch_mean, _token_losses, compress, compute_layer_stats,
                            merge_role)
from d2moe.report import dumps_report, strip_timings
from fisher_oracle import fisher_stacks, oracle_merge

FISHER_MERGES = [("fisher", "sampled-label"), ("fisher", "data-label"),
                 ("fisher-scalar", "sampled-label"), ("fisher-scalar", "data-label")]
MERGES = [*FISHER_MERGES[:3], ("frequency", "sampled-label"), ("mean", "sampled-label")]


def gram_stacks(model, captures):
    """Per layer and role the (E, n, n) Gram stack of the given captures
    (each one capture's list of `LayerCapture`s): X_i^T X_i of every routed
    expert added into zeros at stack[i], as the capture added them before
    it kept packed lower triangles. Each X_i^T X_i is exactly symmetric,
    which is what makes keeping one triangle lossless."""
    stacks = [{Role.UP: np.zeros((layer.n_experts, layer.d_model, layer.d_model)),
               Role.DOWN: np.zeros((layer.n_experts, layer.hidden, layer.hidden))}
              for layer in model.layers]
    for capture in captures:
        for layer, cap, gram in zip(model.layers, capture, stacks, strict=True):
            for i, rows in cap.rows.items():
                xi = cap.x.T.take(rows, axis=0)
                hid = silu(xi @ layer.weights[Role.UP][i].T)
                for role, act in ((Role.UP, xi), (Role.DOWN, hid)):
                    product = act.T @ act
                    assert np.array_equal(product, product.T)
                    gram[role][i] += product
    return stacks


def chunked_gram_stacks(model, x):
    """`gram_stacks` of the captures of x's `token_chunks`, in order."""
    return gram_stacks(model, (capture_calibration(model, x[:, cols])[1]
                               for cols in token_chunks(x.shape[1])))


def full(grams):
    """The (E, n, n) stack of a layer and role's Grams, read one at a time."""
    return np.stack(list(grams))


def unchunked_pass(model, x):
    """One capture of all T tokens and its (classes, T) logits."""
    hidden, captures = capture_calibration(model, x)
    return captures, model.head @ hidden


def unchunked_stats(model, x, cfg, labels):
    """`compute_layer_stats` as one capture of all T tokens: per layer the
    Gram stacks and counts of that capture (no Fisher), and its token
    losses; then the Fisher stacks of the same tokens, or None when the
    merge needs none."""
    captures, logits = unchunked_pass(model, x)
    stats = [LayerStats(grams=grams, frequency=expert_frequency(cap.trace.counts), fisher=None)
             for grams, cap in zip(gram_stacks(model, [captures]), captures)]
    stacks = None
    if cfg.merge_method in ("fisher", "fisher-scalar"):
        stacks = fisher_stacks(model, x, cfg, labels)
    return stats, _token_losses(logits, labels), stacks


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


def test_token_chunks_of_a_given_size():
    """Consecutive `size`-token slices in order, the last one shorter when
    size does not divide the token count."""
    assert token_chunks(10, 4) == [slice(0, 4), slice(4, 8), slice(8, 10)]
    assert token_chunks(8, 4) == [slice(0, 4), slice(4, 8)]
    assert token_chunks(3, 4) == [slice(0, 3)]


def close(got, want):
    """Within 1e-12 of the largest entry of `want`."""
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())


@pytest.mark.parametrize("n_tokens", [37, TOKEN_CHUNK])
@pytest.mark.parametrize("merge,mode", MERGES)
def test_one_chunk_is_byte_identical(fx, n_tokens, merge, mode):
    (got, got_losses), (want, want_losses, stacks), cfg = both(fx, n_tokens, merge, mode)
    assert got_losses.tobytes() == want_losses.tobytes()
    for l, (layer, g, w) in enumerate(zip(fx.model.layers, got, want, strict=True)):
        assert g.frequency.tobytes() == w.frequency.tobytes()
        assert (g.fisher is None) == (stacks is None)
        for role in ROLES:
            assert full(g.grams[role]).tobytes() == w.grams[role].tobytes()
            got_base, got_fallback = merge_role(layer, role, g, cfg)
            want_base, want_fallback = want_merge(layer, role, w, cfg,
                                                  None if stacks is None else stacks[l])
            assert got_fallback == want_fallback
            assert got_base.tobytes() == want_base.tobytes()


@pytest.mark.parametrize("merge,mode", MERGES)
def test_eight_chunks_match_within_summation_order(fx, merge, mode):
    (got, got_losses), (want, want_losses, stacks), cfg = both(fx, 8 * TOKEN_CHUNK, merge, mode)
    close(got_losses, want_losses)
    added = chunked_gram_stacks(fx.model, fx.tokens[:, :8 * TOKEN_CHUNK])
    for l, (layer, g, w) in enumerate(zip(fx.model.layers, got, want, strict=True)):
        assert np.array_equal(g.frequency, w.frequency)
        for role in ROLES:
            assert full(g.grams[role]).tobytes() == added[l][role].tobytes()
            close(full(g.grams[role]), w.grams[role])
            got_base, got_fallback = merge_role(layer, role, g, cfg)
            want_base, want_fallback = want_merge(layer, role, w, cfg,
                                                  None if stacks is None else stacks[l])
            assert got_fallback == want_fallback
            close(got_base, want_base)


@pytest.mark.parametrize("merge", ["fisher", "mean"])
def test_token_losses_finish_the_whole_sets_mean(fx, merge):
    """Calibration keeps one loss per token, not its logits: over eight
    chunks they are the losses of the chunks' logits side by side, and
    their batch-block mean is that of the losses of those logits, to the
    byte. Without labels there are none."""
    n_tokens = 8 * TOKEN_CHUNK
    x, labels = fx.tokens[:, :n_tokens], fx.labels[:n_tokens]
    cfg = CompressionConfig(merge_method=merge)
    _, losses = compute_layer_stats(fx.model, x, cfg, labels=labels)
    logits = np.hstack([fx.model.head @ capture_calibration(fx.model, x[:, cols])[0]
                        for cols in token_chunks(n_tokens)])
    assert losses.tobytes() == _token_losses(logits, labels).tobytes()
    for batch_size in (1, 128, n_tokens):
        assert _batch_mean(losses, batch_size) == _batch_mean(_token_losses(logits, labels), batch_size)
    assert compute_layer_stats(fx.model, x, cfg)[1] is None


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
    compute_layer_stats(fx.model, fx.tokens[:, :n_tokens], cfg)
    _, logits = unchunked_pass(fx.model, fx.tokens[:, :n_tokens])
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


@pytest.mark.parametrize("merge", ["fisher", "mean"])
def test_peak_is_below_the_full_gram_stacks(merge):
    """Each Gram is kept once, as its lower triangle: on a fixture whose
    full (E, n, n) Gram stacks would take 16.8 MB, `compute_layer_stats`
    peaks below that. Holding the full stacks, it peaked at 19.1 MB with
    the mean merge and 23.8 MB with fisher."""
    fixture = gen_fixture(0, n_experts=16, d_model=16, hidden=256, layers=2, tokens=512)
    full_bytes = sum(8 * layer.n_experts * (layer.d_model ** 2 + layer.hidden ** 2)
                     for layer in fixture.model.layers)
    assert full_bytes == 16_842_752
    cfg = CompressionConfig(merge_method=merge)
    tracemalloc.start()
    try:
        compute_layer_stats(fixture.model, fixture.tokens, cfg, labels=fixture.labels)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < full_bytes, (peak, full_bytes)
