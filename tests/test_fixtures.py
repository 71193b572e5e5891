"""Fixture generator tests: determinism, structure, and parameter checks."""

import numpy as np
import pytest

from d2moe import fixtures, linalg
from d2moe.analysis import energy_retention
from d2moe.errors import ParameterError
from d2moe.fixtures import _TARGET_MARGIN, gen_fixture
from d2moe.merge import weighted_merge
from d2moe.moe import TOKEN_CHUNK, Role, moe_forward_dense, token_chunks


class TestDeterminism:
    def test_same_seed_bitwise_identical(self):
        a = gen_fixture(seed=3, layers=1, tokens=64)
        b = gen_fixture(seed=3, layers=1, tokens=64)
        assert np.array_equal(a.tokens, b.tokens)
        assert np.array_equal(a.labels, b.labels)
        for la, lb in zip(a.model.layers, b.model.layers):
            assert np.array_equal(la.gate, lb.gate)
            for role in (Role.UP, Role.DOWN):
                assert np.array_equal(la.weights[role], lb.weights[role])

    def test_different_seeds_differ(self):
        a = gen_fixture(seed=1, layers=1, tokens=32)
        b = gen_fixture(seed=2, layers=1, tokens=32)
        assert not np.array_equal(a.tokens, b.tokens)


class TestStructure:
    def test_shapes(self):
        fx = gen_fixture(seed=0, n_experts=4, d_model=16, hidden=24, layers=3,
                         tokens=100, num_classes=6)
        assert len(fx.model.layers) == 3
        assert fx.tokens.shape == (16, 100)
        assert fx.n_tokens == 100
        assert fx.labels.shape == (100,)
        assert np.all((fx.labels >= 0) & (fx.labels < 6))
        layer = fx.model.layers[0]
        assert layer.gate.shape == (4, 16)
        assert layer.weights[Role.UP].shape == (4, 24, 16)
        assert layer.weights[Role.DOWN].shape == (4, 16, 24)

    def test_zero_rank_noise_makes_experts_identical(self):
        fx = gen_fixture(seed=5, rank_noise=0, layers=1, tokens=32)
        layer = fx.model.layers[0]
        for role in (Role.UP, Role.DOWN):
            ref = layer.weights[role][0]
            for w in layer.weights[role][1:]:
                assert np.array_equal(w, ref)

    def test_mean_of_experts_recovers_common_part_with_low_rank_deltas(self):
        """Deltas against the mean must be rank `rank_noise` up to the small
        dense remainder: at k = rank_noise they retain nearly all energy."""
        fx = gen_fixture(seed=0, rank_noise=4)
        for layer in fx.model.layers:
            for role in (Role.UP, Role.DOWN):
                weights = layer.weights[role]
                for d in weights - weighted_merge(weights, np.ones(len(weights)))[0]:
                    assert energy_retention(np.linalg.svd(d, compute_uv=False), 4) >= 0.99

    def test_routing_traffic_imbalanced(self):
        """Generalist experts should see far more traffic than burst-keyed ones."""
        fx = gen_fixture(seed=1, layers=1)
        _, traces = moe_forward_dense(fx.model, fx.tokens)
        counts = traces[0].counts
        assert counts.max() > 5 * max(counts.min(), 1)

    def test_tokens_anisotropic(self):
        fx = gen_fixture(seed=2, layers=1, tokens=400)
        cov_eigs = np.linalg.eigvalsh(fx.tokens @ fx.tokens.T)
        assert cov_eigs[-1] / max(cov_eigs[0], 1e-30) > 10.0

    def test_token_coord_groups(self):
        # burst coords fire rarely but hot; the dead tail stays near zero
        fx = gen_fixture(seed=3, layers=1)
        burst = fx.tokens[0]
        fired = np.abs(burst) > 1.0
        assert 0.0 < fired.mean() < 0.2
        assert np.all(np.abs(burst[fired]) >= 3.0)
        assert np.abs(fx.tokens[-1]).max() < 0.05

    def test_labels_are_models_own_predictions(self):
        fx = gen_fixture(seed=4, layers=1, tokens=400, num_classes=10)
        logits, _ = moe_forward_dense(fx.model, fx.tokens)
        assert np.array_equal(fx.labels, logits.argmax(axis=0))
        counts = np.bincount(fx.labels, minlength=10)
        assert counts.max() > 2 * max(counts.min(), 1) or counts.min() == 0

    @pytest.mark.parametrize("layers", [2, 4])
    def test_labels_match_a_fresh_forward_of_the_returned_model(self, layers):
        """The labels and the head rescale come from one dense pass: a new
        forward of the returned model gives the same argmax and the target
        median top-2 margin."""
        fx = gen_fixture(seed=5, layers=layers, d_model=16, hidden=24, tokens=300)
        logits, _ = moe_forward_dense(fx.model, fx.tokens)
        assert np.array_equal(fx.labels, logits.argmax(axis=0))
        srt = np.sort(logits, axis=0)
        assert np.median(srt[-1] - srt[-2]) == pytest.approx(_TARGET_MARGIN, rel=1e-12)

    def test_label_pass_runs_in_token_chunks(self, monkeypatch):
        """Past one chunk, the label pass runs chunk by chunk: no layer call
        sees more than TOKEN_CHUNK tokens, and the labels and the margin are
        those of the chunked forwards of the returned model."""
        seen = []
        real = fixtures.layer_forward_dense

        def spy(layer, x):
            seen.append(x.shape[1])
            return real(layer, x)

        monkeypatch.setattr(fixtures, "layer_forward_dense", spy)
        fx = gen_fixture(seed=6, layers=2, d_model=16, hidden=24, tokens=2 * TOKEN_CHUNK + 50)
        assert seen == [TOKEN_CHUNK] * 4 + [50] * 2
        logits = np.hstack([moe_forward_dense(fx.model, fx.tokens[:, cols])[0]
                            for cols in token_chunks(fx.n_tokens)])
        assert np.array_equal(fx.labels, logits.argmax(axis=0))
        srt = np.sort(logits, axis=0)
        assert np.median(srt[-1] - srt[-2]) == pytest.approx(_TARGET_MARGIN, rel=1e-12)

    def test_runs_on_one_blas_thread_and_restores_the_counts(self, monkeypatch):
        """The fixture's dense pass sees one OpenBLAS thread, and the counts
        in effect before the call are back once it returns."""
        def counts():
            return [get() for get, _ in linalg._BLAS_CONTROLS]

        seen = []
        real = fixtures.layer_forward_dense

        def spy(*args):
            seen.append(counts())
            return real(*args)

        monkeypatch.setattr(fixtures, "layer_forward_dense", spy)
        with linalg.blas_threads(2):
            before = counts()
            gen_fixture(seed=0, layers=2, tokens=64)
            assert counts() == before
        assert len(seen) == 2
        assert all(c == [1] * len(before) for c in seen)

class TestValidation:
    def test_rank_noise_bounds(self):
        with pytest.raises(ParameterError):
            gen_fixture(seed=0, d_model=8, hidden=16, rank_noise=8)
        with pytest.raises(ParameterError):
            gen_fixture(seed=0, rank_noise=-1)

    def test_dimension_checks(self):
        with pytest.raises(ParameterError):
            gen_fixture(seed=0, n_experts=2, top_k=3)
        with pytest.raises(ParameterError):
            gen_fixture(seed=0, num_classes=1)
        with pytest.raises(ParameterError):
            gen_fixture(seed=0, tokens=0)

    @pytest.mark.parametrize("kwargs", [
        {"layers": 1.5}, {"tokens": 64.5}, {"seed": -100}, {"seed": 0.0}, {"seed": True},
        {"n_experts": True}, {"d_model": np.float64(32)}, {"hidden": "64"},
        {"rank_noise": False}, {"top_k": 2.0}, {"num_classes": None},
    ], ids=repr)
    def test_seed_and_sizes_must_be_integers(self, kwargs):
        """A non-integral or bool size or seed, or a negative seed, is a
        ParameterError naming the argument."""
        name = next(iter(kwargs))
        with pytest.raises(ParameterError, match=name):
            gen_fixture(**{"seed": 0, **kwargs})

    def test_numpy_integers_are_accepted(self):
        a = gen_fixture(np.int64(3), tokens=np.int32(40), layers=np.uint8(1))
        b = gen_fixture(3, tokens=40, layers=1)
        assert np.array_equal(a.tokens, b.tokens) and np.array_equal(a.labels, b.labels)
