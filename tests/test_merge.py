"""Base-weight merging tests.

Every merge method is `weighted_merge` with its own coefficients. The
Fisher-weighted case is checked against its defining property: it must be
the minimizer of the entrywise weighted least-squares objective, verified by
throwing random perturbed candidates at it rather than re-deriving the same
closed form.
"""

import dataclasses

import numpy as np
import pytest

from d2moe.config import CompressionConfig
from d2moe.errors import ParameterError, ShapeError
from d2moe.fixtures import gen_fixture
from d2moe.analysis import energy_retention
from d2moe.merge import weighted_merge
from d2moe.moe import MoELayer, Role
from d2moe.pipeline import LayerStats, compute_layer_stats, merge_layer


def weighted_objective(w_stack, f_stack, cand):
    return float(sum(np.sum(f * (w - cand) ** 2) for w, f in zip(w_stack, f_stack)))


def mean_base(weights):
    return weighted_merge(weights, np.ones(len(weights)))[0]


def layer_deltas(layer, method="mean", frequency=None):
    """The (E, m, n) delta stacks `merge_layer` returns per role; the mean
    and frequency merges read no calibration statistic but the frequency."""
    stats = LayerStats(grams={}, frequency=frequency, fisher=None)
    return merge_layer(layer, stats, CompressionConfig(merge_method=method))[1]


def up_deltas(weights, method="mean", frequency=None):
    """`merge_layer`'s Up deltas for experts with these Up weights (Down:
    their transposes)."""
    layer = MoELayer(gate=np.zeros((len(weights), weights[0].shape[1])), top_k=1,
                     experts=[{Role.UP: w, Role.DOWN: w.T} for w in weights])
    return layer_deltas(layer, method, frequency)[Role.UP]


class TestFisherMerge:
    def test_weighted_mean_arithmetic(self):
        w_b, n_fallback = weighted_merge([np.array([[0.0]]), np.array([[4.0]])],
                                         [np.array([[1.0]]), np.array([[3.0]])])
        np.testing.assert_array_equal(w_b, [[3.0]])
        assert n_fallback == 0

    def test_equal_fisher_reduces_to_mean_exactly(self):
        rng = np.random.default_rng(0)
        weights = [rng.normal(size=(5, 7)) for _ in range(4)]
        fishers = [np.full((5, 7), 0.37) for _ in range(4)]
        assert np.array_equal(weighted_merge(weights, fishers)[0], mean_base(weights))

    def test_minimizer_against_random_candidates(self):
        rng = np.random.default_rng(1)
        weights = [rng.normal(size=(4, 4)) for _ in range(3)]
        fishers = [rng.uniform(0.1, 2.0, size=(4, 4)) for _ in range(3)]
        w_b, _ = weighted_merge(weights, fishers)
        base_obj = weighted_objective(weights, fishers, w_b)
        for _ in range(1000):
            scale = 10.0 ** rng.uniform(-3, 1)
            delta = rng.normal(size=(4, 4)) * scale
            assert base_obj <= weighted_objective(weights, fishers, w_b + delta)

    def test_zero_fisher_entry_falls_back_to_mean(self):
        weights = [np.array([[1.0, 10.0]]), np.array([[3.0, 20.0]])]
        fishers = [np.array([[1.0, 0.0]]), np.array([[3.0, 0.0]])]
        w_b, n_fallback = weighted_merge(weights, fishers)
        assert w_b[0, 0] == pytest.approx(2.5)   # (1*1 + 3*3) / 4
        assert w_b[0, 1] == pytest.approx(15.0)  # mean fallback
        assert n_fallback == 1

    def test_scalar_mode_uses_blockwise_means(self):
        rng = np.random.default_rng(2)
        weights = [rng.normal(size=(3, 3)) for _ in range(2)]
        fishers = [np.abs(rng.normal(size=(3, 3))) for _ in range(2)]
        s0, s1 = float(fishers[0].mean()), float(fishers[1].mean())
        w_b, n_fallback = weighted_merge(weights, [s0, s1])
        expected = (s0 * weights[0] + s1 * weights[1]) / (s0 + s1)
        np.testing.assert_allclose(w_b, expected, atol=1e-15)
        assert n_fallback == 0

    def test_scalar_matches_constant_matrices_bytewise(self):
        rng = np.random.default_rng(11)
        weights = [rng.normal(size=(4, 5)) for _ in range(3)]
        scalars = [0.3, 1.7, 0.05]
        full = [np.full((4, 5), c) for c in scalars]
        assert np.array_equal(weighted_merge(weights, scalars)[0],
                              weighted_merge(weights, full)[0])

    def test_zero_denominator_falls_back_everywhere(self):
        rng = np.random.default_rng(12)
        weights = [rng.normal(size=(3, 4)) for _ in range(2)]
        w_b, n_fallback = weighted_merge(weights, [0.0, 0.0])
        assert np.array_equal(w_b, mean_base(weights))
        assert n_fallback == 12

    def test_negative_fisher_rejected(self):
        with pytest.raises(ParameterError):
            weighted_merge([np.eye(2)], [-np.eye(2)])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            weighted_merge([np.eye(2), np.eye(3)], [np.eye(2), np.eye(3)])
        with pytest.raises(ShapeError):
            weighted_merge([np.eye(2), np.eye(2)], [np.eye(3), np.eye(3)])
        with pytest.raises(ShapeError):
            weighted_merge([np.eye(2), np.eye(2)], [np.eye(2)])


class TestMeanMerge:
    def test_opposite_pair_cancels(self):
        rng = np.random.default_rng(3)
        w = rng.normal(size=(4, 6))
        np.testing.assert_allclose(mean_base([w, -w]), np.zeros((4, 6)), atol=1e-16)

    def test_single_expert_is_identity(self):
        w = np.arange(6.0).reshape(2, 3)
        np.testing.assert_array_equal(mean_base([w]), w)

    def test_summation_oracle(self):
        rng = np.random.default_rng(4)
        weights = [rng.normal(size=(5, 5)) for _ in range(4)]
        ref = (weights[0] + weights[1] + weights[2] + weights[3]) / 4.0
        np.testing.assert_allclose(mean_base(weights), ref, rtol=1e-15)


class TestFrequencyMerge:
    def test_one_hot_selects_single_expert(self):
        rng = np.random.default_rng(5)
        weights = [rng.normal(size=(3, 4)) for _ in range(3)]
        w_b, _ = weighted_merge(weights, [0.0, 1.0, 0.0])
        np.testing.assert_array_equal(w_b, weights[1])

    def test_uniform_equals_mean(self):
        rng = np.random.default_rng(6)
        weights = [rng.normal(size=(4, 4)) for _ in range(5)]
        assert np.array_equal(weighted_merge(weights, [0.2] * 5)[0], mean_base(weights))

    def test_weighted_sum_oracle(self):
        rng = np.random.default_rng(7)
        weights = [rng.normal(size=(3, 3)) for _ in range(3)]
        freq = np.array([0.5, 0.3, 0.2])
        ref = 0.5 * weights[0] + 0.3 * weights[1] + 0.2 * weights[2]
        np.testing.assert_allclose(weighted_merge(weights, freq)[0], ref, atol=1e-15)

    def test_bad_frequencies_rejected(self):
        w = [np.eye(2), np.eye(2)]
        with pytest.raises(ParameterError):
            weighted_merge(w, [-0.5, 1.5])
        with pytest.raises(ParameterError):
            weighted_merge(w, [np.nan, 1.0])


class TestFallbackCount:
    def test_counted_where_the_fallback_happens(self):
        """With input coordinate 5 silent, every Up Fisher entry of column 5
        is zero: the elementwise merge falls back to the mean on those 64
        entries, while the per-expert Fisher means stay positive, so the
        scalar merge weights that column like every other and reports no
        fallback."""
        fx = gen_fixture(seed=0)
        tokens = fx.tokens.copy()
        tokens[5] = 0.0
        layer = fx.model.layers[0]
        mean_col = mean_base([e[Role.UP] for e in layer.experts])[:, 5]
        cfg = CompressionConfig()
        stats, _ = compute_layer_stats(fx.model, tokens, cfg, labels=fx.labels)

        bases, _, fallback = merge_layer(layer, stats[0], cfg)
        assert fallback == 64
        assert np.array_equal(bases[Role.UP][:, 5], mean_col)

        scalar_cfg = dataclasses.replace(cfg, merge_method="fisher-scalar")
        bases, _, fallback = merge_layer(layer, stats[0], scalar_cfg)
        assert fallback == 0
        assert not np.allclose(bases[Role.UP][:, 5], mean_col)


class TestDeltas:
    def test_identical_weights_zero_deltas(self):
        w = np.ones((3, 3))
        assert not up_deltas([w, w, w]).any()

    def test_mean_merge_deltas_center(self):
        rng = np.random.default_rng(8)
        weights = [rng.normal(size=(6, 6)) for _ in range(5)]
        deltas = up_deltas(weights)
        assert deltas.shape == (5, 6, 6)
        np.testing.assert_allclose(sum(deltas), np.zeros((6, 6)), atol=1e-12)

    def test_frequency_merge_deltas_center_weighted(self):
        rng = np.random.default_rng(9)
        weights = [rng.normal(size=(4, 4)) for _ in range(3)]
        freq = np.array([0.6, 0.3, 0.1])
        deltas = up_deltas(weights, "frequency", freq)
        weighted = sum(f * d for f, d in zip(freq, deltas))
        np.testing.assert_allclose(weighted, np.zeros((4, 4)), atol=1e-12)

    def test_reconstruction_within_ulp(self):
        rng = np.random.default_rng(10)
        weights = [rng.normal(size=(8, 8)) for _ in range(4)]
        w_b = mean_base(weights)
        for w, d in zip(weights, up_deltas(weights), strict=True):
            np.testing.assert_allclose(w_b + d, w, rtol=1e-15, atol=1e-15)


class TestLowerRankTendency:
    def test_fixture_deltas_concentrate_energy(self):
        """On the correlated-expert fixture, every mean-merge delta retains
        strictly more energy at k = ceil(min(m,n)/4) than its raw weight."""
        fx = gen_fixture(seed=0)
        for layer in fx.model.layers:
            for role in (Role.UP, Role.DOWN):
                weights = [e[role] for e in layer.experts]
                deltas = layer_deltas(layer)[role]
                m, n = weights[0].shape
                k = -(-min(m, n) // 4)
                for w, d in zip(weights, deltas):
                    r_w = energy_retention(np.linalg.svd(w, compute_uv=False), k)
                    r_d = energy_retention(np.linalg.svd(d, compute_uv=False), k)
                    assert r_d > r_w
