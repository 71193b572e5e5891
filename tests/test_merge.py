"""Base-weight merging tests.

The Fisher merge is checked against its defining property: it must be the
minimizer of the entrywise weighted least-squares objective, verified by
throwing random perturbed candidates at it rather than re-deriving the
same closed form.
"""

import numpy as np
import pytest

from d2moe.errors import ParameterError, ShapeError
from d2moe.fixtures import gen_fixture
from d2moe.linalg import svd
from d2moe.analysis import energy_retention
from d2moe.merge import (
    compute_deltas,
    fisher_fallback_entries,
    fisher_merge,
    frequency_merge,
    mean_merge,
)
from d2moe.moe import Role


def weighted_objective(w_stack, f_stack, cand):
    return float(sum(np.sum(f * (w - cand) ** 2) for w, f in zip(w_stack, f_stack)))


class TestFisherMerge:
    def test_weighted_mean_arithmetic(self):
        w_b = fisher_merge([np.array([[0.0]]), np.array([[4.0]])],
                           [np.array([[1.0]]), np.array([[3.0]])])
        np.testing.assert_array_equal(w_b, [[3.0]])

    def test_equal_fisher_reduces_to_mean_exactly(self):
        rng = np.random.default_rng(0)
        weights = [rng.normal(size=(5, 7)) for _ in range(4)]
        fishers = [np.full((5, 7), 0.37) for _ in range(4)]
        assert np.array_equal(fisher_merge(weights, fishers), mean_merge(weights))

    def test_minimizer_against_random_candidates(self):
        rng = np.random.default_rng(1)
        weights = [rng.normal(size=(4, 4)) for _ in range(3)]
        fishers = [rng.uniform(0.1, 2.0, size=(4, 4)) for _ in range(3)]
        w_b = fisher_merge(weights, fishers)
        base_obj = weighted_objective(weights, fishers, w_b)
        for _ in range(1000):
            scale = 10.0 ** rng.uniform(-3, 1)
            delta = rng.normal(size=(4, 4)) * scale
            assert base_obj <= weighted_objective(weights, fishers, w_b + delta)

    def test_zero_fisher_entry_falls_back_to_mean(self):
        weights = [np.array([[1.0, 10.0]]), np.array([[3.0, 20.0]])]
        fishers = [np.array([[1.0, 0.0]]), np.array([[3.0, 0.0]])]
        w_b = fisher_merge(weights, fishers)
        assert w_b[0, 0] == pytest.approx(2.5)   # (1*1 + 3*3) / 4
        assert w_b[0, 1] == pytest.approx(15.0)  # mean fallback
        assert fisher_fallback_entries(fishers) == 1

    def test_scalar_mode_uses_blockwise_means(self):
        rng = np.random.default_rng(2)
        weights = [rng.normal(size=(3, 3)) for _ in range(2)]
        fishers = [np.abs(rng.normal(size=(3, 3))) for _ in range(2)]
        w_b = fisher_merge(weights, fishers, scalar=True)
        s0, s1 = float(fishers[0].mean()), float(fishers[1].mean())
        expected = (s0 * weights[0] + s1 * weights[1]) / (s0 + s1)
        np.testing.assert_allclose(w_b, expected, atol=1e-15)

    def test_negative_fisher_rejected(self):
        with pytest.raises(ParameterError):
            fisher_merge([np.eye(2)], [-np.eye(2)])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            fisher_merge([np.eye(2), np.eye(3)], [np.eye(2), np.eye(3)])


class TestMeanMerge:
    def test_opposite_pair_cancels(self):
        rng = np.random.default_rng(3)
        w = rng.normal(size=(4, 6))
        np.testing.assert_allclose(mean_merge([w, -w]), np.zeros((4, 6)), atol=1e-16)

    def test_single_expert_is_identity(self):
        w = np.arange(6.0).reshape(2, 3)
        np.testing.assert_array_equal(mean_merge([w]), w)

    def test_summation_oracle(self):
        rng = np.random.default_rng(4)
        weights = [rng.normal(size=(5, 5)) for _ in range(4)]
        ref = (weights[0] + weights[1] + weights[2] + weights[3]) / 4.0
        np.testing.assert_allclose(mean_merge(weights), ref, rtol=1e-15)


class TestFrequencyMerge:
    def test_one_hot_selects_single_expert(self):
        rng = np.random.default_rng(5)
        weights = [rng.normal(size=(3, 4)) for _ in range(3)]
        w_b = frequency_merge(weights, [0.0, 1.0, 0.0])
        np.testing.assert_array_equal(w_b, weights[1])

    def test_uniform_equals_mean(self):
        rng = np.random.default_rng(6)
        weights = [rng.normal(size=(4, 4)) for _ in range(5)]
        np.testing.assert_allclose(frequency_merge(weights, [0.2] * 5),
                                   mean_merge(weights), rtol=1e-12)

    def test_weighted_sum_oracle(self):
        rng = np.random.default_rng(7)
        weights = [rng.normal(size=(3, 3)) for _ in range(3)]
        freq = np.array([0.5, 0.3, 0.2])
        ref = 0.5 * weights[0] + 0.3 * weights[1] + 0.2 * weights[2]
        np.testing.assert_allclose(frequency_merge(weights, freq), ref, atol=1e-15)

    def test_bad_frequencies_rejected(self):
        w = [np.eye(2), np.eye(2)]
        with pytest.raises(ParameterError):
            frequency_merge(w, [0.7, 0.7])
        with pytest.raises(ParameterError):
            frequency_merge(w, [-0.5, 1.5])


class TestDeltas:
    def test_identical_weights_zero_deltas(self):
        w = np.ones((3, 3))
        for d in compute_deltas([w, w, w], w):
            assert not d.any()

    def test_mean_merge_deltas_center(self):
        rng = np.random.default_rng(8)
        weights = [rng.normal(size=(6, 6)) for _ in range(5)]
        deltas = compute_deltas(weights, mean_merge(weights))
        np.testing.assert_allclose(sum(deltas), np.zeros((6, 6)), atol=1e-12)

    def test_frequency_merge_deltas_center_weighted(self):
        rng = np.random.default_rng(9)
        weights = [rng.normal(size=(4, 4)) for _ in range(3)]
        freq = np.array([0.6, 0.3, 0.1])
        deltas = compute_deltas(weights, frequency_merge(weights, freq))
        weighted = sum(f * d for f, d in zip(freq, deltas))
        np.testing.assert_allclose(weighted, np.zeros((4, 4)), atol=1e-12)

    def test_reconstruction_within_ulp(self):
        rng = np.random.default_rng(10)
        weights = [rng.normal(size=(8, 8)) for _ in range(4)]
        w_b = mean_merge(weights)
        for w, d in zip(weights, compute_deltas(weights, w_b)):
            np.testing.assert_allclose(w_b + d, w, rtol=1e-15, atol=1e-15)


class TestLowerRankTendency:
    def test_fixture_deltas_concentrate_energy(self):
        """On the correlated-expert fixture, every mean-merge delta retains
        strictly more energy at k = ceil(min(m,n)/4) than its raw weight."""
        fx = gen_fixture(seed=0)
        for layer in fx.model.layers:
            for role in (Role.UP, Role.DOWN):
                weights = [e[role] for e in layer.experts]
                deltas = compute_deltas(weights, mean_merge(weights))
                m, n = weights[0].shape
                k = -(-min(m, n) // 4)
                for w, d in zip(weights, deltas):
                    r_w = energy_retention(svd(w).sigma, k)
                    r_d = energy_retention(svd(d).sigma, k)
                    assert r_d > r_w
