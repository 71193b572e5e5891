"""Semi-dynamic pruning tests.

Selection behavior is checked against a brute-force oracle that sorts
(metric, original index) tuples, which encodes the tie rule directly.
"""

import math

import numpy as np
import pytest

from d2moe.container import container_load, load_compressed_model, save_compressed_model
from d2moe.errors import ParameterError, ShapeError
from d2moe.linalg import col_l2_norms
from d2moe.moe import Role
from d2moe.pruning import (
    PruneMask,
    PrunedBase,
    _active_positions,
    dynamic_mask,
    static_metric,
    static_metric_from_gram,
    static_prune,
)
from d2moe.runtime import CompressedLayer, CompressedModel, _column_sumsq


def drop_oracle(metric, ids, quota):
    """Lowest `quota` scores dropped, ties to the lower original index."""
    ranked = sorted(zip(metric.tolist(), ids.tolist()))
    dropped = {i for _, i in ranked[:quota]}
    return np.array([i for i in ids.tolist() if i not in dropped], dtype=np.int64)


class TestStaticMetric:
    def test_hand_example(self):
        w = np.array([[3.0, 0.0], [0.0, 4.0]])
        x = np.array([[1.0, 1.0], [2.0, 2.0]])
        c = static_metric(w, x)
        np.testing.assert_allclose(c, [3.0 * math.sqrt(2.0), 4.0 * math.sqrt(8.0)],
                                   rtol=1e-15)

    def test_gram_route_agrees_with_token_route(self):
        rng = np.random.default_rng(0)
        w = rng.normal(size=(8, 12))
        x = rng.normal(size=(12, 40))
        np.testing.assert_allclose(static_metric_from_gram(w, x @ x.T),
                                   static_metric(w, x), rtol=1e-12)

    def test_row_mismatch(self):
        with pytest.raises(ShapeError):
            static_metric(np.ones((3, 4)), np.ones((5, 2)))


class TestStaticPrune:
    def test_count_law_across_sparsities(self):
        rng = np.random.default_rng(1)
        for n in (64, 17, 23):
            w = rng.normal(size=(6, n))
            c = rng.uniform(size=n)
            for s in np.arange(0.1, 1.0, 0.1):
                pruned = static_prune(w, c, float(s))
                n_static = pruned.mask.static_removed.size
                assert n_static == math.floor(n * s / 2)
                assert n_static + pruned.mask.dynamic_quota == math.floor(n * s)
                assert pruned.kept.shape == (6, n - n_static)

    def test_removes_lowest_metric_columns(self):
        w = np.arange(20.0).reshape(4, 5)
        c = np.array([5.0, 1.0, 4.0, 0.5, 3.0])
        pruned = static_prune(w, c, 0.8)  # floor(5*0.8/2) = 2
        np.testing.assert_array_equal(pruned.mask.static_removed, [1, 3])
        np.testing.assert_array_equal(pruned.kept_col_ids, [0, 2, 4])
        np.testing.assert_array_equal(pruned.kept, w[:, [0, 2, 4]])

    def test_ties_remove_lower_index(self):
        w = np.ones((3, 6))
        c = np.ones(6)
        pruned = static_prune(w, c, 0.7)  # floor(2.1) = 2 removed
        np.testing.assert_array_equal(pruned.mask.static_removed, [0, 1])

    def test_zero_sparsity_keeps_everything(self):
        w = np.random.default_rng(2).normal(size=(4, 10))
        pruned = static_prune(w, np.arange(10.0), 0.0)
        assert pruned.mask.static_removed.size == 0
        assert pruned.mask.dynamic_quota == 0
        np.testing.assert_array_equal(pruned.kept, w)

    def test_sparsity_range(self):
        w = np.ones((2, 4))
        with pytest.raises(ParameterError):
            static_prune(w, np.arange(4.0), 1.0)
        with pytest.raises(ParameterError):
            static_prune(w, np.arange(4.0), -0.1)


class TestDynamicMask:
    def make_pruned(self, seed=3, n=16, s=0.5):
        rng = np.random.default_rng(seed)
        w = rng.normal(size=(8, n))
        x = rng.normal(size=(n, 64))
        return static_prune(w, static_metric(w, x), s), rng

    def test_active_count_and_disjointness(self):
        pruned, rng = self.make_pruned()
        batch = rng.normal(size=(pruned.kept.shape[1], 32))
        active = dynamic_mask(pruned, batch)
        assert active.size == 16 - math.floor(16 * 0.5)
        assert np.intersect1d(active, pruned.mask.static_removed).size == 0
        assert np.all(np.isin(active, pruned.kept_col_ids))

    def test_matches_sort_oracle_on_seeded_batches(self):
        pruned, _ = self.make_pruned(seed=4, n=20, s=0.4)
        quota = pruned.mask.dynamic_quota
        for seed in range(100):
            batch = np.random.default_rng(100 + seed).normal(
                size=(pruned.kept.shape[1], 24))
            expected = drop_oracle(static_metric(pruned.kept, batch),
                                   pruned.kept_col_ids, quota)
            np.testing.assert_array_equal(dynamic_mask(pruned, batch), expected)

    def test_ties_drop_lower_original_index(self):
        # equal metric everywhere: statics take 0..k-1, dynamics the next block
        n, s = 10, 0.6
        pruned = static_prune(np.ones((4, n)), np.ones(n), s)
        np.testing.assert_array_equal(pruned.mask.static_removed, [0, 1, 2])
        batch = np.ones((pruned.kept.shape[1], 8))
        active = dynamic_mask(pruned, batch)
        np.testing.assert_array_equal(active, [6, 7, 8, 9])

    def test_stateless_across_calls(self):
        pruned, rng = self.make_pruned(seed=5)
        a = rng.normal(size=(pruned.kept.shape[1], 16))
        b = rng.normal(size=(pruned.kept.shape[1], 16))
        first = dynamic_mask(pruned, a)
        dynamic_mask(pruned, b)
        np.testing.assert_array_equal(dynamic_mask(pruned, a), first)

    def test_zero_quota_returns_fresh_copy(self):
        pruned, rng = self.make_pruned(seed=6, s=0.0)
        batch = rng.normal(size=(pruned.kept.shape[1], 8))
        active = dynamic_mask(pruned, batch)
        np.testing.assert_array_equal(active, pruned.kept_col_ids)
        active[0] = -1
        assert pruned.kept_col_ids[0] == 0

    def test_batch_must_align_with_kept_columns(self):
        pruned, rng = self.make_pruned(seed=7, n=16, s=0.5)
        with pytest.raises(ShapeError):
            dynamic_mask(pruned, rng.normal(size=(16, 8)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_batch_rejected(self, bad):
        pruned, rng = self.make_pruned(seed=8, n=16, s=0.5)
        batch = rng.normal(size=(pruned.kept.shape[1], 8))
        batch[3, 5] = bad
        with pytest.raises(ShapeError, match="non-finite"):
            dynamic_mask(pruned, batch)


def legacy_active_positions(pruned, rows):
    """The boolean-mask form: linalg.norm scores, drop the lowest quota, flatnonzero."""
    n = pruned.kept_col_ids.size
    quota = pruned.mask.dynamic_quota
    if quota == 0:
        return np.arange(n)
    c = pruned.col_norms * np.linalg.norm(rows, axis=1)
    keep = np.ones(n, dtype=bool)
    keep[np.argsort(c, kind="stable")[:quota]] = False
    return np.flatnonzero(keep)


class TestActivePositions:
    """_active_positions against the boolean-mask form it replaced, byte for
    byte, fed the sums of squares both as `dynamic_mask` forms them from
    (kept, T) rows and as the token-major runtime forms them from (T, kept)."""

    def assert_same(self, pruned, rows):
        want = legacy_active_positions(pruned, rows)
        for sumsq in ((rows * rows).sum(axis=1), _column_sumsq(np.ascontiguousarray(rows.T))):
            got = _active_positions(pruned, sumsq)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("tokens", [1, 3, 128])
    @pytest.mark.parametrize("s", [0.0, 0.2, 0.5, 0.9])
    def test_random_rows(self, tokens, s):
        rng = np.random.default_rng(50 + tokens)
        w = rng.normal(size=(8, 24))
        pruned = static_prune(w, static_metric(w, rng.normal(size=(24, 64))), s)
        assert (pruned.mask.dynamic_quota == 0) == (s == 0.0)
        for _ in range(20):
            self.assert_same(pruned, rng.normal(size=(pruned.kept.shape[1], tokens)))

    @pytest.mark.parametrize("tokens", [1, 3, 128])
    @pytest.mark.parametrize("s", [0.0, 0.3, 0.6])
    def test_tie_heavy_rows(self, tokens, s):
        # two column patterns of equal norm and rows drawn from {-1, 0, 1}:
        # most scores tie, many at exactly zero
        rng = np.random.default_rng(60 + tokens)
        patterns = np.array([[1.0, -1.0, 1.0, 1.0], [-1.0, 1.0, 1.0, -1.0]]).T
        w = patterns[:, rng.integers(0, 2, size=20)]
        pruned = static_prune(w, np.ones(20), s)
        for _ in range(20):
            rows = rng.integers(-1, 2, size=(pruned.kept.shape[1], tokens)).astype(np.float64)
            rows[rng.random(rows.shape[0]) < 0.3] = 0.0
            self.assert_same(pruned, rows)
        self.assert_same(pruned, np.ones((pruned.kept.shape[1], tokens)))


class TestColumnNorms:
    """PrunedBase caches the column norms every dynamic mask scores."""

    @pytest.mark.parametrize("s", [0.0, 0.3, 0.5, 0.9])
    def test_equal_to_col_l2_norms_after_static_prune(self, s):
        rng = np.random.default_rng(9)
        w = rng.normal(size=(7, 20))
        pruned = static_prune(w, static_metric(w, rng.normal(size=(20, 30))), s)
        assert pruned.col_norms.tobytes() == col_l2_norms(pruned.kept).tobytes()

    def test_equal_to_col_l2_norms_after_container_round_trip(self, tmp_path):
        rng = np.random.default_rng(10)
        d, hidden = 10, 12
        base = {}
        for role, w in ((Role.UP, rng.normal(size=(hidden, d))), (Role.DOWN, rng.normal(size=(d, hidden)))):
            base[role] = static_prune(w, static_metric(w, rng.normal(size=(w.shape[1], 40))), 0.4)
        layer = CompressedLayer(gate=rng.normal(size=(3, d)), base=base, deltas={}, top_k=2,
                                trimmed=(0, 1, 2))
        save_compressed_model(tmp_path / "c.d2m",
                              CompressedModel(layers=[layer], head=rng.normal(size=(2, d))))
        loaded = load_compressed_model(container_load(tmp_path / "c.d2m")).layers[0]
        for role in (Role.UP, Role.DOWN):
            kept = loaded.base[role]
            assert kept.col_norms.tobytes() == col_l2_norms(kept.kept).tobytes()
            assert kept.col_norms.tobytes() == base[role].col_norms.tobytes()


class TestMaskValidation:
    def test_size_must_match_count_law(self):
        with pytest.raises(ParameterError):
            PruneMask(total_cols=10, static_removed=np.array([0, 1, 2]),
                      target_sparsity=0.4)

    def test_out_of_range_and_duplicate_indices(self):
        with pytest.raises(ParameterError):
            PruneMask(total_cols=10, static_removed=np.array([0, 99]),
                      target_sparsity=0.4)
        with pytest.raises(ParameterError):
            PruneMask(total_cols=10, static_removed=np.array([3, 3]),
                      target_sparsity=0.4)

    def test_pruned_base_ids_must_complement_removed(self):
        mask = PruneMask(total_cols=4, static_removed=np.array([0]),
                         target_sparsity=0.5)
        with pytest.raises(ParameterError):
            PrunedBase(kept=np.ones((2, 3)), kept_col_ids=np.array([0, 2, 3]),
                       mask=mask)
