"""Delta factorization tests.

The whitened path is checked against an oracle assembled from scipy's
Cholesky, numpy's raw SVD and scipy's triangular solve, the formula
u = U_k sqrt(Sigma_k), v = sqrt(Sigma_k) V_k^T S^{-1} (only the damping
constant is shared), and, on the benchmark fixture's deltas, against the
per-delta thin-SVD route it replaced, U_k of numpy's SVD of delta @ S. Rank
selection is checked against brute-force enumeration of the storage
inequality.
"""

import numpy as np
import pytest
import scipy.linalg

from d2moe import factorize
from d2moe.config import CompressionConfig
from d2moe.errors import ConfigError, NumericalError, ParameterError, ShapeError
from d2moe.factorize import (
    DeltaFactor,
    rank_for_ratio,
    weighted_error,
    whitened_factors,
)
from d2moe.fixtures import gen_fixture
from d2moe.linalg import blas_threads, cholesky_damped
from d2moe.moe import Role
from d2moe.pipeline import compute_layer_stats, merge_role
from fisher_oracle import vanilla_svd_compress


def make_case(seed, m=6, n=6, t=40):
    """Random delta plus an activation Gram built from explicit tokens."""
    rng = np.random.default_rng(seed)
    d = rng.normal(size=(m, n))
    x = rng.normal(size=(n, t))
    return d, x, x @ x.T


def whitened(d, g, k):
    """The whitened rank-k factor of one delta: `whitened_factors` on a stack of one."""
    return whitened_factors([d], [g], k)[0][0]


def solve_oracle(d, g, k):
    """The whitened factors by the triangular-solve formula: S from scipy's
    Cholesky at cholesky_damped's damping, then S^{-1} folded into v."""
    n = g.shape[0]
    _, lam = cholesky_damped(g)
    s = scipy.linalg.cholesky(g + lam * np.eye(n), lower=True)
    u, sig, vt = np.linalg.svd(d @ s, full_matrices=False)
    root = np.sqrt(sig[:k])
    v = scipy.linalg.solve_triangular(s, vt[:k].T * root, lower=True, trans="T").T
    return u[:, :k] * root, v


class TestRankForRatio:
    def test_square_hundred_half(self):
        assert rank_for_ratio(100, 100, 0.5) == 25

    def test_tiny_ratio_floors_at_one(self):
        assert rank_for_ratio(10, 10, 1e-6) == 1

    def test_matches_storage_enumeration(self):
        for m, n in [(64, 32), (100, 100), (7, 13), (128, 16)]:
            for p in np.linspace(0.05, 1.0, 20):
                best = 0
                for k in range(1, min(m, n) + 1):
                    if (m + n) * k <= p * m * n:
                        best = k
                assert rank_for_ratio(m, n, float(p)) == max(1, best)

    def test_bad_inputs(self):
        with pytest.raises(ParameterError):
            rank_for_ratio(4, 4, 0.0)
        with pytest.raises(ParameterError):
            rank_for_ratio(4, 4, 1.5)
        with pytest.raises(ShapeError):
            rank_for_ratio(0, 4, 0.5)


class TestRankPolicy:
    """The truncation rank chosen by `CompressionConfig.rank_for`."""

    def test_modes(self):
        assert CompressionConfig(delta_ratio=0.5).rank_for(0, 100, 100) == 25
        assert CompressionConfig(rank_mode="fixed", delta_rank=3).rank_for(0, 10, 20) == 3
        assert CompressionConfig(rank_mode="lossless").rank_for(0, 10, 20) == 10

    def test_fixed_rank_exceeding_min_dim(self):
        with pytest.raises(ParameterError):
            CompressionConfig(rank_mode="fixed", delta_rank=11).rank_for(0, 10, 20)

    def test_validation(self):
        with pytest.raises(ConfigError):
            CompressionConfig(delta_ratio=None).validate()
        with pytest.raises(ConfigError):
            CompressionConfig(rank_mode="fixed", delta_rank=0).validate()
        with pytest.raises(ConfigError):
            CompressionConfig(rank_mode="banana").validate()


class TestTruncationAwareSvd:
    def test_identity_gram_matches_vanilla_product(self):
        d, _, _ = make_case(0)
        white = whitened(d, np.eye(6), 3)
        plain = vanilla_svd_compress(d, 3)
        np.testing.assert_allclose(white.product(), plain.product(),
                                   rtol=1e-6, atol=1e-9)

    def test_rank_one_delta_exact(self):
        rng = np.random.default_rng(1)
        d = np.outer(rng.normal(size=8), rng.normal(size=5))
        _, x, g = make_case(2, m=8, n=5, t=30)
        f = whitened(d, g, 1)
        np.testing.assert_allclose(f.product(), d, atol=1e-9)

    def test_against_whitened_svd_oracle(self):
        d, _, g = make_case(3)
        for k in range(1, 7):
            u, v = solve_oracle(d, g, k)
            f = whitened(d, g, k)
            np.testing.assert_allclose(f.product(), u @ v, atol=1e-9)

    def test_full_rank_is_lossless(self):
        d, _, g = make_case(4)
        f = whitened(d, g, 6)
        assert np.max(np.abs(f.product() - d)) <= 1e-7

    def test_dominates_vanilla_in_weighted_error(self):
        for seed in range(5):
            d, _, g = make_case(seed, m=8, n=6, t=50)
            for k in range(1, 7):
                e_white = weighted_error(d, whitened(d, g, k), g)
                e_plain = weighted_error(d, vanilla_svd_compress(d, k), g)
                assert e_white <= e_plain + 1e-9

    def test_error_monotone_in_rank(self):
        d, _, g = make_case(5, m=7, n=7)
        errors = [weighted_error(d, whitened(d, g, k), g)
                  for k in range(1, 8)]
        for lo, hi in zip(errors[1:], errors[:-1]):
            assert lo <= hi + 1e-9

    def test_shape_and_rank_validation(self):
        d, _, g = make_case(6)
        with pytest.raises(ShapeError):
            whitened(d, np.eye(5), 2)
        with pytest.raises(ParameterError):
            whitened(d, g, 0)
        with pytest.raises(ParameterError):
            whitened(d, g, 7)


class TestProjectionAgainstSolveFormula:
    """The stored u = U_k, v = U_k^T delta against the solve formula it
    replaced, on the benchmark's shapes: Up delta 128x64 with a 64x64 Gram,
    Down delta 64x128 with a 128x128 Gram, rank 21."""

    SHAPES = [(128, 64), (64, 128)]
    K = 21

    @pytest.mark.parametrize("m,n", SHAPES)
    def test_product_matches_for_a_well_conditioned_gram(self, m, n):
        rng = np.random.default_rng(m + 3 * n)
        d = rng.normal(size=(m, n))
        x = rng.normal(size=(n, 512))
        g = x @ x.T
        u, v = solve_oracle(d, g, self.K)
        f = whitened(d, g, self.K)
        oracle = u @ v
        assert np.linalg.norm(f.product() - oracle) <= 1e-10 * np.linalg.norm(oracle)
        assert f.u.shape == (m, self.K) and f.v.shape == (self.K, n)

    @pytest.mark.parametrize("m,n", SHAPES)
    @pytest.mark.parametrize("case", ["three_tokens", "zero_gram", "zero_delta", "rank_two_delta",
                                      "full_rank"])
    def test_degenerate_inputs(self, m, n, case):
        """A degenerate expert stacked between two healthy ones. All three
        rows have finite factors and orthonormal u and equal their
        single-expert calls byte for byte. The degenerate row's error on the
        Gram's tokens, ||(delta - u v) X||_F, is no larger than the solve
        formula's within 1e-9 of ||delta X||_F (taken on the tokens, not
        through `weighted_error`, whose round-off is larger than 1e-9 here);
        a zero delta gives a zero product, and a delta of rank below k or a
        full rank k = min(m, n) reproduces the delta within 1e-7."""
        rng = np.random.default_rng(7 * m + n)
        d = rng.normal(size=(m, n))
        x = rng.normal(size=(n, 512))
        k = self.K
        if case == "three_tokens":
            x = rng.normal(size=(n, 3))
        elif case == "zero_gram":
            x = np.zeros((n, 1))
        elif case == "zero_delta":
            d = np.zeros((m, n))
        elif case == "rank_two_delta":
            d = rng.normal(size=(m, 2)) @ rng.normal(size=(2, n))
        else:
            k = min(m, n)
        g = x @ x.T
        healthy = [(rng.normal(size=(m, n)), h @ h.T)
                   for h in (rng.normal(size=(n, 512)) for _ in range(2))]
        stack = [healthy[0], (d, g), healthy[1]]
        factors, errors = whitened_factors([a for a, _ in stack], [b for _, b in stack], k)
        assert np.all(np.isfinite(errors))
        for f, (di, gi) in zip(factors, stack):
            assert np.all(np.isfinite(f.u)) and np.all(np.isfinite(f.v))
            np.testing.assert_allclose(f.u.T @ f.u, np.eye(k), rtol=0, atol=1e-12)
            single = whitened(di, gi, k)
            assert f.u.tobytes() == single.u.tobytes() and f.v.tobytes() == single.v.tobytes()
        f = factors[1]
        u, v = solve_oracle(d, g, k)
        assert np.all(np.isfinite(u)) and np.all(np.isfinite(v))
        ours = np.linalg.norm((d - f.product()) @ x)
        theirs = np.linalg.norm((d - u @ v) @ x)
        assert ours <= theirs + 1e-9 * np.linalg.norm(d @ x)
        if case == "zero_delta":
            assert np.all(f.product() == 0.0)
        elif case in ("rank_two_delta", "full_rank"):
            assert np.max(np.abs(f.product() - d)) <= 1e-7


@pytest.fixture(scope="module")
def bench_deltas():
    """Per merge, (layer, role, deltas, grams, k) for every layer and role of
    the benchmark fixture, calibrated as the benchmark compresses it, the
    deltas W_i - W_b of `merge_role`'s base: Up deltas are 128 x 64 with
    64 x 64 Grams, Down deltas 64 x 128 with 128 x 128 Grams, rank 21."""
    fx = gen_fixture(0, layers=4, d_model=64, hidden=128, n_experts=16, tokens=8192)
    cases = {}
    for merge in ("fisher", "mean"):
        cfg = CompressionConfig(merge_method=merge, delta_ratio=0.5, sparsity=0.4)
        stats, _ = compute_layer_stats(fx.model, fx.tokens[:, :512], cfg, labels=fx.labels[:512])
        cases[merge] = []
        for l, (layer, st) in enumerate(zip(fx.model.layers, stats)):
            for role in (Role.UP, Role.DOWN):
                deltas = layer.weights[role] - merge_role(layer, role, st, cfg)[0]
                k = cfg.rank_for(l, *deltas[0].shape)
                cases[merge].append((l, role, deltas, st.grams[role], k))
    assert {(deltas[0].shape, k) for _, _, deltas, _, k in cases["fisher"]} == \
        {((128, 64), 21), ((64, 128), 21)}
    return cases


def whitened_residuals(deltas, grams, us):
    """||(delta - u u^T delta) @ S||_F per expert, S = cholesky_damped(gram):
    the objective the whitened truncation minimizes, taken directly rather
    than through `weighted_error`'s squared trace, whose round-off (~1e-9 on
    near-lossless experts) is larger than the differences compared here.
    Also returns the largest singular value of each delta @ S."""
    resid, top = [], []
    for d, g, u in zip(deltas, grams, us):
        s, _ = cholesky_damped(g)
        resid.append(np.linalg.norm((d - u @ (u.T @ d)) @ s))
        top.append(np.linalg.norm(d @ s, 2))
    return np.array(resid), np.array(top)


def svd_oracle_u(deltas, grams, k):
    """The per-delta route the stacked call replaced: U_k of a thin SVD."""
    return [np.linalg.svd(d @ cholesky_damped(g)[0], full_matrices=False)[0][:, :k]
            for d, g in zip(deltas, grams)]


class TestWhitenedFactors:
    """The stacked Gram-eigendecomposition route on the benchmark fixture's
    deltas, against the thin-SVD oracle and against itself one expert at a time."""

    @pytest.mark.parametrize("merge", ["fisher", "mean"])
    def test_no_worse_than_the_svd_oracle(self, bench_deltas, merge):
        """Every expert's whitened residual is at most the oracle's plus 1e-9
        of the largest residual of its layer and role, plus 100 eps sigma_1
        of its own whitened delta. The last term is the round-off of a
        residual that is itself round-off: with the mean merge, every Down
        delta is reproduced to ~1e-15. Many mean-merge Up experts keep
        sigma_k ~ 1e-7 sigma_1, where the Gram of the first eigensolve cannot
        order the spectrum and the recomputed tail must."""
        eps = np.finfo(np.float64).eps
        for l, role, deltas, grams, k in bench_deltas[merge]:
            with blas_threads(1):
                factors, _ = whitened_factors(deltas, grams, k)
            ours, top = whitened_residuals(deltas, grams, [f.u for f in factors])
            oracle, _ = whitened_residuals(deltas, grams, svd_oracle_u(deltas, grams, k))
            assert np.all(ours <= oracle + 1e-9 * oracle.max() + 100 * eps * top), (l, role)

    @pytest.mark.parametrize("m,n", [(128, 64), (64, 128)])
    def test_graded_spectrum_keeps_the_svd_subspace(self, m, n):
        """Singular values graded from 1 down to 1e-12, with sigma_21 = 1e-7
        and sigma_22 = 0.9e-7 at the cut, and an identity Gram: the squared
        values at the cut differ by 1.9e-15 of the largest, below what one
        Gram eigensolve resolves (the kept subspace is then off by 0.04 to
        0.4), and the recomputed tail keeps the thin SVD's within 1e-3."""
        rng = np.random.default_rng(m)
        p, k = min(m, n), 21
        sigma = np.concatenate([np.logspace(0, -7, k), np.logspace(np.log10(0.9e-7), -12, p - k)])
        left = np.linalg.qr(rng.normal(size=(m, p)))[0]
        right = np.linalg.qr(rng.normal(size=(n, p)))[0]
        d = (left * sigma) @ right.T
        g = np.eye(n)
        f = whitened(d, g, k)
        want = np.linalg.svd(d @ cholesky_damped(g)[0], full_matrices=False)[0][:, :k]
        assert np.linalg.norm(f.u @ f.u.T - want @ want.T, 2) <= 1e-3

    @pytest.mark.parametrize("merge", ["fisher", "mean"])
    def test_stack_rows_equal_single_calls_byte_for_byte(self, bench_deltas, merge):
        for l, role, deltas, grams, k in bench_deltas[merge]:
            with blas_threads(1):
                factors, errors = whitened_factors(deltas, grams, k)
                for i, (d, g) in enumerate(zip(deltas, grams)):
                    single = whitened(d, g, k)
                    assert factors[i].u.tobytes() == single.u.tobytes(), (l, role, i)
                    assert factors[i].v.tobytes() == single.v.tobytes(), (l, role, i)
                    assert errors[i] == weighted_error(d, single, g), (l, role, i)

    @pytest.mark.parametrize("merge", ["fisher", "mean"])
    def test_sign_rule(self, bench_deltas, merge):
        """The first nonzero entry of every u column is positive."""
        for _, _, deltas, grams, k in bench_deltas[merge]:
            for f in whitened_factors(deltas, grams, k)[0]:
                first = f.u[np.argmax(f.u != 0, axis=0), np.arange(k)]
                assert np.all(first > 0)

    def test_stack_validation(self):
        d, _, g = make_case(6)
        with pytest.raises(ShapeError):
            whitened_factors([], [], 2)
        with pytest.raises(ShapeError):
            whitened_factors([d, d], [g], 2)
        with pytest.raises(ShapeError):
            whitened_factors([d, d[:, :5]], [g, g[:5, :5]], 2)
        with pytest.raises(ShapeError):
            whitened_factors([d, d], [g, np.eye(5)], 2)
        with pytest.raises(ParameterError):
            whitened_factors([d, d], [g, g], 7)

    def test_list_and_stack_give_the_same_bytes(self, bench_deltas):
        """Sequences of matrices, and calibration's packed Grams, give the
        factors, the weighted errors and the exceptions of the (E, m, n)
        arrays they read as."""
        for _, _, deltas, packed, k in bench_deltas["fisher"]:
            grams = np.stack(list(packed))
            stacked = whitened_factors(deltas, grams, k)
            for other in (whitened_factors(list(deltas), list(grams), k),
                          whitened_factors(deltas, packed, k)):
                assert stacked[1].tobytes() == other[1].tobytes()
                for a, b in zip(stacked[0], other[0], strict=True):
                    assert a.u.tobytes() == b.u.tobytes() and a.v.tobytes() == b.v.tobytes()
        bad = grams.copy()
        bad[3, 0, 1] += 1.0
        messages = []
        for args in [(deltas, bad), (list(deltas), list(bad))]:
            with pytest.raises(ShapeError) as err:
                whitened_factors(*args, k)
            messages.append(str(err.value))
        assert messages[0] == messages[1]

    def test_one_bad_matrix_in_a_stack_raises(self):
        rng = np.random.default_rng(21)
        d = rng.normal(size=(4, 6, 5))
        x = rng.normal(size=(4, 5, 30))
        g = x @ x.transpose(0, 2, 1)
        whitened_factors(d, g, 2)
        asym = g.copy()
        asym[2, 4, 0] += 1e-3
        with pytest.raises(ShapeError, match=r"grams\[2\] not symmetric"):
            whitened_factors(d, asym, 2)
        nonfinite = d.copy()
        nonfinite[1, 0, 3] = np.nan
        with pytest.raises(ShapeError, match="non-finite"):
            whitened_factors(nonfinite, g, 2)
        nonfinite = g.copy()
        nonfinite[3, 1, 1] = np.inf
        with pytest.raises(ShapeError, match=r"grams\[3\]: contains non-finite"):
            whitened_factors(d, nonfinite, 2)

    def test_calls_cholesky_damped_and_weighted_error_per_expert(self, monkeypatch):
        """Each expert's Gram is factored by `cholesky_damped`, the damping
        its second positional argument, and each factor scored by
        `weighted_error`, once per expert and in expert order."""
        calls = {"cholesky_damped": [], "weighted_error": []}
        for name, log in calls.items():
            def spy(*args, _real=getattr(factorize, name), _log=log, **kwargs):
                _log.append(args)
                return _real(*args, **kwargs)
            monkeypatch.setattr(factorize, name, spy)
        rng = np.random.default_rng(23)
        d = rng.normal(size=(4, 6, 5))
        x = rng.normal(size=(4, 5, 30))
        factors, errors = whitened_factors(d, x @ x.transpose(0, 2, 1), 2, damping=1e-6)
        assert [args[1:] for args in calls["cholesky_damped"]] == [
            (1e-6, f"grams[{i}]", 5) for i in range(4)]
        assert all(args[1] is f for args, f in zip(calls["weighted_error"], factors, strict=True))
        assert errors.tolist() == [weighted_error(*args) for args in calls["weighted_error"]]

    @pytest.mark.parametrize("m,n", [(6, 5), (5, 6)])
    def test_overflowing_whitened_gram_is_numerical(self, m, n):
        """Finite deltas of a never-routed expert (zero Gram, so S = 1e-4 I)
        whose whitened Gram overflows: a NumericalError, not the
        eigensolver's failure to converge."""
        rng = np.random.default_rng(24)
        d = rng.normal(size=(2, m, n))
        d[1] = 1.5e308
        x = rng.normal(size=(n, 30))
        grams = np.stack([x @ x.T, np.zeros((n, n))])
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalError, match="whitened deltas overflow"):
                whitened_factors(d, grams, 2)

    @pytest.mark.parametrize("damping", [np.nan, np.inf, -1e-8])
    def test_rejects_non_finite_or_negative_damping(self, damping):
        """A NaN damping used to surface as numpy's own LinAlgError."""
        d, _, g = make_case(22)
        with pytest.raises(ParameterError, match="damping"):
            whitened_factors([d, d], [g, g], 2, damping=damping)


class TestVanillaSvd:
    def test_diag_truncation(self):
        f = vanilla_svd_compress(np.diag([3.0, 1.0]), 1)
        np.testing.assert_allclose(f.product(), [[3.0, 0.0], [0.0, 0.0]], atol=1e-12)

    def test_full_rank_round_trip(self):
        d, _, _ = make_case(7, m=5, n=9)
        f = vanilla_svd_compress(d, 5)
        np.testing.assert_allclose(f.product(), d, atol=1e-12)

    def test_param_count(self):
        d, _, _ = make_case(8, m=10, n=4)
        f = vanilla_svd_compress(d, 3)
        assert f.u.size + f.v.size == (10 + 4) * 3


class TestWeightedError:
    def test_exact_factorization_zero(self):
        d, _, g = make_case(11)
        f = whitened(d, g, 6)
        assert weighted_error(d, f, g) <= 1e-7

    def test_identity_gram_is_frobenius(self):
        d, _, _ = make_case(12)
        f = vanilla_svd_compress(d, 2)
        expected = float(np.linalg.norm(d - f.product()))
        assert weighted_error(d, f, np.eye(6)) == pytest.approx(expected, rel=1e-12)

    def test_explicit_token_oracle(self):
        d, x, g = make_case(13, m=9, n=5, t=33)
        f = vanilla_svd_compress(d, 2)
        expected = float(np.linalg.norm((d - f.product()) @ x))
        assert weighted_error(d, f, g) == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("m,n,t,k", [(9, 5, 33, 2), (24, 12, 40, 4), (16, 8, 3, 4)])
    def test_matches_einsum_oracle(self, m, n, t, k):
        """The one-GEMM trace against the three-operand einsum it replaced,
        within 1e-12 * ||E||_F^2 * ||G||_2. In the last case the rank covers
        the span of the t tokens, so the true trace is round-off around zero
        and only this absolute bound holds."""
        d, _, g = make_case(15 + t, m=m, n=n, t=t)
        f = whitened(d, g, k)
        e = d - f.product()
        oracle = float(np.einsum("ij,jk,ik->", e, g, e))
        bound = 1e-12 * float(np.sum(e * e)) * float(np.linalg.norm(g, 2))
        assert abs(weighted_error(d, f, g) ** 2 - max(oracle, 0.0)) <= bound

    def test_shape_checks(self):
        d, _, g = make_case(14)
        f = vanilla_svd_compress(d, 2)
        with pytest.raises(ShapeError):
            weighted_error(d, f, np.eye(4))
        with pytest.raises(ShapeError):
            weighted_error(d[:, :5], f, g)


class TestDeltaFactor:
    def test_inconsistent_rank_rejected(self):
        with pytest.raises(ShapeError):
            DeltaFactor(u=np.zeros((4, 2)), v=np.zeros((3, 5)))

    def test_rank_bounds(self):
        with pytest.raises(ParameterError):
            DeltaFactor(u=np.zeros((2, 5)), v=np.zeros((5, 2)))

    def test_storage_formula(self):
        f = DeltaFactor(u=np.zeros((8, 3)), v=np.zeros((3, 6)))
        assert f.rank == 3
        assert f.u.size + f.v.size == (8 + 6) * 3
        assert f.shape == (8, 6)
