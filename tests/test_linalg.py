"""Linear-algebra kernel tests.

The plain-SVD ablation's singular values are checked against an
independently coded one-sided Jacobi rotation oracle, not against the
library routine it calls, so a shared dependency bug cannot self-certify.
"""

import numpy as np
import pytest

from d2moe import linalg
from d2moe.errors import NotPositiveDefiniteError, ParameterError, ShapeError
from d2moe.factorize import vanilla_svd_compress
from d2moe.linalg import (
    as_gram_stack,
    as_matrix,
    as_stack,
    blas_threads,
    cholesky_damped,
    first_nonzero_negative,
)


def split_sigma(f):
    """Singular values of a `vanilla_svd_compress` factor, read from its
    split u = U_k sqrt(Sigma_k): the squared norms of the u columns."""
    return np.sum(f.u * f.u, axis=0)


def jacobi_svd_sigma(a, sweeps=60, tol=1e-14):
    """Singular values via one-sided Jacobi rotations.

    Columns are rotated pairwise until mutually orthogonal; the singular
    values are then the column norms. Independent of any LAPACK driver.
    """
    work = np.array(a, dtype=np.float64, copy=True)
    n = work.shape[1]
    for _ in range(sweeps):
        rotated = False
        for p in range(n - 1):
            for q in range(p + 1, n):
                alpha = float(work[:, p] @ work[:, p])
                beta = float(work[:, q] @ work[:, q])
                gamma = float(work[:, p] @ work[:, q])
                if abs(gamma) <= tol * np.sqrt(alpha * beta):
                    continue
                rotated = True
                zeta = (beta - alpha) / (2.0 * gamma)
                t = np.sign(zeta) / (abs(zeta) + np.sqrt(1.0 + zeta * zeta))
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = c * t
                col_p = work[:, p].copy()
                work[:, p] = c * col_p - s * work[:, q]
                work[:, q] = s * col_p + c * work[:, q]
        if not rotated:
            break
    return np.sort(np.sqrt(np.sum(work * work, axis=0)))[::-1]


class TestStackValidation:
    def test_checks_a_c_order_stack_in_place(self):
        s = np.arange(24.0).reshape(2, 3, 4)
        assert as_stack(s) is s

    def test_stacks_a_sequence(self):
        mats = [np.eye(2), 2 * np.eye(2), np.asfortranarray(np.ones((2, 2)))]
        s = as_stack(mats)
        assert s.shape == (3, 2, 2) and s.flags["C_CONTIGUOUS"] and s.dtype == np.float64
        assert np.array_equal(s, np.stack(mats))

    @pytest.mark.parametrize("bad", [
        [np.eye(2), np.eye(3)],          # ragged
        [],                              # empty
        np.zeros((0, 2, 2)),             # no experts
        np.zeros((2, 0, 2)),             # degenerate matrices
        np.eye(2),                       # one matrix, not a stack
        np.zeros((2, 2, 2, 2)),
    ])
    def test_rejects_shapes(self, bad):
        with pytest.raises(ShapeError):
            as_stack(bad)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_one_non_finite_entry(self, value):
        s = np.zeros((3, 2, 2))
        s[2, 1, 0] = value
        with pytest.raises(ShapeError, match="non-finite"):
            as_stack(s)

    def test_gram_stack_checks_each_gram(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(4, 5, 5))
        g = a @ a.transpose(0, 2, 1)
        assert as_gram_stack(g) is g
        g[2, 0, 1] += 1e-3
        with pytest.raises(ShapeError, match=r"grams\[2\] not symmetric"):
            as_gram_stack(g)
        with pytest.raises(ShapeError, match="square"):
            as_gram_stack(np.zeros((2, 3, 4)))


class TestMatrixValidation:
    def test_rejects_nan(self):
        with pytest.raises(ShapeError):
            as_matrix([[1.0, np.nan]])

    def test_rejects_inf(self):
        with pytest.raises(ShapeError):
            as_matrix([[np.inf, 0.0]])

    def test_rejects_wrong_ndim(self):
        with pytest.raises(ShapeError):
            as_matrix([1.0, 2.0])

    def test_rejects_empty(self):
        with pytest.raises(ShapeError):
            as_matrix(np.zeros((0, 3)))

    def test_row_major_float64(self):
        m = as_matrix(np.asfortranarray(np.arange(6.0).reshape(2, 3)))
        assert m.flags["C_CONTIGUOUS"]
        assert m.dtype == np.float64

    @pytest.mark.parametrize("check, bad", [
        (as_matrix, "x"),
        (as_matrix, [[1], [1, 2]]),
        (as_matrix, {}),
        (as_matrix, [[1j]]),
        (as_stack, {}),
        (as_stack, [[[1j]]]),
        (as_matrix, np.array([[1j]])),
        (as_matrix, np.array([[1.0 + 0j]])),
        (as_stack, np.ones((2, 2, 2), dtype=np.complex64)),
    ], ids=["matrix-str", "matrix-ragged", "matrix-dict", "matrix-complex", "stack-dict",
            "stack-complex", "matrix-complex-array", "matrix-real-valued-complex-array",
            "stack-complex-array"])
    def test_unconvertible_input_is_a_shape_error(self, check, bad):
        with pytest.raises(ShapeError, match="bad: not convertible to one float64 array"):
            check(bad, "bad")


class TestSvd:
    """`vanilla_svd_compress`, the plain truncated SVD that criterion 3
    measures against, and the sign rule of the whitened factors."""

    def test_identity(self):
        f = vanilla_svd_compress(np.eye(3), 3)
        np.testing.assert_allclose(split_sigma(f), [1.0, 1.0, 1.0], atol=1e-15)
        np.testing.assert_allclose(f.product(), np.eye(3), atol=1e-12)

    def test_diagonal(self):
        f = vanilla_svd_compress(np.diag([2.0, 1.0]), 2)
        np.testing.assert_allclose(split_sigma(f), [2.0, 1.0], atol=1e-15)

    def test_seeded_8x5_matches_jacobi_oracle(self):
        rng = np.random.default_rng(42)
        a = rng.normal(size=(8, 5))
        f = vanilla_svd_compress(a, 5)
        oracle = jacobi_svd_sigma(a)
        np.testing.assert_allclose(split_sigma(f), oracle, atol=1e-9)
        # values frozen from a standalone run of the oracle above
        np.testing.assert_allclose(
            oracle,
            [3.580677839386747, 2.7140611328933635, 1.940602189807862,
             1.5899572826204404, 0.4199711285012267],
            rtol=1e-12)
        resid = np.linalg.norm(a - f.product())
        assert resid <= 1e-10 * np.linalg.norm(a)

    def test_jacobi_oracle_agrees_on_wide_matrices(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(5, 9))
        np.testing.assert_allclose(split_sigma(vanilla_svd_compress(a, 5)),
                                   jacobi_svd_sigma(a.T), atol=1e-9)

    def test_reconstruction_property(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            m = int(rng.integers(1, 65))
            n = int(rng.integers(1, 65))
            a = rng.normal(size=(m, n)) * rng.choice([1e-3, 1.0, 1e3])
            f = vanilla_svd_compress(a, min(m, n))
            assert np.linalg.norm(a - f.product()) <= 1e-10 * np.linalg.norm(a) + 1e-300

    def test_orthonormal_columns(self):
        """The split is balanced: u and v^T are orthonormal columns scaled by
        the same sqrt(sigma), descending and non-negative."""
        rng = np.random.default_rng(1)
        a = rng.normal(size=(12, 6))
        f = vanilla_svd_compress(a, 6)
        root = np.sqrt(split_sigma(f))
        np.testing.assert_allclose(np.sum(f.v * f.v, axis=1), root ** 2, rtol=1e-12)
        np.testing.assert_allclose((f.u / root).T @ (f.u / root), np.eye(6), atol=1e-9)
        np.testing.assert_allclose((f.v.T / root).T @ (f.v.T / root), np.eye(6), atol=1e-9)
        assert np.all(np.diff(root) <= 0)

    def test_eckart_young_truncation_beats_random_candidates(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(6, 6))
        for k in range(1, 7):
            best = np.linalg.norm(a - vanilla_svd_compress(a, k).product())
            for _ in range(200):
                cand = rng.normal(size=(6, k)) @ rng.normal(size=(k, 6))
                # scale the candidate optimally toward a before comparing
                scale = np.sum(a * cand) / max(np.sum(cand * cand), 1e-300)
                assert best <= np.linalg.norm(a - scale * cand) + 1e-12

    def test_sign_convention(self):
        """Flipping the columns `first_nonzero_negative` marks leaves every
        column's first nonzero entry positive."""
        rng = np.random.default_rng(5)
        u = np.linalg.svd(rng.normal(size=(7, 4)), full_matrices=False)[0]
        u = np.where(first_nonzero_negative(u), -u, u)
        for j in range(u.shape[1]):
            col = u[:, j]
            nz = np.nonzero(col)[0]
            assert col[nz[0]] > 0

    def test_sign_rule_matches_per_column_loop(self):
        """The vectorized sign rule flips the columns of the per-column loop
        it replaced, also columns with leading zeros, on 2-D and stacked u."""
        rng = np.random.default_rng(11)
        # block-diagonal: some u columns start with exact zeros
        block = np.zeros((4, 4))
        block[1:, 1:] = rng.normal(size=(3, 3))
        block[0, 0] = rng.normal()
        cases = [rng.normal(size=(128, 64)), rng.normal(size=(64, 128)),
                 np.diag([0.0, 2.0, -3.0]), block, block.T]
        for a in cases:
            u = np.linalg.svd(a, full_matrices=False)[0]
            want = np.zeros(u.shape[1], dtype=bool)
            for j in range(u.shape[1]):
                nz = np.nonzero(u[:, j])[0]
                want[j] = bool(nz.size and u[nz[0], j] < 0)
            assert np.array_equal(first_nonzero_negative(u), want)
            flipped = ~want & np.any(u != 0, axis=0)
            assert np.array_equal(first_nonzero_negative(np.stack([u, -u])), [want, flipped])

    def test_bit_identical_repeat(self):
        rng = np.random.default_rng(9)
        a = rng.normal(size=(10, 10))
        f1, f2 = vanilla_svd_compress(a, 4), vanilla_svd_compress(a, 4)
        assert f1.u.tobytes() == f2.u.tobytes()
        assert f1.v.tobytes() == f2.v.tobytes()

    def test_truncate_bounds(self):
        with pytest.raises(ParameterError):
            vanilla_svd_compress(np.eye(3), 0)
        with pytest.raises(ParameterError):
            vanilla_svd_compress(np.eye(3), 4)


class TestCholeskyDamped:
    def test_identity(self):
        s, lam = cholesky_damped(np.eye(3))
        np.testing.assert_allclose(s, np.eye(3), atol=1e-7)
        assert 0 < lam <= 1e-7

    def test_hand_checkable_2x2(self):
        s, lam = cholesky_damped(np.array([[4.0, 2.0], [2.0, 5.0]]))
        np.testing.assert_allclose(s, [[2.0, 0.0], [1.0, 2.0]], atol=1e-7)
        g = np.array([[4.0, 2.0], [2.0, 5.0]])
        np.testing.assert_allclose(s @ s.T, g + lam * np.eye(2), atol=1e-12)

    def test_singular_psd_succeeds_with_damping(self):
        rng = np.random.default_rng(11)
        a = rng.normal(size=(4, 6))
        g = a.T @ a  # rank 4 of 6
        s, lam = cholesky_damped(g)
        assert lam > 0
        assert np.linalg.norm(s @ s.T - g - lam * np.eye(6)) <= 1e-9

    def test_strictly_lower_triangular(self):
        rng = np.random.default_rng(13)
        a = rng.normal(size=(5, 5))
        s, _ = cholesky_damped(a @ a.T + np.eye(5))
        assert np.array_equal(np.triu(s, k=1), np.zeros((5, 5)))

    def test_zero_gram_gets_floor_damping(self):
        s, lam = cholesky_damped(np.zeros((4, 4)))
        assert lam > 0
        np.testing.assert_allclose(s @ s.T, lam * np.eye(4), atol=1e-15)

    def test_negative_definite_fails_after_cap(self):
        with pytest.raises(NotPositiveDefiniteError):
            cholesky_damped(-np.eye(3))

    def test_rejects_asymmetric(self):
        with pytest.raises(ShapeError):
            cholesky_damped(np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(ShapeError):
            cholesky_damped(np.ones((2, 3)))

    @pytest.mark.parametrize("damping", [np.nan, np.inf, -1e-8])
    def test_rejects_non_finite_or_negative_damping(self, damping):
        """A NaN damping used to return an all-NaN factor, an infinite one
        an infinite factor."""
        with pytest.raises(ParameterError, match="damping"):
            cholesky_damped(np.eye(3), damping)

    def test_deterministic(self):
        rng = np.random.default_rng(17)
        a = rng.normal(size=(6, 6))
        g = a @ a.T
        s1, l1 = cholesky_damped(g)
        s2, l2 = cholesky_damped(g)
        assert np.array_equal(s1, s2) and l1 == l2


def blas_thread_counts():
    return [get() for get, _ in linalg._BLAS_CONTROLS]


class TestBlasThreads:
    def test_pins_inside_and_restores_after(self):
        with blas_threads(2):
            before = blas_thread_counts()
            with blas_threads(1):
                assert blas_thread_counts() == [1] * len(before)
            assert blas_thread_counts() == before

    def test_restores_after_exception(self):
        with blas_threads(2):
            before = blas_thread_counts()
            with pytest.raises(RuntimeError):
                with blas_threads(1):
                    raise RuntimeError("inside the pin")
            assert blas_thread_counts() == before

    def test_nested_pins_restore_the_outer_count(self):
        with blas_threads(1):
            with blas_threads(2):
                assert blas_thread_counts() == [2] * len(linalg._BLAS_CONTROLS)
            assert blas_thread_counts() == [1] * len(linalg._BLAS_CONTROLS)

    def test_decorated_function_pins_each_call(self):
        @blas_threads(1)
        def counts():
            return blas_thread_counts()

        with blas_threads(2):
            assert counts() == counts() == [1] * len(linalg._BLAS_CONTROLS)
            assert blas_thread_counts() == [2] * len(linalg._BLAS_CONTROLS)

    def test_without_a_bundled_openblas_does_nothing(self, monkeypatch):
        real = blas_thread_counts()
        monkeypatch.setattr(linalg, "_BLAS_CONTROLS", ())
        with blas_threads(1):
            pass
        monkeypatch.undo()
        assert blas_thread_counts() == real
