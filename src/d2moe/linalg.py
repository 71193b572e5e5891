"""Deterministic dense linear-algebra primitives.

Everything here operates on plain numpy float64 arrays in C order ("matrices"
below). Results are deterministic for identical inputs; `first_nonzero_negative`
is the sign rule that makes `factorize.whitened_factors`' singular vectors
reproducible across runs.

OpenBLAS may split a product differently at different thread counts, which
changes its last bits, so `blas_threads` pins the OpenBLAS bundled with numpy
for the length of a block; numpy is the only BLAS the package calls. The
compression pipeline runs under `blas_threads(1)`: the result bytes then do
not depend on `OPENBLAS_NUM_THREADS`, and small matrices run faster on one
thread.
"""
from __future__ import annotations

import ctypes
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .errors import NotPositiveDefiniteError, ParameterError, ShapeError

# Damped-Cholesky schedule: lambda0 = DEFAULT_DAMPING * trace/dim, doubled on
# failure, at most MAX_DAMPING_DOUBLINGS attempts.
DEFAULT_DAMPING = 1e-8
MAX_DAMPING_DOUBLINGS = 10


def _openblas_thread_controls() -> tuple:
    """The (get, set) thread-count functions of the OpenBLAS bundled with
    numpy, as a one-entry tuple; empty for a system BLAS."""
    libdir = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("libscipy_openblas*.so")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for suffix in ("64_", ""):
            get = getattr(handle, f"scipy_openblas_get_num_threads{suffix}", None)
            put = getattr(handle, f"scipy_openblas_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return ((get, put),)
    return ()


_BLAS_CONTROLS = _openblas_thread_controls()


@contextmanager
def blas_threads(n: int):
    """Run the block (or, as a decorator, each call) with the bundled
    OpenBLAS on `n` threads, restoring the previous count on exit, also on
    an exception. Nests; does nothing when no bundled OpenBLAS was found."""
    controls = _BLAS_CONTROLS
    saved = [get() for get, _ in controls]
    try:
        for _, put in controls:
            put(n)
        yield
    finally:
        for (_, put), count in zip(controls, saved):
            put(count)


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate and return `a` as a finite float64 2-D C-order array."""
    m = np.ascontiguousarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise ShapeError(f"{name}: expected 2-D array, got ndim={m.ndim}")
    if m.shape[0] < 1 or m.shape[1] < 1:
        raise ShapeError(f"{name}: degenerate shape {m.shape}")
    if not np.isfinite(m).all():
        raise ShapeError(f"{name}: contains non-finite entries")
    return m


def first_nonzero_negative(u: np.ndarray) -> np.ndarray:
    """Columns of u (..., m, r) whose first nonzero entry is negative, as an
    (..., r) mask: the columns the sign convention flips. An all-zero
    column reads its first entry, 0, and is not flipped."""
    first = np.argmax(u != 0, axis=-2)
    return np.take_along_axis(u, first[..., None, :], axis=-2)[..., 0, :] < 0


def cholesky_damped(g, base_damping: float = DEFAULT_DAMPING) -> tuple[np.ndarray, float]:
    """Lower-triangular S with S @ S.T = G + lambda*I, returned as (S, lambda).

    lambda starts at base_damping * trace(G)/dim (floored at base_damping when
    the trace vanishes, e.g. the all-zero Gram of a never-routed expert) and
    doubles until the factorization succeeds, at most MAX_DAMPING_DOUBLINGS
    attempts.
    """
    a = as_matrix(g, "gram")
    n_rows, n_cols = a.shape
    if n_rows != n_cols:
        raise ShapeError(f"gram must be square, got {a.shape}")
    sym_gap = float(np.max(np.abs(a - a.T), initial=0.0))
    scale = float(np.max(np.abs(a), initial=0.0))
    if sym_gap > 1e-9 * max(scale, 1.0):
        raise ShapeError(f"gram not symmetric within tolerance (gap {sym_gap:.3e})")
    if base_damping < 0:
        raise ParameterError(f"base_damping must be >= 0, got {base_damping}")

    trace = float(np.trace(a))
    lam = base_damping * trace / n_rows
    if lam <= 0.0:
        lam = base_damping if base_damping > 0.0 else np.finfo(np.float64).tiny
    for _ in range(MAX_DAMPING_DOUBLINGS):
        try:
            s = np.linalg.cholesky(a + lam * np.eye(n_rows))
        except np.linalg.LinAlgError:
            lam *= 2.0
            continue
        return np.ascontiguousarray(s), lam
    raise NotPositiveDefiniteError(
        f"cholesky failed after {MAX_DAMPING_DOUBLINGS} damping doublings "
        f"(shape {a.shape}, final lambda {lam:.3e})"
    )

