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


def _as_array(a, ndim: int, name: str) -> np.ndarray:
    """`a` as a finite float64 C-order array of `ndim` non-empty dimensions
    (the array itself if it already is one); every failure, numpy's own
    conversion errors included, is a ShapeError. Complex input is refused
    before the conversion, which would drop the imaginary part."""
    try:
        if np.iscomplexobj(a):
            raise TypeError("complex values")
        m = np.ascontiguousarray(a, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ShapeError(f"{name}: not convertible to one float64 array ({exc})") from None
    if m.ndim != ndim or 0 in m.shape:
        raise ShapeError(f"{name}: expected a non-degenerate {ndim}-D array, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ShapeError(f"{name}: contains non-finite entries")
    return m


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate and return `a` as a finite float64 2-D C-order array."""
    return _as_array(a, 2, name)


def first_nonzero_negative(u: np.ndarray) -> np.ndarray:
    """Columns of u (..., m, r) whose first nonzero entry is negative, as an
    (..., r) mask: the columns the sign convention flips. An all-zero
    column reads its first entry, 0, and is not flipped."""
    first = np.argmax(u != 0, axis=-2)
    return np.take_along_axis(u, first[..., None, :], axis=-2)[..., 0, :] < 0


def as_stack(a, name: str = "stack") -> np.ndarray:
    """Validate and return `a` as a finite float64 (E, m, n) C-order stack,
    one matrix per expert of a layer and role, E, m, n >= 1. A C-order
    float64 array is checked in place and returned itself; a sequence of
    same-shape matrices is stacked into one new array."""
    return _as_array(a, 3, name)


def as_gram_stack(g, name: str = "grams") -> np.ndarray:
    """`as_stack` for Grams: each matrix must also be square and symmetric
    to within 1e-9 of its largest entry magnitude (or of 1, if larger). The
    check runs one matrix at a time, so its temporaries are one Gram's."""
    s = as_stack(g, name)
    if s.shape[1] != s.shape[2]:
        raise ShapeError(f"{name} must be square, got {s.shape[1:]}")
    gap = np.array([np.max(np.abs(m - m.T)) for m in s])
    bad = np.flatnonzero(gap > 1e-9 * np.maximum([np.max(np.abs(m)) for m in s], 1.0))
    if bad.size:
        raise ShapeError(f"{name}[{bad[0]}] not symmetric within tolerance "
                         f"(gap {gap[bad[0]]:.3e})")
    return s


def cholesky_damped(g, base_damping: float = DEFAULT_DAMPING) -> tuple[np.ndarray, float]:
    """Lower-triangular S with S @ S.T = G + lambda*I, returned as (S, lambda).

    lambda starts at base_damping * trace(G)/dim (floored at base_damping when
    the trace vanishes, e.g. the all-zero Gram of a never-routed expert) and
    doubles until the factorization succeeds, at most MAX_DAMPING_DOUBLINGS
    attempts. G is checked as `as_gram_stack` checks each Gram.
    """
    return _cholesky_schedule(as_gram_stack(as_matrix(g, "gram")[None], "gram")[0], base_damping)


def _cholesky_schedule(a: np.ndarray, base_damping: float) -> tuple[np.ndarray, float]:
    """`cholesky_damped`'s schedule on a checked Gram; the damping must be
    finite and >= 0."""
    if not 0.0 <= base_damping < np.inf:
        raise ParameterError(f"damping must be finite and >= 0, got {base_damping}")
    n = a.shape[0]
    lam = base_damping * float(np.trace(a)) / n
    if lam <= 0.0:
        lam = base_damping if base_damping > 0.0 else np.finfo(np.float64).tiny
    for _ in range(MAX_DAMPING_DOUBLINGS):
        try:
            s = np.linalg.cholesky(a + lam * np.eye(n))
        except np.linalg.LinAlgError:
            lam *= 2.0
            continue
        return np.ascontiguousarray(s), lam
    raise NotPositiveDefiniteError(
        f"cholesky failed after {MAX_DAMPING_DOUBLINGS} damping doublings "
        f"(shape {a.shape}, final lambda {lam:.3e})"
    )
