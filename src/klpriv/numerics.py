"""Dense linear algebra and reproducible random streams.

Everything downstream (network init, Gram analysis, noisy training) funnels
through this module so that determinism and numerical conventions live in one
place.  Matrices are plain float64 numpy arrays.
"""

from __future__ import annotations

import ctypes
import functools
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

_MASK64 = (1 << 64) - 1


class RankDeficiencyError(ValueError):
    """Raised when a solve needs a full-rank PSD matrix but got less."""

    def __init__(self, rank: int, size: int):
        self.rank = rank
        self.size = size
        super().__init__(f"matrix is rank deficient: rank {rank} < size {size}")


def _mix64(a: int, b: int) -> int:
    # splitmix64-style finalizer; spreads (stream, index) pairs over 64 bits
    # so derived streams collide only with negligible probability.
    z = (a + 0x9E3779B97F4A7C15 * (b + 1)) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


@dataclass(frozen=True)
class RngStream:
    """Value-semantics handle for a counter-based random stream.

    A stream is identified by ``(seed, stream)``.  Every call that consumes
    randomness derives a fresh generator from the handle, so the same handle
    always yields the same draws regardless of call order or parallel
    scheduling.  Use :meth:`child` to carve out independent substreams.
    """

    seed: int
    stream: int = 0

    def __post_init__(self):
        if not (0 <= self.seed <= _MASK64):
            raise ValueError("seed must fit in 64 unsigned bits")
        if not (0 <= self.stream <= _MASK64):
            raise ValueError("stream id must fit in 64 unsigned bits")

    def generator(self) -> np.random.Generator:
        """Fresh Philox generator positioned at the start of this stream."""
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream,))
        return np.random.Generator(np.random.Philox(ss))

    def child(self, index: int) -> "RngStream":
        """Derive the ``index``-th substream of this stream."""
        if index < 0:
            raise ValueError("substream index must be non-negative")
        return RngStream(self.seed, _mix64(self.stream, index))


@functools.cache
def _openblas():
    """``(get, set)`` thread-count functions of numpy's bundled OpenBLAS, or None."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas64_*.so")):
        try:
            lib = ctypes.CDLL(str(path))
            get = lib.scipy_openblas_get_num_threads64_
            set_ = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


@contextmanager
def blas_threads(count: int):
    """Run the block with numpy's bundled OpenBLAS limited to ``count`` threads.

    The limit is process-wide, not per thread.  The previous thread count is
    restored on exit, also when the block raises.  Does nothing when numpy
    has no bundled OpenBLAS (for example a build linked against a system
    BLAS).
    """
    lib = _openblas()
    if lib is None:
        yield
        return
    get, set_ = lib
    previous = get()
    set_(count)
    try:
        yield
    finally:
        set_(previous)


def gaussian_matrix(rows: int, cols: int, variance: float, rng: RngStream) -> np.ndarray:
    """Sample a ``rows x cols`` matrix with iid N(0, variance) entries."""
    if rows <= 0 or cols <= 0:
        raise ValueError("empty matrix: rows and cols must be positive")
    if variance < 0:
        raise ValueError("variance must be non-negative")
    return rng.generator().normal(0.0, np.sqrt(variance), size=(rows, cols))


def psd_spectrum(K: np.ndarray, tol: float = 1e-10) -> tuple[np.ndarray, int, float]:
    """Eigenvalues, numerical rank and smallest positive eigenvalue of a PSD matrix.

    Symmetry is enforced by averaging ``K`` with its transpose before the
    decomposition.  An eigenvalue counts toward the rank when it exceeds
    ``tol * max_eigenvalue``.

    Returns:
        ``(eigenvalues ascending, rank, lambda_min_nonzero)`` where
        ``lambda_min_nonzero`` is 0.0 for the zero matrix.
    """
    K = np.asarray(K, dtype=float)
    if K.ndim != 2 or K.shape[0] != K.shape[1]:
        raise ValueError("matrix must be square")
    if not np.all(np.isfinite(K)):
        raise ValueError("matrix entries must be finite")
    sym = 0.5 * (K + K.T)
    eigvals = np.linalg.eigvalsh(sym)
    top = max(eigvals[-1], 0.0) if eigvals.size else 0.0
    threshold = tol * top
    above = eigvals[eigvals > threshold]
    rank = int(above.size)
    lam_min = float(above[0]) if rank > 0 else 0.0
    return eigvals, rank, lam_min


def solve_psd(K: np.ndarray, b: np.ndarray, ridge: float = 0.0) -> np.ndarray:
    """Solve ``(K + ridge * I) alpha = b`` for a symmetric PSD ``K``.

    With ``ridge = 0`` the matrix must be numerically full rank; otherwise a
    :class:`RankDeficiencyError` carrying the detected rank is raised.
    """
    K = np.asarray(K, dtype=float)
    b = np.asarray(b, dtype=float)
    if K.ndim != 2 or K.shape[0] != K.shape[1]:
        raise ValueError("matrix must be square")
    if b.shape[0] != K.shape[0]:
        raise ValueError("right-hand side length does not match matrix size")
    if ridge < 0:
        raise ValueError("ridge must be non-negative")
    A = 0.5 * (K + K.T)
    if ridge > 0:
        A = A + ridge * np.eye(A.shape[0])
        return np.linalg.solve(A, b)
    alpha, _, rank, _ = np.linalg.lstsq(A, b, rcond=None)
    if rank < A.shape[0]:
        raise RankDeficiencyError(int(rank), A.shape[0])
    return alpha


def finite_diff_gradient(f: Callable[[np.ndarray], float], point: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar function, one coordinate at a time."""
    if h <= 0:
        raise ValueError("step size must be positive")
    point = np.asarray(point, dtype=float)
    grad = np.empty_like(point)
    for i in range(point.size):
        step = np.zeros_like(point)
        step[i] = h
        hi = f(point + step)
        lo = f(point - step)
        if not (np.isfinite(hi) and np.isfinite(lo)):
            raise ValueError("function returned a non-finite value near the base point")
        grad[i] = (hi - lo) / (2.0 * h)
    return grad


def running_mean(vectors: Sequence[np.ndarray]) -> np.ndarray:
    """Arithmetic mean of a non-empty sequence of equally shaped vectors."""
    if len(vectors) == 0:
        raise ValueError("need at least one vector")
    return np.mean(np.stack(vectors), axis=0)
