"""Dense linear algebra and reproducible random streams.

Everything downstream (network init, Gram analysis, noisy training) funnels
through this module so that determinism and numerical conventions live in one
place.  Matrices are plain float64 numpy arrays.
"""

from __future__ import annotations

import ctypes
import functools
import os
import pickle
import sys
import threading
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


def _mix64_array(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """:func:`_mix64` elementwise on uint64 arrays, which wrap modulo 2^64."""
    z = a + np.uint64(0x9E3779B97F4A7C15) * (b + np.uint64(1))
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


# The hash of numpy's SeedSequence (numpy/random/bit_generator.pyx), as run by
# SeedSequence(entropy=seed, spawn_key=(stream,)).generate_state(2, np.uint64).
# Its multiplier advances by a fixed factor at every hashmix call whatever the
# data, so the whole sequence is known up front: 24 calls while mixing the
# entropy words into the pool, 4 while reading the pool out.  The 32-bit words
# are masked values in uint64 arrays, which use the integer loops of numpy
# that _mix64_array already pages in; uint32 arrays paged in about 0.2 MB more
# of numpy's code in an mc-verify run, which showed in its peak RSS.
def _hash_multipliers(first: int, factor: int, calls: int) -> tuple[int, ...]:
    mults = [first]
    for _ in range(calls):
        mults.append(mults[-1] * factor & 0xFFFFFFFF)
    return tuple(mults)


_MIX_MULTS = _hash_multipliers(0x43B0D7E5, 0x931E8875, 24)
_OUT_MULTS = _hash_multipliers(0x8B51F9DD, 0x58F38DED, 4)
_M32 = 0xFFFFFFFF


def _hashmix(value, xor: int, mult: int):
    value = (value ^ xor) * mult & _M32
    return value ^ (value >> 16)


def _seed_sequence_words(seed: int, streams) -> list:
    """The four 32-bit state words SeedSequence generates for ``(seed, stream)``.

    ``seed`` is one Python int and ``streams`` a uint64 array of at least
    one dimension; the words have its shape.  The words are masked, so
    Python ints and wrapping uint64 arrays give the same values.  The seed
    is mixed into the pool once, on Python ints, and only the mixing of the
    stream runs in arrays.
    """
    mults = iter(zip(_MIX_MULTS, _MIX_MULTS[1:]))

    def hashmix(value):
        return _hashmix(value, *next(mults))

    def mix(x, y):
        z = (x * 0xCA01F9DD - y * 0x4973F715) & _M32
        return z ^ (z >> 16)

    # entropy: the seed's two 32-bit words padded with zeros to the pool size
    # of 4, then the stream's low word and, where it is nonzero, its high word
    pool = [hashmix(w) for w in (seed & _M32, seed >> 32, 0, 0)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    low, high = streams & _M32, streams >> 32
    pool = [mix(p, hashmix(low)) for p in pool]
    # all ones where high > 0, else zero: high + 2^32 - 1 reaches 2^32 exactly then
    has_high = ((high + _M32) >> 32) * _M32
    pool = [p ^ ((p ^ mix(p, hashmix(high))) & has_high) for p in pool]
    return [_hashmix(p, x, m) for p, x, m in zip(pool, _OUT_MULTS, _OUT_MULTS[1:])]


def _philox_keys(seed: int, streams) -> np.ndarray:
    """Philox keys of the streams ``(seed, stream)`` of one seed.

    Element for element the key ``RngStream(seed, stream).generator()`` starts
    from, ``SeedSequence(entropy=seed, spawn_key=(stream,)).generate_state(2,
    np.uint64)``.  ``streams`` is an int or an array; the keys have its shape
    plus (2,), dtype uint64.
    """
    streams = np.asarray(streams, dtype=np.uint64)
    # streams stay at least 1-d, so their arithmetic runs in arrays, which
    # wrap silently where numpy scalars would warn
    w = _seed_sequence_words(int(seed), np.atleast_1d(streams))
    keys = np.stack([w[0] | w[1] << 32, w[2] | w[3] << 32], axis=-1)
    return keys.reshape(streams.shape + (2,))


@dataclass(frozen=True)
class RngStream:
    """Value-semantics handle for a counter-based random stream.

    A stream is identified by ``(seed, stream)`` and starts from the Philox
    key that :meth:`keys` derives from that pair, at counter 0.  Draws depend
    only on the handle, never on call order or parallel scheduling: a fresh
    :meth:`generator` and :func:`_keyed_generator` restarted at the key give
    the same numbers.  Use :meth:`child` to carve out independent substreams,
    and :meth:`keys` for the keys of many substreams at once.
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
        return np.random.Generator(np.random.Philox(key=self.keys()))

    def child(self, index: int) -> "RngStream":
        """Derive the ``index``-th substream of this stream."""
        if index < 0:
            raise ValueError("substream index must be non-negative")
        return RngStream(self.seed, _mix64(self.stream, index))

    def keys(self, *path) -> np.ndarray:
        """Philox keys of descendants of this stream, derived in one call.

        ``path`` holds non-negative integer index arrays that broadcast
        against each other.  The entry at position ``i`` is the key of
        ``self.child(path[0][i]).child(path[1][i])...``; the result has the
        broadcast shape plus a trailing axis of 2 (uint64).  Without ``path``
        it is this stream's own key, shape ``(2,)``.
        """
        if not path:
            return _philox_keys(self.seed, self.stream)
        index = np.broadcast_arrays(*(np.asarray(i) for i in path))
        shape = index[0].shape
        streams = np.full(shape, self.stream, dtype=np.uint64).ravel()
        for i in index:
            if i.dtype.kind not in "iu" or (i.size and i.min() < 0):
                raise ValueError("substream indices must be non-negative integers")
            streams = _mix64_array(streams, i.ravel().astype(np.uint64))
        return _philox_keys(self.seed, streams).reshape(shape + (2,))


_per_thread = threading.local()


def _keyed_generator(key: np.ndarray) -> np.random.Generator:
    """This thread's Philox generator, restarted at the start of the stream with ``key``.

    The bit generator is reset to the state a fresh :meth:`RngStream.generator`
    starts in (the stream's key, counter 0, empty buffer), so its draws are the
    stream's draws without building a ``Philox``.  Each thread gets its own
    generator on first use.  Draw from the result at once: the next call on
    the same thread restarts it.
    """
    try:
        bits, generator, own_key, start = _per_thread.keyed
    except AttributeError:
        bits = np.random.Philox(key=0)
        generator = np.random.Generator(bits)
        own_key = np.zeros(2, dtype=np.uint64)
        start = {"bit_generator": "Philox",
                 "state": {"counter": np.zeros(4, dtype=np.uint64), "key": own_key},
                 "buffer": np.zeros(4, dtype=np.uint64), "buffer_pos": 4,
                 "has_uint32": 0, "uinteger": 0}
        _per_thread.keyed = bits, generator, own_key, start
    own_key[:] = key
    bits.state = start
    return generator


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
def _one_blas_thread():
    """Run the block with numpy's bundled OpenBLAS limited to one thread.

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
    set_(1)
    try:
        yield
    finally:
        set_(previous)


def _fork_map(fn: Callable, items: Sequence) -> list:
    """``[fn(item) for item in items]``, with the items split over forked processes.

    Item i goes to worker i mod W, for W = min(len(items), usable CPUs);
    this process works as worker 0, and each other worker is a fork of it
    that sends its results back pickled through a pipe of its own.  So
    ``fn`` and the items are not pickled, only the results, and the result
    list is in item order: the same values as the loop.  The loop runs
    in-process when W is 1, when the platform has no ``fork`` or CPU
    affinity, or when this is not the main thread or another thread is
    alive (a fork copies only the calling thread).

    An exception raised by ``fn`` in a worker is raised here with its type
    and message, the worker's traceback in a note.  A worker that exits
    without sending a result raises a RuntimeError naming its exit status.
    Every worker is killed and reaped before this returns or raises, and
    each is killed when this process dies.
    """
    workers = 1
    if (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and threading.current_thread() is threading.main_thread()
            and threading.active_count() == 1):
        workers = min(len(items), len(os.sched_getaffinity(0)))
    if workers <= 1:
        return [fn(item) for item in items]
    # imported here: an in-process map does not pay for the import
    import signal

    # a worker must not write out what this process has buffered
    _flush_std_streams()
    results = [None] * len(items)
    children = {}          # pid: (worker, read end of its pipe)
    parent = os.getpid()
    try:
        for w in range(1, workers):
            read, write = os.pipe()
            pid = os.fork()
            if pid == 0:
                os.close(read)
                _fork_worker(fn, items[w::workers], write, parent)
            os.close(write)
            children[pid] = (w, open(read, "rb"))
        results[0::workers] = [fn(item) for item in items[0::workers]]
        for pid, (w, pipe) in list(children.items()):
            payload = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del children[pid]
            pipe.close()
            if code != 0:
                raise RuntimeError(f"worker process {pid} exited with status {code} "
                                   "without a result")
            ok, value = pickle.loads(payload)
            if not ok:
                raise value
            results[w::workers] = value
    finally:
        for pid, (_, pipe) in children.items():
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return results


def _flush_std_streams() -> None:
    # either is None when its file descriptor was closed at start-up
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:
            stream.flush()


def _fork_worker(fn: Callable, share: Sequence, write: int, parent: int) -> None:
    """Body of a forked worker of :func:`_fork_map`: never returns.

    Sends ``(True, results)`` or ``(False, exception)`` pickled through
    ``write`` and leaves with ``os._exit``, which runs no atexit handler and
    flushes no buffer the worker inherited.
    """
    import signal

    code = 1
    try:
        # die with the parent; if it died before the request, leave now
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
        libc.prctl.restype = ctypes.c_int
        libc.prctl(1, signal.SIGKILL, 0, 0, 0)      # 1: PR_SET_PDEATHSIG
        if os.getppid() != parent:
            return
        try:
            payload = pickle.dumps((True, [fn(item) for item in share]), pickle.HIGHEST_PROTOCOL)
        except Exception as exc:
            import traceback

            exc.add_note("in a worker process:\n" + "".join(traceback.format_exception(exc)))
            try:
                payload = pickle.dumps((False, exc), pickle.HIGHEST_PROTOCOL)
                pickle.loads(payload)
            except Exception:
                # an exception whose arguments do not rebuild it: keep its text
                payload = pickle.dumps((False, RuntimeError(f"{type(exc).__name__}: {exc}")))
        # what the worker itself wrote; the parent flushed its own before the fork
        _flush_std_streams()
        with os.fdopen(write, "wb") as pipe:
            pipe.write(payload)
        code = 0
    finally:
        os._exit(code)


def psd_spectrum(K: np.ndarray) -> tuple[np.ndarray, int, float]:
    """Eigenvalues, numerical rank and smallest positive eigenvalue of a PSD matrix.

    Symmetry is enforced by averaging ``K`` with its transpose before the
    decomposition.  An eigenvalue counts toward the rank when it exceeds
    1e-10 times the largest eigenvalue.

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
    above = eigvals[eigvals > 1e-10 * top]
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
