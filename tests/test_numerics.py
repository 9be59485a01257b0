"""Tests for random streams, spectral helpers, finite differences and the fork map."""

import atexit
import os
import signal
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from klpriv import cli, numerics
from klpriv.estimator import run_streams
from klpriv.numerics import (
    RankDeficiencyError,
    RngStream,
    _keyed_generator,
    finite_diff_gradient,
    psd_spectrum,
    solve_psd,
)


class TestRngStream:
    def test_same_handle_same_draws(self):
        s = RngStream(42, 7)
        a = s.generator().standard_normal(16)
        b = s.generator().standard_normal(16)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = RngStream(1).generator().standard_normal(8)
        b = RngStream(2).generator().standard_normal(8)
        assert not np.array_equal(a, b)

    def test_children_are_distinct_and_stable(self):
        base = RngStream(9)
        kids = [base.child(i) for i in range(5)]
        assert len({k.stream for k in kids}) == 5
        again = [base.child(i) for i in range(5)]
        assert kids == again

    def test_child_differs_from_parent(self):
        base = RngStream(3, 4)
        a = base.generator().standard_normal(8)
        b = base.child(0).generator().standard_normal(8)
        assert not np.array_equal(a, b)

    def test_draw_order_independence(self):
        # value semantics: consuming one stream never perturbs another
        s = RngStream(11)
        a_first = s.child(0).generator().standard_normal(4)
        _ = s.child(1).generator().standard_normal(1000)
        a_second = s.child(0).generator().standard_normal(4)
        assert np.array_equal(a_first, a_second)

    def test_invalid_ids_rejected(self):
        with pytest.raises(ValueError):
            RngStream(-1)
        with pytest.raises(ValueError):
            RngStream(0, -2)
        with pytest.raises(ValueError):
            RngStream(1).child(-1)


def _seed_sequence_key(seed: int, stream: int) -> np.ndarray:
    """The reference: the key numpy's own SeedSequence gives Philox."""
    return np.random.SeedSequence(entropy=seed, spawn_key=(stream,)).generate_state(2, np.uint64)


def _cli_streams(seed: int) -> list[int]:
    """Stream ids the command line derives from one seed."""
    base = RngStream(seed)
    handles = [base.child(c) for c in (cli._DATA_CHILD, cli._POOL_CHILD, cli._INIT_CHILD)]
    for run in range(3):
        init, noise = run_streams(seed, run)
        handles += [init, noise, *(init.child(l) for l in range(1, 6)),
                    *(noise.child(k) for k in range(40))]
    for si in range(4):
        for k in range(3):
            check = base.child(3 * si + k)
            handles += [check, *(check.child(s).child(l) for s in range(10) for l in range(1, 6))]
    return [h.stream for h in handles]


class TestPhiloxKeys:
    def test_bulk_keys_match_seed_sequence(self):
        gen = np.random.default_rng(2024)
        n = 24_000
        wide = gen.integers(0, 2**64, n, dtype=np.uint64)
        narrow = gen.integers(0, 2**32, n, dtype=np.uint64)
        seeds = [wide, narrow, wide[::-1], narrow[::-1]]
        streams = [gen.integers(0, 2**64, n, dtype=np.uint64),
                   gen.integers(0, 2**32, n, dtype=np.uint64),
                   gen.integers(0, 2**32, n, dtype=np.uint64) * (gen.random(n) < 0.5),
                   gen.integers(0, 2**64, n, dtype=np.uint64)]
        # edges of the one- and two-word encodings of seed and stream
        edges = [0, 1, 2**32 - 1, 2**32, 2**32 + 1, 2**63, 2**64 - 1]
        for seed in edges + [7, 2**40 + 3]:
            cli_streams = _cli_streams(seed)
            seeds.append(np.full(len(edges) + len(cli_streams), seed, dtype=np.uint64))
            streams.append(np.array(edges + cli_streams, dtype=np.uint64))
        seeds, streams = np.concatenate(seeds), np.concatenate(streams)
        assert seeds.size >= 100_000
        assert (seeds >= 2**32).any() and (streams == 0).any()
        assert ((streams > 0) & (streams < 2**32)).any() and (streams >= 2**32).any()
        expected = np.array([_seed_sequence_key(int(a), int(b)) for a, b in zip(seeds, streams)])
        # every pair, one seed at a time with all of its streams in one call
        pairs_of = {}
        for j, seed in enumerate(seeds.tolist()):
            pairs_of.setdefault(seed, []).append(j)
        got = np.zeros_like(expected)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for seed, pairs in pairs_of.items():
                got[pairs] = numerics._philox_keys(seed, streams[pairs])
        assert numerics._philox_keys(0, streams[:1]).dtype == np.uint64
        assert np.array_equal(got, expected)
        # one pair of Python ints goes through the same port, as one stream
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for j in [*range(0, 4 * n, 97), *range(4 * n, seeds.size)]:
                key = numerics._philox_keys(int(seeds[j]), int(streams[j]))
                assert key.shape == (2,) and key.dtype == np.uint64
                assert np.array_equal(key, expected[j])

    def test_one_seed_many_streams_match_seed_sequence(self):
        # a lone seed is mixed into the pool as a Python int, the streams as arrays
        edges = [0, 1, 2**32 - 1, 2**32, 2**32 + 1, 2**63, 2**64 - 1]
        for seed in edges + [7, 2**40 + 3]:
            streams = np.array(edges + _cli_streams(seed)[:200], dtype=np.uint64)
            expected = np.array([_seed_sequence_key(seed, int(b)) for b in streams])
            for one_seed in (seed, np.uint64(seed)):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    got = numerics._philox_keys(one_seed, streams)
                assert got.dtype == np.uint64
                assert np.array_equal(got, expected)
            assert np.array_equal(numerics._philox_keys(seed, streams[:1].reshape(())),
                                  expected[0])

    @settings(max_examples=600, deadline=None, derandomize=True, database=None)
    @given(seed=st.one_of(*(st.integers(0, 2**b - 1) for b in (8, 32, 64))),
           stream=st.one_of(*(st.integers(0, 2**b - 1) for b in (8, 32, 64))))
    def test_one_key_on_python_ints_matches_seed_sequence(self, seed, stream):
        # a stream's own key, from Python ints of every width
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            key = RngStream(seed, stream).keys()
        assert key.shape == (2,) and key.dtype == np.uint64
        assert key.tobytes() == _seed_sequence_key(seed, stream).tobytes()

    def test_broadcast_shapes(self):
        for seed in range(3):
            keys = numerics._philox_keys(seed, [[5, 2**40]])
            assert keys.shape == (1, 2, 2)
            assert np.array_equal(keys[0, 1], _seed_sequence_key(seed, 2**40))
            assert np.array_equal(keys[0, 0], _seed_sequence_key(seed, 5))
        assert numerics._philox_keys(9, np.zeros(0, dtype=np.uint64)).shape == (0, 2)
        assert np.array_equal(numerics._philox_keys(9, 4), _seed_sequence_key(9, 4))

    def test_vectorized_mix_matches_scalar(self):
        gen = np.random.default_rng(7)
        a = np.concatenate([gen.integers(0, 2**64, 5000, dtype=np.uint64),
                            np.array([0, 1, 2**32, 2**64 - 1] * 2, dtype=np.uint64)])
        b = np.concatenate([gen.integers(0, 2**64, 5000, dtype=np.uint64),
                            np.array([0, 2**64 - 1, 2**64 - 2, 3, 0, 1, 2**32, 2**64 - 1],
                                     dtype=np.uint64)])
        got = numerics._mix64_array(a, b)
        assert got.dtype == np.uint64
        assert [int(z) for z in got] == [numerics._mix64(int(x), int(y)) for x, y in zip(a, b)]

    def test_keys_of_descendants(self):
        base = RngStream(2**33 + 1, 17)
        keys = base.keys(np.arange(4)[:, None], np.arange(1, 4))
        assert keys.shape == (4, 3, 2)
        for s in range(4):
            for j, l in enumerate(range(1, 4)):
                child = base.child(s).child(l)
                assert np.array_equal(keys[s, j], child.keys())
                assert np.array_equal(keys[s, j], _seed_sequence_key(child.seed, child.stream))
        assert np.array_equal(base.keys(), _seed_sequence_key(base.seed, base.stream))
        assert base.keys(np.arange(0)).shape == (0, 2)
        with pytest.raises(ValueError):
            base.keys(np.array([0, -1]))
        with pytest.raises(ValueError):
            base.keys(np.array([0.5]))


def _state_equal(a: dict, b: dict) -> bool:
    if a.keys() != b.keys():
        return False
    return all(_state_equal(a[k], b[k]) if isinstance(a[k], dict) else np.array_equal(a[k], b[k])
               for k in a)


class TestKeyedGenerator:
    def test_philox_state_layout(self):
        # _keyed_generator writes this layout into Philox.state; a numpy release
        # that changes it must fail here, not shift draws silently
        key = RngStream(5, 9).keys()
        state = np.random.Philox(key=key).state
        assert state["bit_generator"] == "Philox"
        assert set(state) == {"bit_generator", "state", "buffer", "buffer_pos",
                              "has_uint32", "uinteger"}
        assert set(state["state"]) == {"counter", "key"}
        for name, value, size in (("counter", state["state"]["counter"], 4),
                                  ("key", state["state"]["key"], 2),
                                  ("buffer", state["buffer"], 4)):
            assert value.dtype == np.uint64 and value.shape == (size,), name
        assert not state["state"]["counter"].any() and not state["buffer"].any()
        assert np.array_equal(state["state"]["key"], key)
        assert (state["buffer_pos"], state["has_uint32"], state["uinteger"]) == (4, 0, 0)

    def test_restart_gives_the_fresh_state(self):
        used = _keyed_generator(RngStream(1).keys())
        used.standard_normal(7)
        used.integers(0, 2**32, size=3, dtype=np.uint32)
        moved = used.bit_generator.state
        assert moved["has_uint32"] == 1 and moved["buffer_pos"] < 4
        for stream in (RngStream(5, 9), RngStream(1)):
            restarted = _keyed_generator(stream.keys())
            # the thread's one generator, reset in place
            assert restarted is used
            assert _state_equal(restarted.bit_generator.state,
                                stream.generator().bit_generator.state)

    def test_draws_equal_fresh_generator(self):
        for stream in (RngStream(0), RngStream(2**64 - 1, 2**64 - 1), RngStream(3).child(8)):
            fresh = stream.generator()
            assert np.array_equal(_keyed_generator(stream.keys()).standard_normal(33),
                                  fresh.standard_normal(33))
            assert np.array_equal(_keyed_generator(stream.keys()).normal(0.0, 0.3, size=(4, 5)),
                                  stream.generator().normal(0.0, 0.3, size=(4, 5)))
            assert np.array_equal(_keyed_generator(stream.keys()).integers(0, 9, 11),
                                  stream.generator().integers(0, 9, 11))

    def test_threads_draw_their_own_streams(self):
        streams = [RngStream(11).child(i) for i in range(24)]
        keys = [s.keys() for s in streams]
        expected = [s.generator().standard_normal(3000) for s in streams]
        start = threading.Barrier(2, timeout=30)
        results = {}

        def draw_all(order):
            start.wait()
            results[order] = [(i, _keyed_generator(keys[i]).standard_normal(3000))
                              for _ in range(5) for i in order]

        orders = (tuple(range(24)), tuple(reversed(range(24))))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=draw_all, args=(o,)) for o in orders]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for order in orders:
            assert len(results[order]) == 5 * 24
            for i, draws in results[order]:
                assert np.array_equal(draws, expected[i])


class TestPsdSpectrum:
    def test_identity(self):
        vals, rank, lam = psd_spectrum(np.eye(4))
        assert np.allclose(vals, 1.0)
        assert rank == 4
        assert lam == pytest.approx(1.0)

    def test_known_3x3_spectrum(self):
        # K = [[2,1,0],[1,2,1],[0,1,2]] has eigenvalues 2 and 2 +- sqrt(2)
        K = np.array([[2.0, 1.0, 0.0], [1.0, 2.0, 1.0], [0.0, 1.0, 2.0]])
        vals, rank, lam = psd_spectrum(K)
        want = np.array([2.0 - np.sqrt(2.0), 2.0, 2.0 + np.sqrt(2.0)])
        assert np.max(np.abs(vals - want)) <= 1e-9
        assert rank == 3
        assert lam == pytest.approx(2.0 - np.sqrt(2.0), abs=1e-9)

    def test_rank_one_matrix(self):
        u = np.array([1.0, 2.0, 2.0])
        vals, rank, lam = psd_spectrum(np.outer(u, u))
        assert rank == 1
        assert lam == pytest.approx(9.0, rel=1e-12)
        assert vals[-1] == pytest.approx(9.0, rel=1e-12)

    def test_zero_matrix(self):
        vals, rank, lam = psd_spectrum(np.zeros((3, 3)))
        assert rank == 0
        assert lam == 0.0
        assert np.allclose(vals, 0.0)

    def test_asymmetric_input_symmetrized(self):
        K = np.array([[1.0, 2.0], [0.0, 1.0]])
        vals, _, _ = psd_spectrum(K)
        want, _, _ = psd_spectrum(0.5 * (K + K.T))
        assert np.array_equal(vals, want)

    def test_errors(self):
        with pytest.raises(ValueError):
            psd_spectrum(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            psd_spectrum(np.array([[np.nan, 0.0], [0.0, 1.0]]))


class TestSolvePsd:
    def test_identity_solve(self):
        b = np.array([3.0, -1.0, 2.0])
        assert np.allclose(solve_psd(np.eye(3), b), b)

    def test_diagonal_solve(self):
        K = np.diag([2.0, 4.0])
        b = np.array([2.0, 2.0])
        assert np.allclose(solve_psd(K, b), [1.0, 0.5])

    def test_random_psd_residual(self):
        rng = RngStream(21).generator()
        A = rng.standard_normal((4, 4))
        K = A @ A.T + 0.5 * np.eye(4)
        b = rng.standard_normal(4)
        alpha = solve_psd(K, b)
        assert np.linalg.norm(K @ alpha - b) <= 1e-8

    def test_singular_raises_with_rank(self):
        u = np.array([1.0, 1.0, 0.0])
        K = np.outer(u, u)
        with pytest.raises(RankDeficiencyError) as exc:
            solve_psd(K, np.array([1.0, 1.0, 0.0]))
        assert exc.value.rank == 1
        assert exc.value.size == 3

    def test_ridge_allows_singular(self):
        u = np.array([1.0, 1.0])
        K = np.outer(u, u)
        alpha = solve_psd(K, np.array([1.0, 1.0]), ridge=1e-6)
        assert np.all(np.isfinite(alpha))
        assert np.linalg.norm((K + 1e-6 * np.eye(2)) @ alpha - [1.0, 1.0]) <= 1e-8

    def test_rank_deficiency_is_value_error(self):
        assert issubclass(RankDeficiencyError, ValueError)

    def test_errors(self):
        with pytest.raises(ValueError, match="matrix must be square"):
            solve_psd(np.zeros((2, 3)), np.zeros(2))
        with pytest.raises(ValueError):
            solve_psd(np.eye(2), np.zeros(3))
        with pytest.raises(ValueError):
            solve_psd(np.eye(2), np.zeros(2), ridge=-1.0)


class TestFiniteDiff:
    def test_quadratic_gradient(self):
        f = lambda w: float(w[0] ** 2 + 3.0 * w[1])
        g = finite_diff_gradient(f, np.array([0.5, -2.0]))
        assert abs(g[0] - 1.0) <= 1e-7
        assert abs(g[1] - 3.0) <= 1e-7

    def test_linear_function_exact_scale(self):
        a = np.array([2.0, -1.0, 0.25])
        f = lambda w: float(a @ w)
        g = finite_diff_gradient(f, np.zeros(3), h=1e-3)
        assert np.max(np.abs(g - a)) <= 1e-9

    def test_errors(self):
        with pytest.raises(ValueError):
            finite_diff_gradient(lambda w: float(w[0]), np.zeros(1), h=0.0)
        with pytest.raises(ValueError):
            finite_diff_gradient(lambda w: float("nan"), np.zeros(1))



class _NeedsTwoArgs(Exception):
    """An exception that pickling cannot rebuild from its args."""

    def __init__(self, a, b):
        super().__init__(f"needs {a} and {b}")


class TestForkMap:
    """numerics._fork_map: the loop's results, with items spread over forked workers."""

    @pytest.mark.parametrize("count, items, workers", [(2, 7, 2), (3, 7, 3), (3, 2, 2)])
    def test_results_come_back_in_item_order(self, cpus, forks, count, items, workers):
        cpus(count)
        out = numerics._fork_map(lambda i: (i, np.arange(i) * 0.5, os.getpid()), range(items))
        assert [i for i, _, _ in out] == list(range(items))
        for i, values, _ in out:
            assert values.tobytes() == (np.arange(i) * 0.5).tobytes()
        # item i ran in worker i mod W; this process is worker 0
        pids = [pid for _, _, pid in out]
        assert len(forks) == workers - 1
        assert pids == [([os.getpid(), *forks])[i % workers] for i in range(items)]

    def test_one_cpu_runs_in_process(self, cpus, forks):
        cpus(1)
        assert numerics._fork_map(lambda i: (i, os.getpid()), range(3)) == [
            (i, os.getpid()) for i in range(3)]
        assert forks == []

    def test_one_item_runs_in_process(self, cpus, forks):
        cpus(2)
        assert numerics._fork_map(lambda i: os.getpid(), [0]) == [os.getpid()]
        assert forks == []

    def test_no_fork_on_a_platform_without_it(self, cpus, monkeypatch):
        cpus(2)
        monkeypatch.delattr(os, "fork")
        assert numerics._fork_map(lambda i: os.getpid(), range(2)) == [os.getpid()] * 2

    def test_no_fork_while_another_thread_is_alive(self, cpus, forks):
        cpus(2)
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:
            out = numerics._fork_map(lambda i: os.getpid(), range(2))
        finally:
            release.set()
            other.join(timeout=10)
        assert not other.is_alive()
        assert out == [os.getpid()] * 2 and forks == []

    def test_no_fork_off_the_main_thread(self, cpus, forks):
        cpus(2)
        out = []
        worker = threading.Thread(
            target=lambda: out.append(numerics._fork_map(lambda i: os.getpid(), range(2))))
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
        assert out == [[os.getpid()] * 2] and forks == []

    def test_worker_exception_keeps_type_and_message(self, cpus, forks):
        cpus(2)

        def fail_odd(i):
            if i % 2:
                raise ValueError(f"item {i} is odd")
            return i

        with pytest.raises(ValueError) as info:
            numerics._fork_map(fail_odd, range(4))
        assert type(info.value) is ValueError and str(info.value) == "item 1 is odd"
        assert len(forks) == 1
        # the worker's traceback rides along as a note
        assert "fail_odd" in "".join(info.value.__notes__)

    def test_exception_that_does_not_unpickle_keeps_its_text(self, cpus):
        cpus(2)

        def fail(i):
            if i:
                raise _NeedsTwoArgs(1, 2)

        with pytest.raises(RuntimeError) as info:
            numerics._fork_map(fail, range(2))
        assert str(info.value) == "_NeedsTwoArgs: needs 1 and 2"

    def test_exception_in_this_process_stops_the_workers(self, cpus, forks):
        cpus(2)

        def fail_here(i):
            if i == 0:
                raise KeyError("parent")
            return i

        with pytest.raises(KeyError, match="parent"):
            numerics._fork_map(fail_here, range(2))
        assert len(forks) == 1      # reaped: the autouse fixture checks that none is left

    def test_killed_worker_raises_and_does_not_hang(self, cpus, forks):
        cpus(2)

        def die(i):
            if i:
                os.kill(os.getpid(), signal.SIGKILL)
            return i

        def hang(signum, frame):
            raise TimeoutError("the map hung on a killed worker")

        previous = signal.signal(signal.SIGALRM, hang)
        signal.alarm(30)
        try:
            with pytest.raises(RuntimeError, match=r"exited with status -9 without a result"):
                numerics._fork_map(die, range(2))
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert len(forks) == 1

    def test_closed_stdout(self, cpus, forks, monkeypatch):
        # Python sets sys.stdout to None when file descriptor 1 was closed at start-up
        cpus(2)
        monkeypatch.setattr(sys, "stdout", None)
        assert numerics._fork_map(lambda i: i * i, range(3)) == [0, 1, 4]
        assert len(forks) == 1

    def test_worker_neither_repeats_buffered_output_nor_runs_atexit(self, cpus, forks,
                                                                     capfd, tmp_path):
        cpus(2)
        marker = tmp_path / "atexit"
        parent = os.getpid()

        def record_exit():
            if os.getpid() != parent:
                marker.write_text("a worker ran an atexit handler")

        atexit.register(record_exit)
        try:
            print("buffered before the fork", end="")
            numerics._fork_map(lambda i: print(f"item {i}") or i, range(2))
            sys.stdout.flush()
        finally:
            atexit.unregister(record_exit)
        out = capfd.readouterr().out
        assert out.count("buffered before the fork") == 1
        assert len(forks) == 1 and not marker.exists()
