"""Tests for noisy-GD training, KL accumulation and Monte Carlo checks."""

import dataclasses
import itertools
import math
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from klpriv import estimator, numerics
from klpriv.accountant import KLConstant, gradient_norm_constant_B
from klpriv.data import Dataset, Neighbor, NeighborSet, enumerate_neighbors, synth_sphere
from klpriv.estimator import (
    DnnModel,
    LinearizedModel,
    TrainConfig,
    mc_grad_norm_at_init,
    mc_linearized_grad_diff,
    mc_output_sqnorm,
    neighbor_grad_diffs,
    noisy_gd_step,
    run_kl_estimation,
    run_streams,
)
from klpriv.linearized import (
    _grad_blocks,
    build_features,
    lin_forward,
    lin_per_example_grads,
)
from klpriv.network import (
    SCHEME_NAMES,
    LossKind,
    NetArch,
    ParamVector,
    forward_batch,
    init_betas,
    jacobian_batch,
    loss_backprop,
    per_example_grad_batch,
    sample_init,
)
from klpriv.numerics import RngStream, _keyed_generator


ARCH = NetArch.uniform(4, 6, 2, 1)


def _weights(seed=0):
    return sample_init(ARCH, init_betas("he", ARCH), RngStream(seed))


class TestTrainConfig:
    def test_validation(self):
        TrainConfig(eta=0.1, steps=0, sigma2=1.0)
        with pytest.raises(ValueError):
            TrainConfig(eta=0.0, steps=1, sigma2=1.0)
        with pytest.raises(ValueError):
            TrainConfig(eta=0.1, steps=-1, sigma2=1.0)
        with pytest.raises(ValueError):
            TrainConfig(eta=0.1, steps=1, sigma2=0.0)
        with pytest.raises(ValueError):
            TrainConfig(eta=0.1, steps=1, sigma2=1.0, runs=0)
        with pytest.raises(ValueError):
            TrainConfig(eta=0.1, steps=1, sigma2=1.0, record_every=0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["eta", "sigma2"])
    def test_non_finite_rejected(self, name, value):
        kwargs = {"eta": 0.1, "steps": 1, "sigma2": 1.0, name: value}
        with pytest.raises(ValueError, match="finite"):
            TrainConfig(**kwargs)


class TestNoisyGdStep:
    # the step updates its arguments in place: expectations come from copies
    # taken before the call
    def test_zero_noise_is_plain_gd(self):
        W, g = _weights(0), _weights(1)
        want = W.flat - 0.25 * g.flat
        out = noisy_gd_step(W, g, eta=0.25, sigma2=0.0, noise=np.ones(W.flat.size))
        assert out is W
        assert out.flat.tobytes() == want.tobytes()

    def test_zero_step_size_keeps_weights(self):
        W, g = _weights(0), _weights(1)
        before = W.flat.copy()
        out = noisy_gd_step(W, g, eta=0.0, sigma2=0.7, noise=np.ones(W.flat.size))
        assert out.flat.tobytes() == before.tobytes()

    def test_noise_variance_matches_2_eta_sigma2(self):
        arch = NetArch(d=1, hidden=(1,), o=1)
        eta, sigma2 = 0.3, 0.8
        reps = 100_000
        keys = RngStream(31).keys(np.arange(reps))
        draws = np.empty((reps, arch.num_params))
        for r in range(reps):
            noise = _keyed_generator(keys[r]).standard_normal(arch.num_params)
            draws[r] = noisy_gd_step(ParamVector.zeros(arch), ParamVector.zeros(arch),
                                     eta, sigma2, noise).flat
        want = 2.0 * eta * sigma2
        sample_var = draws.var(axis=0, ddof=1)
        se = want * math.sqrt(2.0 / (reps - 1))
        assert np.max(np.abs(sample_var - want)) <= 4.0 * se

    def test_deterministic_given_stream(self):
        # the noise of a training run is a function of its stream alone
        def iterates(stream):
            # the trainer yields one stack updated in place: copy each iterate
            def step(W, eta, rows):
                estimator._descend(W.flat, 0.5 * W.flat, 1, eta)
                return ONE_ROW

            return [W.flat.copy() for W in estimator._noisy_gd(
                _stack(_weights(0)), step, 0.1, 0.5, stream.keys(np.arange(3))[None])]

        a, b, other = iterates(RngStream(5)), iterates(RngStream(5)), iterates(RngStream(6))
        assert all(np.array_equal(x, y) for x, y in zip(a, b, strict=True))
        assert not any(np.array_equal(x, y) for x, y in zip(a, other, strict=True))

    def test_update_formula_exact_and_inputs_consumed(self):
        W, g = _weights(0), _weights(1)
        W_before, g_before = W.flat.copy(), g.flat.copy()
        eta, sigma2 = 0.1, 0.5
        z = RngStream(5).generator().standard_normal(W.flat.size)
        want = W_before - eta * g_before + math.sqrt(2.0 * eta * sigma2) * z
        noise = z.copy()
        out = noisy_gd_step(W, g, eta, sigma2, noise)
        assert out is W
        assert out.flat.tobytes() == want.tobytes()
        # the gradient and the noise are scaled in place
        assert g.flat.tobytes() == (eta * g_before).tobytes()
        assert noise.tobytes() == (math.sqrt(2.0 * eta * sigma2) * z).tobytes()

    def test_validation(self):
        W, g = _weights(0), _weights(1)
        before = W.flat.copy()
        noise = np.zeros(W.flat.size)
        other = sample_init(NetArch.uniform(3, 6, 2, 1),
                            init_betas("he", NetArch.uniform(3, 6, 2, 1)), RngStream(1))
        with pytest.raises(ValueError, match="architecture"):
            noisy_gd_step(W, other, 0.1, 0.5, noise)
        with pytest.raises(ValueError, match="step size"):
            noisy_gd_step(W, g, -0.1, 0.5, noise)
        with pytest.raises(ValueError, match="noise variance"):
            noisy_gd_step(W, g, 0.1, -0.5, noise)
        # NaN passes a comparison with zero: as sigma2 it would skip the noise
        with pytest.raises(ValueError, match="step size"):
            noisy_gd_step(W, g, math.nan, 0.5, noise)
        with pytest.raises(ValueError, match="noise variance"):
            noisy_gd_step(W, g, 0.1, math.nan, noise)
        with pytest.raises(ValueError, match="one entry per parameter"):
            noisy_gd_step(W, g, 0.1, 0.5, np.zeros(W.flat.size + 1))
        with pytest.raises(ValueError, match="shape of the weights"):
            noisy_gd_step(_stack(W, W), g, 0.1, 0.5, np.zeros((2, W.flat.size)))
        with pytest.raises(ValueError, match="shape of the weights"):
            noisy_gd_step(W, _stack(g, g), 0.1, 0.5, noise)
        with pytest.raises(ValueError, match="one entry per parameter"):
            noisy_gd_step(_stack(W, W), _stack(g, g), 0.1, 0.5, noise)
        assert W.flat.tobytes() == before.tobytes()

    def test_aliased_arguments_rejected(self):
        W, g = _weights(0), _weights(1)
        W_before, g_before = W.flat.copy(), g.flat.copy()
        noise = np.ones(W.flat.size)
        stack = _stack(W, W)
        aliased = [
            (W, W, noise),                                  # the gradient is the iterate
            (W, ParamVector(ARCH, W.flat[::-1]), noise),    # or a view of it
            (W, g, W.flat),                                 # the noise is the iterate
            (W, g, g.flat),                                 # the noise is the gradient
            (stack, ParamVector(ARCH, stack.flat[::-1]), np.ones(stack.flat.shape)),
        ]
        for args in aliased:
            with pytest.raises(ValueError, match="share memory"):
                noisy_gd_step(args[0], args[1], 0.1, 0.5, args[2])
        assert W.flat.tobytes() == W_before.tobytes()
        assert g.flat.tobytes() == g_before.tobytes()
        assert not (noise - 1).any()

    def test_stack_equals_loop_of_single_vectors(self):
        Ws, gs = [_weights(s) for s in range(3)], [_weights(s) for s in range(3, 6)]
        z = RngStream(5).generator().standard_normal((3, ARCH.num_params))
        for sigma2 in (0.0, 0.5):
            noise = z.copy()
            out = noisy_gd_step(_stack(*Ws), _stack(*gs), 0.1, sigma2, noise)
            assert out.flat.shape == (3, ARCH.num_params)
            for r in range(3):
                row_noise = z[r].copy()
                want = noisy_gd_step(Ws[r].copy(), gs[r].copy(), 0.1, sigma2, row_noise)
                assert out.flat[r].tobytes() == want.flat.tobytes()
                assert noise[r].tobytes() == row_noise.tobytes()


def _stack(*Ws):
    return ParamVector(Ws[0].arch, np.stack([W.flat for W in Ws]))


ONE_ROW = np.ones(1, dtype=bool)


def _linear_grad(W):
    """A gradient that depends on the iterate, so a wrong chain shows."""
    return 0.3 * W.flat - 0.1


def _linear_step(W, eta):
    """The gradient half of a step with _linear_grad, taken in place as the
    step statistics take theirs."""
    estimator._descend(W.flat, _linear_grad(W), 1, eta)


def _hand_written_chain(W, eta, sigma2, stream, steps):
    """Iterates of noisy GD with _linear_grad on one vector, step k drawing from
    ``stream.child(k)``."""
    out = []
    for k in range(steps):
        noise = _keyed_generator(stream.child(k).keys()).standard_normal(W.flat.size)
        W = noisy_gd_step(W, ParamVector(W.arch, _linear_grad(W)), eta, sigma2, noise)
        out.append(W.flat.tobytes())
    return out


# the default noise chunk, a whole row here, and one that cuts a row into pieces
_PIECE_LIMITS = (estimator.STACK_MAX_PARAMS, 7)


class TestNoisyGdTrainer:
    def test_yields_completed_iterates_until_step_stops(self):
        seen, etas, rows_seen = [], [], []

        def step(W, eta, rows):
            seen.append(W.flat.copy())
            etas.append(eta)
            rows_seen.append(rows.tolist())
            _linear_step(W, eta)
            return np.array([len(seen) < 3])

        W0 = _stack(_weights(0))
        before = W0.flat.copy()
        # the trainer trains the stack it is handed, in place: copy each iterate
        out = [(W, W.flat.copy()) for W in estimator._noisy_gd(
            W0, step, 0.05, 0.01, RngStream(2).keys(np.arange(5))[None])]
        assert len(out) == 2
        assert rows_seen == [[0]] * 3
        assert out[0][0] is out[1][0] is W0
        assert etas == [0.05] * 3
        # step k saw the iterate step k-1 yielded; the stopping step yields nothing
        assert seen[0].tobytes() == before.tobytes()
        assert [flat.tobytes() for _, flat in out] == [x.tobytes() for x in seen[1:]]
        # the stopping step's gradient half is the last write to the stack handed in
        last = ParamVector(W0.arch, seen[2])
        _linear_step(last, 0.05)
        assert W0.flat.tobytes() == last.flat.tobytes()

    def test_iterates_equal_hand_written_chain(self, monkeypatch):
        fake = _FakeBlas()
        monkeypatch.setattr(numerics, "_openblas", lambda: (fake.get, fake.set))
        before = set(threading.enumerate())
        eta, sigma2, steps = 0.05, 0.2, 6
        # one noise piece per row, then pieces of 7 with P = 30 = 4 * 7 + 2
        for limit, runs in itertools.product(_PIECE_LIMITS, (1, 3)):
            monkeypatch.setattr(estimator, "STACK_MAX_PARAMS", limit)
            started, rows_seen = [], []

            def step(W, eta, rows):
                started.append(len(set(threading.enumerate()) - before))
                rows_seen.append(rows.tolist())
                _linear_step(W, eta)
                return np.ones(len(W.flat), dtype=bool)

            streams = [RngStream(4).child(r) for r in range(runs)]
            keys = np.stack([stream.keys(np.arange(steps)) for stream in streams])
            W0 = _stack(*(_weights(r) for r in range(runs)))
            got = [W.flat.copy() for W in estimator._noisy_gd(W0, step, eta, sigma2, keys)]
            assert len(got) == steps
            assert rows_seen == [list(range(runs))] * steps
            for r, stream in enumerate(streams):
                want = _hand_written_chain(_weights(r), eta, sigma2, stream, steps)
                assert [flat[r].tobytes() for flat in got] == want
            # training starts no thread
            assert started == [0] * steps
            assert set(threading.enumerate()) == before
        assert fake.set_calls == [1, 2] * 4     # pinned to one BLAS thread while training

    def test_rows_leave_the_stack(self, monkeypatch):
        # rows 1 and 3 stop at steps 2 and 4 (from 0), row 0 and 2 train on
        stops = {1: 2, 3: 4}
        eta, sigma2, steps = 0.05, 0.2, 6
        streams = [RngStream(7).child(r) for r in range(4)]
        keys = np.stack([stream.keys(np.arange(steps)) for stream in streams])
        for limit in _PIECE_LIMITS:
            monkeypatch.setattr(estimator, "STACK_MAX_PARAMS", limit)
            calls, stacks, etas, rows_seen = [], [], [], []

            def step(W, eta, rows):
                k = len(calls)
                calls.append(len(W.flat))
                stacks.append(W)
                etas.append(eta)
                rows_seen.append(rows.tolist())
                _linear_step(W, eta)
                return np.array([stops.get(r, 99) > k for r in rows.tolist()])

            out = [W.flat.copy() for W in estimator._noisy_gd(
                _stack(*(_weights(r) for r in range(4))), step, eta, sigma2, keys)]
            assert calls == [4, 4, 4, 3, 3, 2]
            assert etas == [eta] * steps
            # the step is told the rows its stack holds, as indices into the start
            assert rows_seen == [[0, 1, 2, 3]] * 3 + [[0, 2, 3]] * 2 + [[0, 2]]
            # one iterate per stack: the same object until a row leaves, then the
            # survivors' compacted rows
            assert stacks[0] is stacks[1] is stacks[2] and stacks[3] is stacks[4]
            assert len({id(W) for W in stacks}) == 3
            assert len(out) == steps
            # the rows of each yielded iterate: those that took the step
            took = [[0, 1, 2, 3]] * 2 + [[0, 2, 3]] * 2 + [[0, 2]] * 2
            for r, stream in enumerate(streams):
                want = _hand_written_chain(_weights(r), eta, sigma2, stream, stops.get(r, steps))
                got = [flat[rows.index(r)].tobytes() for rows, flat in zip(took, out) if r in rows]
                assert got == want

    def test_zero_noise_draws_nothing(self, monkeypatch):
        # sigma2 = 0 turns the noise half off: no generator, the plain-GD chain
        drawn = []
        monkeypatch.setattr(estimator, "_keyed_generator", lambda key: drawn.append(key))

        def step(W, eta, rows):
            _linear_step(W, eta)
            return np.ones(len(W.flat), dtype=bool)

        stream, steps = RngStream(3), 4
        got = [W.flat[0].tobytes() for W in estimator._noisy_gd(
            _stack(_weights(0)), step, 0.05, 0.0, stream.keys(np.arange(steps))[None])]
        assert drawn == []
        assert got == _hand_written_chain(_weights(0), 0.05, 0.0, stream, steps)

    def test_zero_steps_start_nothing(self, monkeypatch):
        fake = _FakeBlas()
        monkeypatch.setattr(numerics, "_openblas", lambda: (fake.get, fake.set))
        before = set(threading.enumerate())

        def step(W, eta, rows):
            raise AssertionError("no step at steps=0")

        keys = RngStream(2).keys(np.arange(0))[None]
        assert list(estimator._noisy_gd(_stack(_weights(0)), step, 0.05, 0.01, keys)) == []
        assert fake.set_calls == []
        assert set(threading.enumerate()) == before


class TestNeighborGradDiffs:
    def test_three_dimensional_gradients_rejected(self):
        with pytest.raises(ValueError, match="matrix"):
            neighbor_grad_diffs(np.zeros((2, 3, 4)))

    def test_remove_one_hand_example(self):
        G = np.array([[1.0, 0.0], [0.0, 1.0]])
        diffs = neighbor_grad_diffs(G, notion=Neighbor.REMOVE_ONE)
        assert np.allclose(diffs, [0.5, 0.5])

    def test_add_one_hand_example(self):
        G = np.array([[1.0, 0.0]])
        diffs = neighbor_grad_diffs(G, pool_grads=np.array([[0.0, 0.0]]),
                                    notion=Neighbor.ADD_ONE)
        assert np.allclose(diffs, [0.25])

    def test_replace_with_same_gradient_is_zero(self):
        G = np.array([[1.0, 2.0], [3.0, -1.0]])
        diffs = neighbor_grad_diffs(G, pool_grads=G[:1], notion=Neighbor.REPLACE_ONE)
        # pairs (0,0),(1,0): replacing record 0 by itself gives exactly 0
        assert diffs[0] == 0.0
        assert diffs[1] == pytest.approx(np.sum((G[1] - G[0]) ** 2) / 4.0)

    def test_replace_hand_example(self):
        G = np.array([[1.0, 0.0], [0.0, 1.0]])
        P = np.array([[2.0, 0.0]])
        diffs = neighbor_grad_diffs(G, pool_grads=P, notion=Neighbor.REPLACE_ONE)
        assert np.allclose(diffs, [0.25, 1.25])

    def test_replace_grid_is_row_major(self):
        G = np.array([[1.0, 0.0], [0.0, 1.0]])
        P = np.array([[2.0, 0.0], [0.0, 3.0]])
        diffs = neighbor_grad_diffs(G, pool_grads=P, notion=Neighbor.REPLACE_ONE)
        # pair (i, j) at position 2 i + j: (0,0), (0,1), (1,0), (1,1)
        assert diffs.tolist() == [0.25, 2.5, 1.25, 1.0]

    @pytest.mark.parametrize("notion", [Neighbor.REMOVE_ONE, Neighbor.ADD_ONE,
                                        Neighbor.REPLACE_ONE])
    def test_matches_dense_recomputation(self, notion):
        gen = RngStream(9).generator()
        n, p = 5, 7
        G = gen.standard_normal((n, p))
        P = gen.standard_normal((3, p))
        S = G.sum(axis=0)
        if notion is Neighbor.REMOVE_ONE:
            want = [np.sum((S / n - (S - G[i]) / (n - 1)) ** 2) for i in range(n)]
            got = neighbor_grad_diffs(G, notion=notion)
        elif notion is Neighbor.ADD_ONE:
            want = [np.sum((S / n - (S + q) / (n + 1)) ** 2) for q in P]
            got = neighbor_grad_diffs(G, pool_grads=P, notion=notion)
        else:
            want = [np.sum(((G[i] - q) / n) ** 2) for i in range(n) for q in P]
            got = neighbor_grad_diffs(G, pool_grads=P, notion=notion)
        assert np.allclose(got, want, rtol=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            neighbor_grad_diffs(np.ones((1, 3)), notion=Neighbor.REMOVE_ONE)
        with pytest.raises(ValueError):
            neighbor_grad_diffs(np.ones((2, 3)), notion=Neighbor.ADD_ONE)


def _setup_estimation(n=6, d=4, notion=Neighbor.REMOVE_ONE, seed=0):
    data = synth_sphere(n, d, RngStream(100))
    pool = synth_sphere(4, d, RngStream(101))
    neighbors = enumerate_neighbors(data, notion,
                                    pool=None if notion is Neighbor.REMOVE_ONE else pool)
    model = DnnModel(arch=NetArch.uniform(d, 6, 2, 1), scheme="lecun")
    return data, neighbors, model


class TestRunKlEstimation:
    def test_zero_steps_all_zero(self):
        data, neighbors, model = _setup_estimation()
        cfg = TrainConfig(eta=0.1, steps=0, sigma2=0.01, runs=2, seed=3)
        res = run_kl_estimation(model, data, neighbors, cfg)
        assert res.recorded_steps.size == 0
        for t in res.traces:
            assert not t.diverged
            assert np.all(t.cumulative_per_neighbor == 0.0)

    @pytest.mark.parametrize("o", [1, 3])
    @pytest.mark.parametrize("notion", list(Neighbor))
    def test_single_step_manual_accumulation(self, notion, o):
        # the factored statistics of a stack of runs against the explicit reference
        data, neighbors, model = _setup_outputs(notion, o)
        cfg = TrainConfig(eta=0.05, steps=1, sigma2=0.02, runs=3, seed=9)
        assert estimator._stack_size(model, cfg.runs) == cfg.runs
        res = run_kl_estimation(model, data, neighbors, cfg)
        loss = LossKind.LOGISTIC_SINGLE if o == 1 else LossKind.CROSS_ENTROPY_MULTI
        betas = init_betas("lecun", model.arch)
        for r, trace in enumerate(res.traces):
            W0 = sample_init(model.arch, betas, run_streams(cfg.seed, r)[0])
            G = per_example_grad_batch(W0, data.X, data.Y, loss)
            Gp = None
            if neighbors.pool is not None:
                Gp = per_example_grad_batch(W0, neighbors.pool.X, neighbors.pool.Y, loss)
            diffs = neighbor_grad_diffs(G, Gp, notion)
            want = cfg.eta * diffs / (2.0 * cfg.sigma2)
            assert np.max(np.abs(trace.cumulative_per_neighbor - want)) <= 1e-15 * want.max()
            assert trace.cumulative_worst[-1] == pytest.approx(want.max(), rel=1e-15)

    @pytest.mark.parametrize("o", [1, 3])
    @pytest.mark.parametrize("notion", list(Neighbor))
    def test_single_step_linearized_manual(self, notion, o):
        # every run's first step is at the expansion point, against the explicit reference
        data, neighbors, _ = _setup_outputs(notion, o)
        arch = NetArch.uniform(4, 8, 2, o)
        W0 = sample_init(arch, init_betas("ntk", arch), RngStream(55))
        cfg = TrainConfig(eta=0.1, steps=1, sigma2=0.05, runs=2, seed=4)
        res = run_kl_estimation(LinearizedModel(W0), data, neighbors, cfg)
        loss = LossKind.LOGISTIC_SINGLE if o == 1 else LossKind.CROSS_ENTROPY_MULTI
        G = lin_per_example_grads(build_features(W0, data.X), W0, data.Y, loss)
        Gp = None
        if neighbors.pool is not None:
            Gp = lin_per_example_grads(build_features(W0, neighbors.pool.X), W0,
                                       neighbors.pool.Y, loss)
        diffs = neighbor_grad_diffs(G, Gp, notion)
        want = cfg.eta * diffs / (2.0 * cfg.sigma2)
        for trace in res.traces:
            assert np.max(np.abs(trace.cumulative_per_neighbor - want)) <= 1e-15 * want.max()
            assert trace.cumulative_worst[-1] == pytest.approx(want.max(), rel=1e-15)

    def test_cumulative_worst_non_decreasing(self):
        data, neighbors, model = _setup_estimation()
        cfg = TrainConfig(eta=0.05, steps=20, sigma2=0.01, runs=2, seed=1)
        res = run_kl_estimation(model, data, neighbors, cfg)
        for t in res.traces:
            assert np.all(np.diff(t.cumulative_worst) >= 0.0)
            assert np.all(t.per_step_sq_diffs >= 0.0)

    def test_bitwise_reproducible(self):
        data, neighbors, model = _setup_estimation()
        cfg = TrainConfig(eta=0.05, steps=5, sigma2=0.01, runs=3, seed=7)
        a = run_kl_estimation(model, data, neighbors, cfg)
        b = run_kl_estimation(model, data, neighbors, cfg)
        for ta, tb in zip(a.traces, b.traces):
            assert np.array_equal(ta.per_step_sq_diffs, tb.per_step_sq_diffs)
            assert np.array_equal(ta.cumulative_worst, tb.cumulative_worst)
        assert np.array_equal(a.worst_mean, b.worst_mean)

    def test_exact_convention_is_half_of_paper(self):
        data, neighbors, model = _setup_estimation()
        kw = dict(eta=0.05, steps=4, sigma2=0.01, runs=2, seed=2)
        paper = run_kl_estimation(model, data, neighbors, TrainConfig(**kw))
        exact = run_kl_estimation(model, data, neighbors,
                                  TrainConfig(**kw, kl_constant=KLConstant.EXACT))
        assert np.allclose(exact.worst_mean, paper.worst_mean / 2.0, rtol=1e-15)

    def test_record_every_schedule(self):
        data, neighbors, model = _setup_estimation()
        cfg = TrainConfig(eta=0.05, steps=7, sigma2=0.01, runs=1, seed=0,
                          record_every=3)
        res = run_kl_estimation(model, data, neighbors, cfg)
        assert res.recorded_steps.tolist() == [3, 6, 7]

    def test_record_schedule_is_the_sweep_range_form(self):
        # the schedule sweep's analytic rows used before sharing this one
        for steps in range(12):
            for every in range(1, 14):
                epochs = list(range(0, steps + 1, every))
                if epochs[-1] != steps:
                    epochs.append(steps)
                assert [0, *estimator._recorded_steps(steps, every).tolist()] == epochs

    def test_divergence_flagged(self, monkeypatch):
        data, neighbors, model = _setup_estimation()
        monkeypatch.setattr(estimator, "DIVERGENCE_THRESHOLD", 1e-300)
        cfg = TrainConfig(eta=0.05, steps=4, sigma2=0.01, runs=2, seed=0)
        res = run_kl_estimation(model, data, neighbors, cfg)
        assert res.diverged_any
        for t in res.traces:
            assert t.diverged
            assert t.left_by == "gradient norm above the threshold"
            assert t.completed == 0        # left at step 1
            assert np.all(np.isinf(t.cumulative_worst))
            assert np.all(np.isinf(t.cumulative_per_neighbor))

    # eta=0.5, sigma2=20: the steps each run completes under these thresholds;
    # at 15 one stack holds runs that leave and a run that completes
    @pytest.mark.parametrize("kind, threshold, steps, completed", [
        ("dnn", 10.0, 8, [1, 4, 5]), ("dnn", 15.0, 8, [2, 4, 8]), ("dnn", 1e-300, 8, [0, 0, 0]),
        ("linearized", 1.4, 8, [2, 8, 8]), ("dnn", 1e12, 40, [40, 40, 40]),
        ("linearized", 1e12, 40, [40, 40, 40])])
    def test_worst_is_the_cumsum_maximum_bit_for_bit(self, monkeypatch, kind, threshold, steps,
                                                    completed):
        data, neighbors, model = _setup_estimation()
        if kind == "linearized":
            model = _linearized_model(data)
        monkeypatch.setattr(estimator, "DIVERGENCE_THRESHOLD", threshold)
        cfg = TrainConfig(eta=0.5, steps=steps, sigma2=20.0, runs=3, seed=1, record_every=3)
        res = run_kl_estimation(model, data, neighbors, cfg)
        assert [t.completed for t in res.traces] == completed
        assert res.diverged_any is (min(completed) < steps)
        scale = cfg.eta / (cfg.kl_constant.denominator_factor * cfg.sigma2)
        for t, done in zip(res.traces, completed):
            # a cumulative sum over steps is the reference the running sum must match
            cum = np.cumsum(scale * t.per_step_sq_diffs, axis=0)
            want = [cum[k - 1].max() if k <= done else math.inf for k in res.recorded_steps]
            assert np.array_equal(t.cumulative_worst, want)
            assert np.array_equal(t.cumulative_per_neighbor,
                                  np.full(neighbors.count, math.inf) if t.diverged else cum[-1])

    # the constant scales each step's charge, not the trajectory, so exact is paper halved
    @pytest.mark.parametrize("kind, threshold", [("dnn", 15.0), ("linearized", 1.4)])
    def test_exact_constant_halves_the_trace_bit_for_bit(self, monkeypatch, kind, threshold):
        data, neighbors, model = _setup_estimation()
        if kind == "linearized":
            model = _linearized_model(data)
        monkeypatch.setattr(estimator, "DIVERGENCE_THRESHOLD", threshold)
        paper, exact = (run_kl_estimation(model, data, neighbors, TrainConfig(
            eta=0.5, steps=8, sigma2=20.0, runs=3, seed=1, record_every=3,
            kl_constant=constant))
            for constant in (KLConstant.PAPER, KLConstant.EXACT))
        completed = [t.completed for t in paper.traces]
        assert min(completed) < 8 and max(completed) > 0    # a run left, a run trained
        assert [t.completed for t in exact.traces] == completed
        assert [t.left_by for t in exact.traces] == [t.left_by for t in paper.traces]
        for te, tp in zip(exact.traces, paper.traces):
            assert np.array_equal(te.per_step_sq_diffs, tp.per_step_sq_diffs)
            assert np.array_equal(te.cumulative_worst, tp.cumulative_worst / 2.0)
            assert np.array_equal(te.cumulative_per_neighbor, tp.cumulative_per_neighbor / 2.0)
        # a stack with a run that left has an inf mean and a nan spread
        assert np.array_equal(exact.worst_mean, paper.worst_mean / 2.0, equal_nan=True)
        assert np.array_equal(exact.worst_std, paper.worst_std / 2.0, equal_nan=True)

    def test_diverged_any_follows_the_traces(self, monkeypatch):
        data, neighbors, model = _setup_estimation()
        monkeypatch.setattr(estimator, "DIVERGENCE_THRESHOLD", 15.0)
        cfg = TrainConfig(eta=0.5, steps=8, sigma2=20.0, runs=3, seed=1, record_every=3)
        res = run_kl_estimation(model, data, neighbors, cfg)
        assert [t.diverged for t in res.traces] == [True, True, False]
        assert res.diverged_any
        with pytest.raises(AttributeError):
            res.diverged_any = False
        res.traces = res.traces[2:]
        assert not res.diverged_any

    def test_add_and_replace_notions_run(self):
        for notion in (Neighbor.ADD_ONE, Neighbor.REPLACE_ONE):
            data, neighbors, model = _setup_estimation(notion=notion)
            cfg = TrainConfig(eta=0.05, steps=3, sigma2=0.01, runs=1, seed=1)
            res = run_kl_estimation(model, data, neighbors, cfg)
            assert res.traces[0].completed == 3
            assert res.traces[0].cumulative_per_neighbor.shape == (neighbors.count,)
            assert np.all(np.isfinite(res.worst_mean))

    def test_single_run_std_is_zero(self):
        data, neighbors, model = _setup_estimation()
        cfg = TrainConfig(eta=0.05, steps=2, sigma2=0.01, runs=1, seed=1)
        res = run_kl_estimation(model, data, neighbors, cfg)
        assert np.all(res.worst_std == 0.0)

    def test_validation(self):
        data, neighbors, model = _setup_estimation()
        bad_data = synth_sphere(6, 5, RngStream(0))
        cfg = TrainConfig(eta=0.1, steps=1, sigma2=0.01, runs=1)
        with pytest.raises(ValueError):
            run_kl_estimation(model, bad_data, neighbors, cfg)
        with pytest.raises(TypeError):
            run_kl_estimation(object(), data, neighbors, cfg)
        # one-hot labels of width 3 on a network with 2 outputs
        three, three_neighbors, _ = _setup_outputs(Neighbor.REMOVE_ONE, 3)
        two = DnnModel(arch=NetArch.uniform(three.d, 6, 2, 2), scheme="lecun")
        with pytest.raises(ValueError, match="label width does not match the architecture"):
            run_kl_estimation(two, three, three_neighbors, cfg)

    @pytest.mark.parametrize("notion", list(Neighbor))
    def test_neighbor_set_must_fit_the_data(self, notion):
        # the set checks its own structure; an estimate checks that it was
        # built for these records, with pool records of their shape
        data, _, model = _setup_estimation(n=8)
        six = synth_sphere(6, data.d, RngStream(102))
        pool = None if notion is Neighbor.REMOVE_ONE else synth_sphere(4, data.d,
                                                                       RngStream(101))
        cfg = TrainConfig(eta=0.1, steps=1, sigma2=0.01, runs=1)
        with pytest.raises(ValueError, match="built for 6 records, not 8"):
            run_kl_estimation(model, data, enumerate_neighbors(six, notion, pool=pool, cap=5),
                              cfg)
        if pool is not None:
            wide = synth_sphere(4, data.d + 1, RngStream(103))
            with pytest.raises(ValueError, match="pool records must match"):
                run_kl_estimation(model, data, NeighborSet(notion, data.n, wide), cfg)
        run_kl_estimation(model, data, enumerate_neighbors(data, notion, pool=pool, cap=5),
                          cfg)

    # eta=0.5, sigma2=20 and these thresholds: some runs leave, others complete
    @settings(max_examples=12, deadline=None, derandomize=True, database=None)
    @given(kind=st.sampled_from(["dnn", "linearized"]), o=st.sampled_from([1, 3]),
           cap=st.integers(1, 23), seed=st.integers(0, 10_000))
    @example(kind="dnn", o=1, cap=1, seed=0)
    @example(kind="linearized", o=3, cap=23, seed=1)
    def test_capped_set_keeps_columns_of_the_full_grid(self, kind, o, cap, seed):
        data, full, model = _setup_outputs(Neighbor.REPLACE_ONE, o)
        threshold = 15.0
        if kind == "linearized":
            arch = NetArch.uniform(data.d, 8, 2, o)
            model = LinearizedModel(sample_init(arch, init_betas("ntk", arch), RngStream(55)))
            threshold = 1.4
        capped = enumerate_neighbors(data, Neighbor.REPLACE_ONE, pool=full.pool, cap=cap,
                                     seed=seed)
        assert full.count == 24 and capped.capped and capped.count == cap
        cfg = TrainConfig(eta=0.5, steps=8, sigma2=20.0, runs=3, seed=1, record_every=3)
        # a context, not the fixture: hypothesis runs every example in one test call
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(estimator, "DIVERGENCE_THRESHOLD", threshold)
            a, b = [run_kl_estimation(model, data, ns, cfg) for ns in (full, capped)]
        kept = list(capped.kept)
        scale = cfg.eta / (cfg.kl_constant.denominator_factor * cfg.sigma2)
        for ta, tb in zip(a.traces, b.traces, strict=True):
            assert tb.left_by == ta.left_by
            assert _same_bytes(tb.per_step_sq_diffs, ta.per_step_sq_diffs[:, kept])
            assert _same_bytes(tb.cumulative_per_neighbor, ta.cumulative_per_neighbor[kept])
            cum = np.cumsum(scale * ta.per_step_sq_diffs[:, kept], axis=0)
            want = [cum[k - 1].max() if k <= ta.completed else math.inf
                    for k in a.recorded_steps]
            assert _same_bytes(tb.cumulative_worst, np.array(want))

    def test_linearized_expansion_point_stack_rejected(self):
        data = synth_sphere(8, 4, RngStream(2))
        neighbors = enumerate_neighbors(data, Neighbor.REMOVE_ONE)
        cfg = TrainConfig(eta=0.05, steps=3, sigma2=0.01, runs=1)
        W0 = _linearized_model(data).W0
        stacked = ParamVector(W0.arch, np.stack([W0.flat, W0.flat]))
        with pytest.raises(ValueError, match="expansion point must be one parameter vector"):
            run_kl_estimation(LinearizedModel(stacked), data, neighbors, cfg)
        with pytest.raises(ValueError, match="stack"):
            build_features(stacked, data.X)


# d 8, width 16, depth 3, He initialization; 30 steps of 3 runs at eta 0.05, sigma2 0.01
_RELABEL_ARCH = NetArch.uniform(8, 16, 3, 1)
_RELABEL_CFG = TrainConfig(eta=0.05, steps=30, sigma2=0.01, runs=3, seed=5)
# a relabelling reorders sums, so each relation holds to rounding, not bit for bit:
# within this many epsilon, relative to the largest cumulative KL of the run
_RELABEL_EPS = 64


def _relabel_estimate(kind, data, notion, pool=None):
    if kind == "dnn":
        model = DnnModel(_RELABEL_ARCH, "he")
    else:
        model = LinearizedModel(sample_init(_RELABEL_ARCH, init_betas("he", _RELABEL_ARCH),
                                            RngStream(55)))
    res = run_kl_estimation(model, data, enumerate_neighbors(data, notion, pool=pool),
                            _RELABEL_CFG)
    assert not res.diverged_any
    return [t.cumulative_per_neighbor for t in res.traces]


def _assert_within_eps(got, want):
    for g, w in zip(got, want, strict=True):
        assert np.max(np.abs(g - w)) <= _RELABEL_EPS * np.finfo(float).eps * np.max(w)


class TestNeighborRelabelling:
    """Metamorphic relations: relabelling records or candidates relabels the columns."""

    data = synth_sphere(12, 8, RngStream(200))
    pool = synth_sphere(6, 8, RngStream(201))

    @pytest.mark.parametrize("kind", ["dnn", "linearized"])
    @settings(max_examples=3, deadline=None, derandomize=True, database=None)
    @given(perm=st.permutations(range(6)))
    def test_permuting_the_pool_permutes_the_add_one_columns(self, kind, perm):
        base = _relabel_estimate(kind, self.data, Neighbor.ADD_ONE, self.pool)
        moved = Dataset(X=self.pool.X[perm], Y=self.pool.Y[perm])
        got = _relabel_estimate(kind, self.data, Neighbor.ADD_ONE, moved)
        _assert_within_eps(got, [c[perm] for c in base])

    @pytest.mark.parametrize("kind", ["dnn", "linearized"])
    @settings(max_examples=3, deadline=None, derandomize=True, database=None)
    @given(perm=st.permutations(range(12)))
    def test_permuting_the_data_permutes_the_remove_one_columns(self, kind, perm):
        base = _relabel_estimate(kind, self.data, Neighbor.REMOVE_ONE)
        moved = Dataset(X=self.data.X[perm], Y=self.data.Y[perm])
        got = _relabel_estimate(kind, moved, Neighbor.REMOVE_ONE)
        _assert_within_eps(got, [c[perm] for c in base])

    @pytest.mark.parametrize("kind", ["dnn", "linearized"])
    @settings(max_examples=3, deadline=None, derandomize=True, database=None)
    @given(pair=st.lists(st.integers(0, 5), min_size=2, max_size=2, unique=True))
    def test_two_copies_of_a_candidate_have_equal_add_one_columns(self, kind, pair):
        i, j = pair
        rows = np.arange(6)
        rows[j] = i
        twice = Dataset(X=self.pool.X[rows], Y=self.pool.Y[rows])
        got = _relabel_estimate(kind, self.data, Neighbor.ADD_ONE, twice)
        _assert_within_eps([c[j] for c in got], [c[i] for c in got])


class TestMeanStdOverRuns:
    def test_huge_finite_values_have_a_finite_std(self):
        # the square inside np.std overflows above ~1e154
        worst = np.array([[1e303, 3e303], [2e303, 1e303]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mean, std = estimator._mean_std_over_runs(worst)
        assert mean == pytest.approx([1.5e303, 2e303], rel=1e-15)
        assert std == pytest.approx([math.sqrt(0.5) * 1e303, math.sqrt(2.0) * 1e303], rel=1e-12)

    def test_overflowing_column_sum_has_a_finite_mean(self):
        # the column sum inside np.mean overflows above ~1.8e308
        worst = np.array([[1e308, 1.0, math.inf], [1.5e308, 2.0, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mean, std = estimator._mean_std_over_runs(worst)
        assert mean[0] == pytest.approx(1.25e308, rel=1e-15)
        assert std[0] == pytest.approx(math.sqrt(0.125) * 1e308, rel=1e-12)
        assert mean[1] == np.mean([1.0, 2.0]) and std[1] == np.std([1.0, 2.0], ddof=1)
        assert mean[2] == math.inf and np.isnan(std[2])

    def test_other_columns_unchanged(self):
        worst = np.array([[1e303, 1.0, math.inf], [2e303, 4.0, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, std = estimator._mean_std_over_runs(worst)
        assert std[0] == pytest.approx(math.sqrt(0.5) * 1e303, rel=1e-12)
        assert std[1] == np.std([1.0, 4.0], ddof=1)
        assert np.isnan(std[2])


def _linearized_model(data):
    arch = NetArch.uniform(data.d, 8, 2, 1)
    return LinearizedModel(sample_init(arch, init_betas("ntk", arch), RngStream(55)))


def _same_bytes(a, b):
    """Equal shape, dtype and raw bytes, so that signs of zeros and NaN bits count too."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _assert_same_bits(a, b):
    assert a.diverged_any == b.diverged_any
    assert _same_bytes(a.worst_mean, b.worst_mean)
    assert _same_bytes(a.worst_std, b.worst_std)
    for ta, tb in zip(a.traces, b.traces, strict=True):
        assert ta.diverged is tb.diverged
        assert ta.left_by == tb.left_by
        assert _same_bytes(ta.per_step_sq_diffs, tb.per_step_sq_diffs)
        assert _same_bytes(ta.cumulative_per_neighbor, tb.cumulative_per_neighbor)
        assert _same_bytes(ta.cumulative_worst, tb.cumulative_worst)


class _FakeBlas:
    """Stands in for numpy's OpenBLAS thread-count functions."""

    def __init__(self, threads=2):
        self.threads = threads
        self.set_calls = []

    def get(self):
        return self.threads

    def set(self, count):
        self.set_calls.append(count)
        self.threads = count


class TestTrainingBlas:
    def test_training_pins_blas(self, monkeypatch):
        # training pins BLAS; --steps 0 never looks it up
        fake = _FakeBlas()
        lookups = []

        def openblas():
            lookups.append(1)
            return fake.get, fake.set

        monkeypatch.setattr(numerics, "_openblas", openblas)
        data, neighbors, model = _setup_estimation()
        cfg = TrainConfig(eta=0.05, steps=2, sigma2=0.01, runs=1)
        run_kl_estimation(model, data, neighbors, cfg)
        assert fake.set_calls == [1, 2]
        assert len(lookups) == 1
        run_kl_estimation(model, data, neighbors, TrainConfig(eta=0.05, steps=0, sigma2=0.01))
        assert fake.set_calls == [1, 2]
        assert len(lookups) == 1

    def test_failing_statistics_restore_blas(self, monkeypatch):
        fake = _FakeBlas()
        monkeypatch.setattr(numerics, "_openblas", lambda: (fake.get, fake.set))
        before = set(threading.enumerate())
        started = []

        def failing_stats(self, W, eta):
            started.append(len(set(threading.enumerate()) - before))
            raise RuntimeError("statistics failed")

        monkeypatch.setattr(estimator._DnnStepStats, "__call__", failing_stats)
        data, neighbors, model = _setup_estimation()
        cfg = TrainConfig(eta=0.05, steps=3, sigma2=0.01, runs=1)
        with pytest.raises(RuntimeError, match="statistics failed"):
            run_kl_estimation(model, data, neighbors, cfg)
        assert started == [0]
        assert set(threading.enumerate()) == before
        assert fake.threads == 2
        assert fake.set_calls == [1, 2]


def _setup_outputs(notion, o, n=6):
    """_setup_estimation with o outputs: one-hot labels for o > 1."""
    data, neighbors, model = _setup_estimation(n=n, notion=notion)
    if o == 1:
        return data, neighbors, model
    gen = RngStream(102).generator()

    def one_hot(ds):
        return dataclasses.replace(ds, Y=np.eye(o)[gen.integers(0, o, ds.n)])

    data = one_hot(data)
    pool = None if neighbors.pool is None else one_hot(neighbors.pool)
    return (data, enumerate_neighbors(data, notion, pool=pool),
            DnnModel(arch=NetArch.uniform(data.d, 6, 2, o), scheme="lecun"))


def _one_run_per_stack(monkeypatch, model):
    # stacks hold STACK_MAX_PARAMS // P runs: a limit of P + 1 gives one
    monkeypatch.setattr(estimator, "STACK_MAX_PARAMS", model.arch.num_params + 1)


class TestStackedRuns:
    """The runs of a network estimate train as one stack; every trace, flag and
    aggregate equals that of training one run per stack, in raw bytes."""

    @pytest.mark.parametrize("runs", [1, 2, 5])
    @pytest.mark.parametrize("o", [1, 3])
    @pytest.mark.parametrize("notion", list(Neighbor))
    def test_equals_one_run_per_stack(self, monkeypatch, notion, o, runs):
        data, neighbors, model = _setup_outputs(notion, o)
        cfg = TrainConfig(eta=0.05, steps=6, sigma2=0.01, runs=runs, seed=3, record_every=2)
        assert estimator._stack_size(model, runs) == runs
        stacked = run_kl_estimation(model, data, neighbors, cfg)
        _one_run_per_stack(monkeypatch, model)
        assert estimator._stack_size(model, runs) == 1
        single = run_kl_estimation(model, data, neighbors, cfg)
        assert not single.diverged_any
        _assert_same_bits(stacked, single)

    # the gradient-norm threshold, and with an infinite threshold an overflowing S^2
    @pytest.mark.parametrize("eta, sigma2, depth, steps, threshold, completed", [
        (0.5, 20.0, 2, 8, 10.0, [2, 4, 5, 5, 1]),
        (1e4, 1.0, 4, 40, math.inf, [40, 40, 40, 10, 40])])
    @pytest.mark.parametrize("notion", list(Neighbor))
    def test_runs_leave_the_stack_at_different_steps(self, monkeypatch, notion, eta, sigma2,
                                                      depth, steps, threshold, completed):
        data, neighbors, _ = _setup_estimation(notion=notion)
        model = DnnModel(arch=NetArch.uniform(4, 6, depth, 1), scheme="he")
        monkeypatch.setattr(estimator, "DIVERGENCE_THRESHOLD", threshold)
        cfg = TrainConfig(eta=eta, steps=steps, sigma2=sigma2, runs=5, seed=1)
        with np.errstate(over="ignore", invalid="ignore"):
            stacked = run_kl_estimation(model, data, neighbors, cfg)
            _one_run_per_stack(monkeypatch, model)
            single = run_kl_estimation(model, data, neighbors, cfg)
        assert [t.completed for t in single.traces] == completed
        assert [t.diverged for t in single.traces] == [c < steps for c in completed]
        # each run that left did so at step completed + 1, by the rule the case is for
        rule = ("gradient norm above the threshold" if threshold < math.inf
                else "non-finite S^2")
        assert [t.left_by for t in single.traces] == [rule if c < steps else None
                                                      for c in completed]
        _assert_same_bits(stacked, single)

    def test_non_finite_outputs_leave_at_that_step(self, monkeypatch):
        data, neighbors, model = _setup_estimation(notion=Neighbor.REPLACE_ONE)
        # a pool record far out: outputs overflow for the run with a huge last
        # layer only, and its squared norm stays finite
        pool = dataclasses.replace(neighbors.pool, X=neighbors.pool.X * np.array(
            [[1.0], [1e100], [1.0], [1.0]]))
        neighbors = enumerate_neighbors(data, Neighbor.REPLACE_ONE, pool=pool)
        betas = init_betas("lecun", model.arch)
        Ws = [sample_init(model.arch, betas, RngStream(s)) for s in range(4)]
        Ws[1].layer(model.arch.L)[:] *= 1e250      # data outputs finite, pool outputs inf
        Ws[3].layer(model.arch.L)[:] = np.inf      # data outputs non-finite
        monkeypatch.setattr(estimator, "_init_stack",
                            lambda model, seed, runs: _stack(*[Ws[r] for r in runs]))
        # no threshold: run 1 can leave by its pool outputs only
        monkeypatch.setattr(estimator, "DIVERGENCE_THRESHOLD", math.inf)
        cfg = TrainConfig(eta=0.05, steps=3, sigma2=0.01, runs=4, seed=2)
        # no errstate here: the statistics of a leaving run must not warn
        assert estimator._stack_size(model, cfg.runs) == cfg.runs
        stacked = run_kl_estimation(model, data, neighbors, cfg)
        _one_run_per_stack(monkeypatch, model)
        single = run_kl_estimation(model, data, neighbors, cfg)
        assert [t.completed for t in single.traces] == [3, 0, 3, 0]
        assert [t.diverged for t in single.traces] == [False, True, False, True]
        assert [t.left_by for t in single.traces] == [None, "non-finite outputs",
                                                      None, "non-finite outputs"]
        for t in single.traces:
            assert t.diverged or np.isfinite(t.per_step_sq_diffs).all()
        _assert_same_bits(stacked, single)

    @pytest.mark.parametrize("linearized", [False, True])
    def test_non_finite_differences_leave_at_that_step(self, monkeypatch, linearized):
        data, neighbors, model = _setup_estimation(notion=Neighbor.REPLACE_ONE)
        # the pool record's squared norm overflows, its outputs do not
        pool = dataclasses.replace(neighbors.pool, X=neighbors.pool.X * np.array(
            [[1.0], [1e160], [1.0], [1.0]]))
        neighbors = enumerate_neighbors(data, Neighbor.REPLACE_ONE, pool=pool)
        if linearized:
            betas = init_betas("lecun", model.arch)
            model = LinearizedModel(sample_init(model.arch, betas, RngStream(5)))
        monkeypatch.setattr(estimator, "DIVERGENCE_THRESHOLD", math.inf)
        cfg = TrainConfig(eta=0.05, steps=3, sigma2=0.01, runs=3, seed=2)
        res = run_kl_estimation(model, data, neighbors, cfg)
        assert [t.completed for t in res.traces] == [0, 0, 0]
        assert all(t.diverged for t in res.traces)
        assert [t.left_by for t in res.traces] == ["non-finite differences"] * 3
        assert not np.isnan(res.worst_mean).any()

    def test_noise_keys_are_the_run_streams(self, monkeypatch, cpus):
        # the spy sees the stacks of this process only: keep them all here
        cpus(1)
        data, neighbors, model = _setup_estimation()
        trainer, seen = estimator._noisy_gd, []

        def capture(W, step, eta, sigma2, step_keys):
            seen.append((W.flat.copy(), step_keys))
            return trainer(W, step, eta, sigma2, step_keys)

        monkeypatch.setattr(estimator, "_noisy_gd", capture)
        monkeypatch.setattr(estimator, "STACK_MAX_PARAMS", 2 * model.arch.num_params)
        cfg = TrainConfig(eta=0.05, steps=4, sigma2=0.01, runs=5, seed=11)
        run_kl_estimation(model, data, neighbors, cfg)
        assert [len(W) for W, _ in seen] == [2, 2, 1]
        inits = np.concatenate([W for W, _ in seen])
        keys = np.concatenate([k for _, k in seen])
        betas = init_betas("lecun", model.arch)
        for r in range(cfg.runs):
            init_stream, noise_stream = run_streams(cfg.seed, r)
            assert _same_bytes(inits[r], sample_init(model.arch, betas, init_stream).flat)
            assert _same_bytes(keys[r], noise_stream.keys(np.arange(cfg.steps)))

    def test_stack_from_a_later_run_draws_each_runs_init(self):
        data, neighbors, model = _setup_estimation()
        betas = init_betas("lecun", model.arch)
        runs = np.arange(3, 6)
        W = estimator._init_stack(model, 11, runs)
        assert W.flat.shape == (runs.size, model.arch.num_params)
        for row, r in zip(W.flat, runs.tolist()):
            want = sample_init(model.arch, betas, run_streams(11, r)[0])
            assert row.tobytes() == want.flat.tobytes()

    def test_stack_size_rule(self):
        def dnn(d, m, L, o=1):
            return DnnModel(NetArch.uniform(d, m, L, o), "he")

        wide, replace = dnn(32, 256, 6), dnn(32, 32, 4)
        assert (wide.arch.num_params, replace.arch.num_params) == (270_592, 3_104)
        assert estimator._stack_size(wide, 2) == 1          # estimate-wide
        assert estimator._stack_size(replace, 2) == 2       # estimate-replace
        assert estimator._stack_size(replace, 100) == estimator.STACK_MAX_PARAMS // 3_104
        for m in (16, 64):                                  # the test_c09 cells
            assert estimator._stack_size(dnn(32, m, 6), 6) == 6
        assert estimator._stack_size(dnn(8, 32, 4), 1) == 1     # one run
        # the estimate-linearized shape: a network would stack, a linearized model does not
        assert estimator._stack_size(dnn(32, 128, 3), 2) == 2
        W0 = sample_init(NetArch.uniform(32, 128, 3, 1), init_betas("lecun", dnn(32, 128, 3).arch),
                         RngStream(2))
        assert estimator._stack_size(LinearizedModel(W0), 2) == 1


def _lin_stats(stats, W, eta=0.5):
    """``(finite, S_sq, diffs)`` of the step statistics at ``W``, the iterate
    they descend to from a copy of ``W`` and a copy of their S buffer, which
    they leave holding eta * S / n."""
    W = W.copy()
    return (*stats(W, eta), W.flat.copy(), stats.S.copy())


def _lin_step_setup(notion, o, n=6, width=6):
    """An expansion point W0 with o outputs, data and neighbors, loss and two stacks of one."""
    data, neighbors, _ = _setup_outputs(notion, o, n)
    arch = NetArch.uniform(data.d, width, 3, o)
    W0 = sample_init(arch, init_betas("he", arch), RngStream(56))
    loss = LossKind.LOGISTIC_SINGLE if o == 1 else LossKind.CROSS_ENTROPY_MULTI
    shift = 0.3 * RngStream(57).generator().standard_normal(arch.num_params)
    stacks = [ParamVector(arch, W.flat[None]) for W in (W0, ParamVector(arch, W0.flat + shift))]
    return W0, data, neighbors, loss, stacks



def _stacks_of_two(monkeypatch, model):
    # a limit of 2P + 1 gives stacks of two runs
    monkeypatch.setattr(estimator, "STACK_MAX_PARAMS", 2 * model.arch.num_params + 1)


class TestForkedStacks:
    """Stacks trained in forked workers give the in-process traces, flags and
    aggregates in raw bytes."""

    def _both(self, cpus, forks, model, data, neighbors, cfg, workers=2):
        cpus(1)
        here = run_kl_estimation(model, data, neighbors, cfg)
        assert forks == []
        cpus(workers)
        forked = run_kl_estimation(model, data, neighbors, cfg)
        assert len(forks) == workers - 1
        return here, forked

    # five runs: stacks of two, one-run stacks at the size limit (the shape of
    # estimate-wide), and the linearized model's stacks of one
    @pytest.mark.parametrize("kind, size", [("dnn", 2), ("dnn-at-limit", 1), ("linearized", 1)])
    @pytest.mark.parametrize("o", [1, 3])
    @pytest.mark.parametrize("notion", list(Neighbor))
    def test_equals_in_process(self, monkeypatch, cpus, forks, notion, o, kind, size):
        data, neighbors, model = _setup_outputs(notion, o)
        if kind == "linearized":
            model = LinearizedModel(sample_init(model.arch, "lecun", RngStream(7)))
        elif kind == "dnn-at-limit":
            monkeypatch.setattr(estimator, "STACK_MAX_PARAMS", model.arch.num_params)
        else:
            _stacks_of_two(monkeypatch, model)
        cfg = TrainConfig(eta=0.05, steps=6, sigma2=0.01, runs=5, seed=3, record_every=2)
        assert estimator._stack_size(model, cfg.runs) == size
        here, forked = self._both(cpus, forks, model, data, neighbors, cfg)
        assert not here.diverged_any
        _assert_same_bits(here, forked)

    def test_three_workers(self, monkeypatch, cpus, forks):
        data, neighbors, model = _setup_estimation(notion=Neighbor.ADD_ONE)
        _stacks_of_two(monkeypatch, model)
        cfg = TrainConfig(eta=0.05, steps=4, sigma2=0.01, runs=5, seed=4)
        _assert_same_bits(*self._both(cpus, forks, model, data, neighbors, cfg, workers=3))

    # the cases of TestStackedRuns: runs 0, 1 and 4 train in this process,
    # runs 2 and 3 in the worker, and they leave at different steps
    @pytest.mark.parametrize("eta, sigma2, depth, steps, threshold, completed", [
        (0.5, 20.0, 2, 8, 10.0, [2, 4, 5, 5, 1]),
        (1e4, 1.0, 4, 40, math.inf, [40, 40, 40, 10, 40])])
    @pytest.mark.parametrize("notion", list(Neighbor))
    def test_runs_leave_at_different_steps_in_different_workers(
            self, monkeypatch, cpus, forks, notion, eta, sigma2, depth, steps, threshold,
            completed):
        data, neighbors, _ = _setup_estimation(notion=notion)
        model = DnnModel(arch=NetArch.uniform(4, 6, depth, 1), scheme="he")
        _stacks_of_two(monkeypatch, model)
        monkeypatch.setattr(estimator, "DIVERGENCE_THRESHOLD", threshold)
        cfg = TrainConfig(eta=eta, steps=steps, sigma2=sigma2, runs=5, seed=1)
        with np.errstate(over="ignore", invalid="ignore"):
            here, forked = self._both(cpus, forks, model, data, neighbors, cfg)
        assert [t.completed for t in forked.traces] == completed
        rule = ("gradient norm above the threshold" if threshold < math.inf
                else "non-finite S^2")
        assert [t.left_by for t in forked.traces] == [rule if c < steps else None
                                                      for c in completed]
        _assert_same_bits(here, forked)

    def test_no_fork_without_steps_or_second_stack(self, monkeypatch, cpus, forks):
        cpus(2)
        data, neighbors, model = _setup_estimation()
        _stacks_of_two(monkeypatch, model)
        run_kl_estimation(model, data, neighbors, TrainConfig(eta=0.05, steps=0, sigma2=0.01,
                                                              runs=5))
        run_kl_estimation(model, data, neighbors, TrainConfig(eta=0.05, steps=2, sigma2=0.01,
                                                              runs=2))
        assert forks == []

    def test_worker_error_reaches_the_caller(self, monkeypatch, cpus, forks):
        cpus(2)
        data, neighbors, model = _setup_estimation()
        _stacks_of_two(monkeypatch, model)
        init_stack = estimator._init_stack

        def fail_second_stack(model, seed, runs):
            if runs[0] == 2:
                raise ValueError("no init for runs 2 and 3")
            return init_stack(model, seed, runs)

        monkeypatch.setattr(estimator, "_init_stack", fail_second_stack)
        cfg = TrainConfig(eta=0.05, steps=2, sigma2=0.01, runs=4)
        with pytest.raises(ValueError) as info:
            run_kl_estimation(model, data, neighbors, cfg)
        assert str(info.value) == "no init for runs 2 and 3" and len(forks) == 1


class TestLinStepStats:
    """The linearized step statistics refill buffers allocated once per estimate."""

    @pytest.mark.parametrize("o", [1, 3])
    @pytest.mark.parametrize("notion", list(Neighbor))
    def test_reused_buffers_equal_fresh_steps(self, notion, o):
        W0, data, neighbors, loss, stacks = _lin_step_setup(notion, o)
        stats = estimator._LinStepStats(W0, data, neighbors, loss)
        # the same statistics and S buffer at both steps, as in training
        reused = [_lin_stats(stats, W) for W in stacks]
        assert not _same_bytes(reused[0][2], reused[1][2])
        assert not _same_bytes(reused[0][3], reused[1][3])
        assert not _same_bytes(reused[0][4], reused[1][4])
        for got, W in zip(reused, stacks):
            fresh = _lin_stats(estimator._LinStepStats(W0, data, neighbors, loss), W)
            assert len(got) == len(fresh) == 5
            assert all(_same_bytes(a, b) for a, b in zip(got, fresh))

    def test_add_one_step_allocates_less_than_a_data_gradient_matrix(self):
        W0, data, neighbors, loss, stacks = _lin_step_setup(Neighbor.ADD_ONE, 1, n=32,
                                                             width=32)
        matrix_bytes = 8 * data.n * W0.arch.num_params
        stats = estimator._LinStepStats(W0, data, neighbors, loss)
        # the steps descend copies: stacks[0] is a view of W0
        stats(stacks[0].copy(), 0.5)
        # the tracer sees numpy's buffers: the explicit rows count in full
        W = ParamVector(W0.arch, stacks[1].flat[0])
        assert _peak_bytes(lambda: lin_per_example_grads(stats.features, W, data.Y, loss)) \
            >= matrix_bytes
        stack = stacks[1].copy()
        assert _peak_bytes(lambda: stats(stack, 0.5)) < matrix_bytes


def _block_setup(n, m, o, wide, seed):
    """Data of n records, a pool of m, o outputs; a narrow or a P >= 20,000 model."""
    d = 32 if wide else 3
    arch = NetArch.uniform(d, 128, 3, o) if wide else NetArch.uniform(d, 4, 2, o)
    gen = RngStream(seed).generator()

    def dataset(k, child):
        ds = synth_sphere(k, d, RngStream(seed).child(child))
        return ds if o == 1 else dataclasses.replace(ds, Y=np.eye(o)[gen.integers(0, o, k)])

    data, pool = dataset(n, 0), dataset(m, 1)
    W0 = sample_init(arch, init_betas("he", arch), RngStream(seed).child(2))
    W = ParamVector(arch, W0.flat + 0.3 * gen.standard_normal(arch.num_params))
    loss = LossKind.LOGISTIC_SINGLE if o == 1 else LossKind.CROSS_ENTROPY_MULTI
    return W0, W, data, pool, loss


class TestLinBlockStats:
    """Statistics read from four-row gradient blocks equal the full-matrix
    reference byte for byte, whatever n is modulo four."""

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(n=st.integers(1, 13), m=st.integers(1, 9), o=st.sampled_from([1, 3]),
           wide=st.booleans(), seed=st.integers(0, 10_000))
    @example(n=1, m=1, o=1, wide=True, seed=0)
    @example(n=5, m=5, o=3, wide=True, seed=1)
    @example(n=6, m=7, o=1, wide=True, seed=2)
    @example(n=7, m=2, o=3, wide=True, seed=3)
    @example(n=8, m=3, o=3, wide=False, seed=4)
    def test_equal_full_matrix_reference(self, n, m, o, wide, seed):
        W0, W, data, pool, loss = _block_setup(n, m, o, wide, seed)
        # training reads its statistics with BLAS on one thread
        with numerics._one_blas_thread():
            for notion in (Neighbor.ADD_ONE, Neighbor.REMOVE_ONE):
                if notion is Neighbor.REMOVE_ONE and n < 2:
                    continue
                neighbors = enumerate_neighbors(data, notion, pool=pool)
                stats = estimator._LinStepStats(W0, data, neighbors, loss)
                # a copy: the step descends its stack in place
                stack = ParamVector(W.arch, W.flat[None].copy())
                _, S_sq, diffs = stats(stack, 1.0)
                G = lin_per_example_grads(stats.features, W, data.Y, loss)
                Gp = None
                if notion is Neighbor.ADD_ONE:
                    Gp = lin_per_example_grads(stats.pool_features, W, pool.Y, loss)
                S = G.sum(axis=0)
                # with eta = 1 the step leaves S / n in its buffer and descends by it
                assert _same_bytes(stats.S, S / n)
                assert _same_bytes(stack.flat[0], W.flat - S / n)
                assert _same_bytes(S_sq[0], S @ S)
                assert _same_bytes(diffs[0], neighbor_grad_diffs(G, Gp, notion))
                # the norms and dots of the notion's blocks, against the full matrix
                features, Y, rows = ((stats.pool_features, pool.Y, Gp) if Gp is not None
                                     else (stats.features, data.Y, G))
                blocks = estimator._BlockGrads(len(rows), _grad_blocks(
                    features, lin_forward(features, W), Y, loss), S)
                assert _same_bytes(blocks.norms_sq(), np.einsum("ip,ip->i", rows, rows))
                assert _same_bytes(blocks.dots, rows @ S)


class TestLinearizedMemory:
    """Besides its two feature Jacobians, a linearized estimate holds a few
    parameter-sized vectors: add-one and remove-one allocate no (n, P) or
    (pool, P) gradient matrix.  Replace-one is the one exception: it holds
    its (n, P) and (m, P) gradient matrices, and nothing larger."""

    N, M = 40, 24
    SMALL = 16          # parameter-sized vectors allowed besides the matrices

    def _peak_over_jacobians(self, notion):
        arch = NetArch.uniform(8, 64, 3, 1)
        data = synth_sphere(self.N, 8, RngStream(1))
        pool = None if notion is Neighbor.REMOVE_ONE else synth_sphere(self.M, 8, RngStream(2))
        neighbors = enumerate_neighbors(data, notion, pool=pool, cap=self.N * self.M)
        model = LinearizedModel(sample_init(arch, init_betas("he", arch), RngStream(3)))
        cfg = TrainConfig(eta=0.01, steps=3, sigma2=0.01, runs=2)
        run_kl_estimation(model, data, neighbors, cfg)         # caches filled
        peak = _peak_bytes(lambda: run_kl_estimation(model, data, neighbors, cfg))
        records = self.N + (0 if pool is None else self.M)
        vector = 8 * arch.num_params
        return (peak - records * vector) / vector

    @pytest.mark.parametrize("notion", [Neighbor.ADD_ONE, Neighbor.REMOVE_ONE])
    def test_no_gradient_matrix(self, notion):
        assert self._peak_over_jacobians(notion) < self.SMALL

    def test_replace_one_holds_its_two_matrices(self):
        over = self._peak_over_jacobians(Neighbor.REPLACE_ONE) - (self.N + self.M)
        assert 0 <= over < self.SMALL


def _peak_bytes(fn):
    """Traced peak memory of ``fn()`` above what was allocated before the call."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


# deep and narrow, few records: the stack-sized arrays dominate the step's
# other buffers (the largest layer is 0.16 P, activations n x 96)
_MEMORY_ARCH = NetArch.uniform(8, 96, 8, 1)


class TestTrainingMemory:
    """Noisy GD holds one stack-sized array, the iterate, and draws the noise
    into a chunk of at most STACK_MAX_PARAMS floats; a network step adds one
    layer-block scratch, never a gradient stack."""

    def test_dnn_steps_hold_one_stack_sized_array(self):
        arch = _MEMORY_ARCH
        data = synth_sphere(4, 8, RngStream(1))
        neighbors = enumerate_neighbors(data, Neighbor.REMOVE_ONE)
        model = DnnModel(arch, "lecun")
        runs = estimator._stack_size(model, 2)
        assert runs == 2
        cfg = TrainConfig(eta=0.01, steps=3, sigma2=0.01, runs=runs)
        run_kl_estimation(model, data, neighbors, cfg)         # caches filled
        stack_bytes = 8 * runs * arch.num_params
        # the steps' iterate, which is the fresh starting stack, its noise row
        # and smaller buffers read 1.94 stacks; a trainer's copy of the
        # starting stack read 2.01, an (R, P) noise buffer beside the iterate 2.44
        peak = _peak_bytes(lambda: run_kl_estimation(model, data, neighbors, cfg))
        assert peak < 2.0 * stack_bytes

    @pytest.mark.parametrize("notion", list(Neighbor))
    def test_one_stack_one_row_one_block(self, monkeypatch, cpus, notion):
        # tracemalloc and the spy see this process only: keep the map in it
        cpus(1)
        arch, R = _MEMORY_ARCH, 2
        data = synth_sphere(4, 8, RngStream(1))
        pool = synth_sphere(3, 8, RngStream(2))
        neighbors = enumerate_neighbors(data, notion, pool=pool)
        model = DnnModel(arch, "lecun")
        assert estimator._stack_size(model, R) == R
        row_bytes = 8 * arch.num_params
        block = R * max(rows * cols for rows, cols in arch.layer_shapes)
        # what a step holds of its forward and backward passes, at their peak
        W = estimator._init_stack(model, 0, np.arange(R))
        batches = [data] if notion is Neighbor.REMOVE_ONE else [data, pool]
        passes = _peak_bytes(lambda: [loss_backprop(W, ds.X, ds.Y, LossKind.LOGISTIC_SINGLE)
                                      for ds in batches])
        sizes, peaks, scratch = [], [], []
        call = estimator._DnnStepStats.__call__

        def traced(self, W, eta):
            sizes.append(sorted(t.size for t in tracemalloc.take_snapshot().traces
                                if t.size >= row_bytes))
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            out = call(self, W, eta)
            peaks.append((tracemalloc.get_traced_memory()[1] - base - passes) / (8 * block))
            scratch.append(self.scratch.size)
            return out

        monkeypatch.setattr(estimator._DnnStepStats, "__call__", traced)
        cfg = TrainConfig(eta=0.01, steps=3, sigma2=0.01, runs=R)
        tracemalloc.start()
        try:
            assert not run_kl_estimation(model, data, neighbors, cfg).diverged_any
        finally:
            tracemalloc.stop()
        # at every step the trainer holds one (R, P) array, the iterate, and
        # one noise row: P is below STACK_MAX_PARAMS, so the chunk is a row
        assert arch.num_params < estimator.STACK_MAX_PARAMS
        assert sizes == [[row_bytes, R * row_bytes]] * cfg.steps
        # the first step allocates the (R, largest block) scratch that later
        # steps reuse; each step also holds the S^2 temporary B * B of one
        # block.  Here they read 1.94 and 0.93 blocks; an (R, P) array is 6.1
        assert scratch == [block] * cfg.steps
        assert peaks[0] < 2.25 and max(peaks[1:]) < 1.25

    def test_a_run_above_the_limit_holds_one_array(self, monkeypatch, cpus):
        # a limit between the largest layer block (9,216) and P = 56,160:
        # the run trains as a stack of one and draws its noise in 4 pieces
        cpus(1)
        limit = 1 << 14
        monkeypatch.setattr(estimator, "STACK_MAX_PARAMS", limit)
        arch = _MEMORY_ARCH
        assert max(rows * cols for rows, cols in arch.layer_shapes) < limit < arch.num_params
        data = synth_sphere(4, 8, RngStream(1))
        neighbors = enumerate_neighbors(data, Neighbor.REMOVE_ONE)
        model = DnnModel(arch, "lecun")
        assert estimator._stack_size(model, 1) == 1
        large, noise_phase, held = [], [], []
        call = estimator._DnnStepStats.__call__

        def traced(self, W, eta):
            # the peak since the last step ended covers that step's noise half
            if held:
                noise_phase.append(tracemalloc.get_traced_memory()[1] - held[-1])
            large.append(sorted(t.size for t in tracemalloc.take_snapshot().traces
                                if t.size > 8 * limit))
            out = call(self, W, eta)
            tracemalloc.reset_peak()
            held.append(tracemalloc.get_traced_memory()[0])
            return out

        monkeypatch.setattr(estimator._DnnStepStats, "__call__", traced)
        cfg = TrainConfig(eta=0.01, steps=3, sigma2=0.01, runs=1)
        tracemalloc.start()
        try:
            assert not run_kl_estimation(model, data, neighbors, cfg).diverged_any
        finally:
            tracemalloc.stop()
        # the iterate is the one allocation above the limit that a step
        # meets, and drawing the noise allocates less than the limit
        assert large == [[8 * arch.num_params]] * cfg.steps
        assert len(noise_phase) == cfg.steps - 1 and max(noise_phase) < 8 * limit

    @pytest.mark.parametrize("notion", list(Neighbor))
    def test_parameter_vectors_do_not_grow_with_the_steps(self, monkeypatch, notion):
        # a step writes its mean gradient into the trainer's buffer and reads
        # a linearized stack as it is: no step builds a ParamVector, so 3 and
        # 30 steps build the same number, for the network and its linearization
        data, neighbors, dnn = _setup_estimation(notion=notion)
        built = []
        post_init = ParamVector.__post_init__

        def counting(self):
            built.append(1)
            post_init(self)

        linearized = LinearizedModel(sample_init(dnn.arch, "lecun", RngStream(7)))
        monkeypatch.setattr(ParamVector, "__post_init__", counting)
        for model in (dnn, linearized):
            counts = []
            for steps in (3, 30):
                built.clear()
                cfg = TrainConfig(eta=0.01, steps=steps, sigma2=0.01, runs=2, seed=4)
                assert not run_kl_estimation(model, data, neighbors, cfg).diverged_any
                counts.append(len(built))
            assert counts[0] == counts[1], model


@pytest.mark.skipif(numerics._openblas() is None, reason="numpy has no bundled OpenBLAS")
class TestBlasThreads:
    def test_pins_and_restores(self):
        get, _ = numerics._openblas()
        previous = get()
        with numerics._one_blas_thread():
            assert get() == 1
        assert get() == previous
        with pytest.raises(KeyError):
            with numerics._one_blas_thread():
                raise KeyError
        assert get() == previous


class TestRunStreams:
    def test_distinct_and_reproducible(self):
        a_init, a_noise = run_streams(3, 0)
        b_init, b_noise = run_streams(3, 1)
        assert a_init != a_noise
        assert a_init != b_init
        again_init, again_noise = run_streams(3, 0)
        assert a_init == again_init and a_noise == again_noise


class TestLinAveragedIterate:
    def _setup(self, o=1):
        data = synth_sphere(5, 4, RngStream(60))
        arch = NetArch.uniform(4, 6, 2, o)
        W0 = sample_init(arch, init_betas("lecun", arch), RngStream(61))
        return build_features(W0, data.X), data.Y

    def _step(self, features, Y, W, eta, sigma2, stream):
        """W - eta S / n + sqrt(2 eta sigma2) z, with z from ``stream``."""
        S = lin_per_example_grads(features, W, Y, LossKind.LOGISTIC_SINGLE).sum(axis=0)
        z = _keyed_generator(stream.keys()).standard_normal(W.flat.size)
        return ParamVector(W.arch, W.flat - eta * S / features.n
                           + math.sqrt(2.0 * eta * sigma2) * z)

    def test_one_step(self):
        features, Y = self._setup()
        noise = RngStream(62)
        got = estimator.lin_averaged_iterate(features, Y, 0.1, 0.01, 1, noise)
        want = self._step(features, Y, features.W0, 0.1, 0.01, noise.child(0))
        assert np.allclose(got.flat, want.flat, rtol=1e-15, atol=0.0)

    def test_mean_of_the_iterates(self):
        features, Y = self._setup()
        noise, W, iterates = RngStream(63), features.W0, []
        for k in range(4):
            W = self._step(features, Y, W, 0.1, 0.01, noise.child(k))
            iterates.append(W.flat)
        got = estimator.lin_averaged_iterate(features, Y, 0.1, 0.01, 4, noise)
        assert np.allclose(got.flat, np.mean(iterates, axis=0), rtol=1e-12, atol=0.0)

    def test_validation(self):
        features, Y = self._setup()
        with pytest.raises(ValueError, match="step"):
            estimator.lin_averaged_iterate(features, Y, 0.1, 0.01, 0, RngStream(0))
        features, _ = self._setup(o=3)
        with pytest.raises(ValueError, match="single-output"):
            estimator.lin_averaged_iterate(features, Y, 0.1, 0.01, 1, RngStream(0))

    @pytest.mark.parametrize("eta, sigma2, labels, message", [
        (-0.1, 0.01, None, "step size"), (math.nan, 0.01, None, "step size"),
        (0.1, -1.0, None, "noise variance"), (0.1, math.nan, None, "noise variance"),
        (0.1, 0.01, "one", "labels"), (0.1, 0.01, "half", "labels"),
    ], ids=["negative-eta", "nan-eta", "negative-sigma2", "nan-sigma2", "one-label",
            "half-labels"])
    def test_rejects_bad_input(self, eta, sigma2, labels, message):
        features, Y = self._setup()
        Y = {None: Y, "one": Y[:1], "half": np.full(Y.shape, 0.5)}[labels]
        with pytest.raises(ValueError, match=message):
            estimator.lin_averaged_iterate(features, Y, eta, sigma2, 2, RngStream(0))

    def test_zero_noise_is_gradient_descent(self):
        features, Y = self._setup()
        got = estimator.lin_averaged_iterate(features, Y, 0.1, 0.0, 1, RngStream(0))
        S = lin_per_example_grads(features, features.W0, Y, LossKind.LOGISTIC_SINGLE).sum(axis=0)
        assert np.allclose(got.flat, features.W0.flat - 0.1 * S / features.n,
                           rtol=1e-15, atol=0.0)


class TestMonteCarlo:
    def test_grad_norm_zero_input_exact(self):
        rep = mc_grad_norm_at_init(ARCH, "he", np.zeros(4), 16, RngStream(1))
        assert rep.mean == 0.0 and rep.reference == 0.0
        assert rep.z_score == 0.0 and not rep.violation

    @pytest.mark.parametrize("si,scheme", list(enumerate(["lecun", "he", "ntk", "xavier"])))
    def test_grad_norm_z_scores(self, si, scheme):
        arch = NetArch.uniform(4, 8, 2, 1)
        x = synth_sphere(1, 4, RngStream(40)).X[0]
        rep = mc_grad_norm_at_init(arch, scheme, x, 600, RngStream(41).child(si))
        assert rep.reference_kind == "exact"
        assert abs(rep.z_score) <= 4.0
        assert not rep.violation

    def test_lecun_mean_below_he_mean(self):
        arch = NetArch.uniform(4, 16, 3, 1)
        x = synth_sphere(1, 4, RngStream(42)).X[0]
        a = mc_grad_norm_at_init(arch, "lecun", x, 400, RngStream(43))
        b = mc_grad_norm_at_init(arch, "he", x, 400, RngStream(44))
        assert a.mean < b.mean

    def test_output_sqnorm_z_score(self):
        arch = NetArch.uniform(4, 8, 2, 1)
        x = synth_sphere(1, 4, RngStream(45)).X[0]
        rep = mc_output_sqnorm(arch, "ntk", x, 600, RngStream(46))
        assert abs(rep.z_score) <= 4.0
        assert not rep.violation

    def test_output_sqnorm_zero_variance_scheme(self):
        rep = mc_output_sqnorm(ARCH, (0.0, 0.0), np.ones(4), 8, RngStream(47))
        assert rep.mean == 0.0 and rep.reference == 0.0
        assert rep.z_score == 0.0 and not rep.violation

    def test_grad_diff_identical_records_zero(self):
        x = synth_sphere(1, 4, RngStream(48)).X[0]
        rep = mc_linearized_grad_diff(ARCH, "lecun", (x, 1.0), (x, 1.0), 8, 16,
                                      RngStream(49))
        assert rep.mean == 0.0
        assert not rep.violation
        assert rep.reference == pytest.approx(
            4.0 * gradient_norm_constant_B(ARCH, init_betas("lecun", ARCH)) / 64.0)

    def test_grad_diff_scales_inverse_n_squared(self):
        gen = RngStream(50)
        data = synth_sphere(2, 4, gen)
        a, b = (data.X[0], data.Y[0]), (data.X[1], data.Y[1])
        means = {}
        for n in (8, 16, 32):
            means[n] = mc_linearized_grad_diff(ARCH, "he", a, b, n, 50, RngStream(51)).mean
        assert means[8] == pytest.approx(4.0 * means[16], rel=1e-12)
        assert means[16] == pytest.approx(4.0 * means[32], rel=1e-12)

    def test_grad_diff_respects_bound(self):
        gen = RngStream(52)
        data = synth_sphere(2, 4, gen)
        a, b = (data.X[0], data.Y[0]), (data.X[1], data.Y[1])
        rep = mc_linearized_grad_diff(ARCH, "lecun", a, b, 4, 400, RngStream(53))
        assert rep.reference_kind == "upper_bound"
        assert not rep.violation

    def test_validation(self):
        multi = NetArch.uniform(4, 6, 2, 2)
        x = np.ones(4)
        with pytest.raises(ValueError):
            mc_linearized_grad_diff(multi, "he", (x, 1.0), (x, 1.0), 4, 8, RngStream(0))
        with pytest.raises(ValueError):
            mc_linearized_grad_diff(ARCH, "he", (x, 1.0), (x, 1.0), 0, 8, RngStream(0))
        with pytest.raises(ValueError):
            mc_grad_norm_at_init(ARCH, "he", x, 1, RngStream(0))


def _capture_values(monkeypatch):
    """List that receives a copy of the values each Monte Carlo check reports on."""
    seen, report = [], estimator._mc_report

    def capture(vals, *args, **kwargs):
        seen.append(np.array(vals))
        return report(vals, *args, **kwargs)

    monkeypatch.setattr(estimator, "_mc_report", capture)
    return seen


def _per_sample_values(arch, scheme, samples, rng, value):
    """``value(W)`` at each initialization ``sample_init(..., rng.child(s))``, one at a time."""
    betas = init_betas(scheme, arch)
    return np.array([value(sample_init(arch, betas, rng.child(s))) for s in range(samples)])


def _no_draws(*args, **kwargs):
    raise AssertionError("drew initializations before validating the inputs")


ZERO_FIRST = "zero-first"


class TestStackedMonteCarlo:
    """Each check evaluates stacks of _mc_chunk(arch) initializations; the values
    and reports equal a per-sample evaluation, bit for bit."""

    @pytest.mark.parametrize("o", [1, 2, 3])
    @pytest.mark.parametrize("scheme", SCHEME_NAMES + (ZERO_FIRST,))
    def test_reports_equal_per_sample_reference(self, monkeypatch, o, scheme):
        arch = NetArch.uniform(3, 5, 3, o)
        if scheme == ZERO_FIRST:
            scheme = (0.0,) + init_betas("he", arch)[1:]
        chunk = 4
        monkeypatch.setattr(estimator, "MC_STACK_BYTES", 8 * o * arch.num_params * chunk + 7)
        assert estimator._mc_chunk(arch) == chunk
        report = estimator._mc_report
        seen = _capture_values(monkeypatch)
        gen = np.random.default_rng(o)
        x, xb = gen.standard_normal(3), gen.standard_normal(3)
        n = 5

        def grad_sqnorm(W):
            J = jacobian_batch(W, x[None])[1][0]
            return float(np.sum(J * J))

        def output_sqnorm(W):
            f = forward_batch(W, x[None])[0][0]
            return float(f @ f)

        def grad_diff_sq(W):
            d = (estimator._single_logistic_grad(W, x, 1.0)
                 - estimator._single_logistic_grad(W, xb, -1.0))
            return float(d @ d) / n ** 2

        for samples in (2, chunk - 1, chunk, chunk + 1, 3 * chunk + 2):
            rng = RngStream(samples, o)
            checks = [(mc_output_sqnorm(arch, scheme, x, samples, rng.child(0)),
                       output_sqnorm, rng.child(0))]
            # the gradient closed forms need positive variances; the kernels'
            # bits at a zero-variance layer are checked in tests/test_network.py
            if isinstance(scheme, str):
                checks.append((mc_grad_norm_at_init(arch, scheme, x, samples, rng.child(1)),
                               grad_sqnorm, rng.child(1)))
                if o == 1:
                    checks.append((mc_linearized_grad_diff(arch, scheme, (x, 1.0), (xb, -1.0),
                                                           n, samples, rng.child(2)),
                                   grad_diff_sq, rng.child(2)))
            for (rep, value, stream), vals in zip(checks, seen[-len(checks):], strict=True):
                want = _per_sample_values(arch, scheme, samples, stream, value)
                assert vals.tobytes() == want.tobytes()
                assert rep == report(want, rep.reference, rep.reference_kind)

    def test_default_chunk_boundary(self, monkeypatch):
        arch = NetArch.uniform(4, 16, 3, 1)
        chunk = estimator._mc_chunk(arch)
        assert chunk == estimator.MC_STACK_BYTES // (8 * arch.num_params) > 1
        seen = _capture_values(monkeypatch)
        x = np.array([0.5, -0.5, 0.5, 0.5])
        mc_output_sqnorm(arch, "he", x, chunk + 1, RngStream(3))

        def output_sqnorm(W):
            f = forward_batch(W, x[None])[0][0]
            return float(f @ f)

        want = _per_sample_values(arch, "he", chunk + 1, RngStream(3), output_sqnorm)
        assert seen[0].tobytes() == want.tobytes()

    def test_chunk_follows_the_byte_budget(self):
        small, wide = NetArch.uniform(8, 32, 4, 1), NetArch.uniform(8, 32, 4, 3)
        assert estimator._mc_chunk(small) == estimator.MC_STACK_BYTES // (8 * 2336)
        assert estimator._mc_chunk(wide) == estimator.MC_STACK_BYTES // (8 * 3 * 2400)
        assert estimator._mc_chunk(NetArch.uniform(8, 512, 4, 1)) == 1


class TestMonteCarloValidation:
    """Bad inputs raise ValueError naming the argument, before any draw."""

    @pytest.fixture(autouse=True)
    def _forbid_draws(self, monkeypatch):
        monkeypatch.setattr(estimator, "init_keys", _no_draws)
        monkeypatch.setattr(estimator, "sample_inits", _no_draws)

    @pytest.mark.parametrize("label", [0.5, 3.0, 0.0, -2.0])
    def test_grad_diff_labels_must_be_plus_minus_one(self, label):
        x = np.ones(4)
        with pytest.raises(ValueError, match=r"record_a label must be \+-1"):
            mc_linearized_grad_diff(ARCH, "he", (x, label), (x, 1.0), 4, 8, RngStream(0))
        with pytest.raises(ValueError, match=r"record_b label must be \+-1"):
            mc_linearized_grad_diff(ARCH, "he", (x, 1.0), (x, label), 4, 8, RngStream(0))

    def test_grad_diff_record_shapes(self):
        x = np.ones(4)
        with pytest.raises(ValueError, match=r"record_b input must have shape \(4,\)"):
            mc_linearized_grad_diff(ARCH, "he", (x, 1.0), (np.ones(5), -1.0), 4, 8,
                                    RngStream(0))
        with pytest.raises(ValueError, match=r"record_a input must have shape"):
            mc_linearized_grad_diff(ARCH, "he", (np.ones((1, 4)), 1.0), (x, -1.0), 4, 8,
                                    RngStream(0))
        for bad in ((x,), (x, 1.0, 2.0), (x, np.ones(2)), 7):
            with pytest.raises(ValueError, match="record_a must be a pair"):
                mc_linearized_grad_diff(ARCH, "he", bad, (x, -1.0), 4, 8, RngStream(0))

    @pytest.mark.parametrize("check", [mc_grad_norm_at_init, mc_output_sqnorm])
    def test_input_shape(self, check):
        for bad in (np.ones(3), np.ones(5), np.ones((1, 4)), 1.0):
            with pytest.raises(ValueError, match=r"x must have shape \(4,\)"):
                check(ARCH, "he", bad, 8, RngStream(0))

    def test_gradient_closed_forms_need_positive_variances(self):
        x = np.ones(4)
        scheme = [0.0, 1.0]
        with pytest.raises(ValueError, match="positive"):
            mc_grad_norm_at_init(ARCH, scheme, x, 8, RngStream(0))
        with pytest.raises(ValueError, match="positive"):
            mc_linearized_grad_diff(ARCH, scheme, (x, 1.0), (x, -1.0), 4, 8, RngStream(0))

    @pytest.mark.parametrize("samples", [1, 0, -3])
    def test_at_least_two_samples(self, samples):
        x = np.ones(4)
        for run in (lambda: mc_grad_norm_at_init(ARCH, "he", x, samples, RngStream(0)),
                    lambda: mc_output_sqnorm(ARCH, "he", x, samples, RngStream(0)),
                    lambda: mc_linearized_grad_diff(ARCH, "he", (x, 1.0), (x, -1.0), 4,
                                                    samples, RngStream(0))):
            with pytest.raises(ValueError, match="samples must be at least 2"):
                run()

