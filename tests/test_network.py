"""Tests for architectures, initialization schemes and relu-network gradients."""

import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from klpriv.network import (
    SCHEME_NAMES,
    _outer_products,
    _sigmoid,
    LossKind,
    NetArch,
    ParamVector,
    forward_batch,
    init_betas,
    init_keys,
    jacobian_batch,
    loss_backprop,
    loss_batch,
    per_example_grad_batch,
    residual_batch,
    backprop_deltas,
    sample_init,
    sample_inits,
)
from klpriv.numerics import RngStream, finite_diff_gradient


ARCH = NetArch.uniform(10, 100, 3, 1)
LOGISTIC, MULTI = LossKind.LOGISTIC_SINGLE, LossKind.CROSS_ENTROPY_MULTI


def _row(y):
    """One label as a one-row batch: (1,) for a +-1 scalar, (1, o) for a one-hot vector."""
    return np.asarray(y, dtype=float)[None]


def _grad(W, x, y, loss):
    """Per-example loss gradient at one record, as a parameter vector."""
    return ParamVector(W.arch, per_example_grad_batch(W, x[None], _row(y), loss)[0])


def _loss_of_weights(a, x, y, loss):
    """The loss at record (x, y) as a function of the flat weights, for finite differences."""
    return lambda w: loss_batch(forward_batch(ParamVector(a, w), x[None])[0], _row(y), loss)[0]


class TestNetArch:
    def test_uniform_shapes(self):
        a = NetArch.uniform(3, 5, 4, 2)
        assert a.L == 4
        assert a.widths == (3, 5, 5, 5, 2)
        assert a.layer_shapes == ((5, 3), (5, 5), (5, 5), (2, 5))
        assert a.num_params == 15 + 25 + 25 + 10

    def test_layer_offsets_partition(self):
        a = NetArch(d=2, hidden=(3, 4), o=2)
        sizes = [r * c for r, c in a.layer_shapes]
        assert a.layer_offsets == (0, 6, 18, 26)
        assert a.num_params == sum(sizes)

    def test_validation(self):
        with pytest.raises(ValueError):
            NetArch.uniform(3, 5, 1, 1)
        with pytest.raises(ValueError):
            NetArch(d=0, hidden=(3,), o=1)
        with pytest.raises(ValueError):
            NetArch(d=2, hidden=(), o=1)
        with pytest.raises(ValueError):
            NetArch(d=2, hidden=(0,), o=1)


class TestInitBetas:
    def test_lecun_reference_values(self):
        assert init_betas("lecun", ARCH) == pytest.approx((0.1, 0.01, 0.01))

    def test_he_reference_values(self):
        assert init_betas("he", ARCH) == pytest.approx((0.2, 0.02, 0.02))

    def test_ntk_reference_values(self):
        assert init_betas("ntk", ARCH) == pytest.approx((0.02, 0.02, 1.0))

    def test_xavier_formula(self):
        betas = init_betas("xavier", ARCH)
        assert betas == pytest.approx((2.0 / 110.0, 2.0 / 200.0, 2.0 / 101.0))

    def test_ntk_last_layer_uses_output_width(self):
        a = NetArch.uniform(6, 8, 2, 4)
        assert init_betas("ntk", a) == pytest.approx((2.0 / 8.0, 1.0 / 4.0))

    def test_custom_passthrough_and_zero_allowed(self):
        for betas in ((0.5, 0.0, 2.0), [0.5, 0, 2], np.array([0.5, 0.0, 2.0])):
            got = init_betas(betas, ARCH)
            assert got == (0.5, 0.0, 2.0)
            assert all(type(b) is float for b in got)

    def test_custom_errors(self):
        for wrong_length in ((1.0,), [1.0, 1.0], np.ones(4)):
            with pytest.raises(ValueError, match="need 3 layer variances"):
                init_betas(wrong_length, ARCH)
        for negative in ((1.0, -1.0, 1.0), [1.0, 1.0, -0.5], np.array([-1.0, 1.0, 1.0]),
                         (1.0, float("nan"), 1.0)):
            with pytest.raises(ValueError, match="non-negative"):
                init_betas(negative, ARCH)
        for unknown in ("glorot", "custom", "LeCun", ""):
            with pytest.raises(ValueError, match="unknown scheme"):
                init_betas(unknown, ARCH)


class TestParamVector:
    def test_layer_views_share_memory(self):
        a = NetArch(d=2, hidden=(2,), o=1)
        W = ParamVector.zeros(a)
        W.layer(1)[0, 1] = 7.0
        assert W.flat[1] == 7.0

    def test_row_major_layout(self):
        a = NetArch(d=2, hidden=(2,), o=1)
        W = ParamVector(a, np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0]))
        assert np.array_equal(W.layer(1), [[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(W.layer(2), [[5.0, 6.0]])

    def test_copy_is_independent(self):
        a = NetArch(d=2, hidden=(2,), o=1)
        W = ParamVector.zeros(a)
        C = W.copy()
        C.flat[0] = 1.0
        assert W.flat[0] == 0.0

    def test_errors(self):
        a = NetArch(d=2, hidden=(2,), o=1)
        with pytest.raises(ValueError):
            ParamVector(a, np.zeros(5))
        with pytest.raises(ValueError):
            ParamVector.zeros(a).layer(3)

    def test_stack_layer_views(self):
        a = NetArch(d=2, hidden=(2,), o=1)
        W = ParamVector(a, np.arange(12.0).reshape(2, 6))
        assert W.layer(1).shape == (2, 2, 2) and W.layer(2).shape == (2, 1, 2)
        assert np.array_equal(W.layer(2)[1], [[10.0, 11.0]])
        W.layer(1)[1, 0, 1] = -1.0
        assert W.flat[1, 1] == -1.0
        for bad in (np.zeros((2, 5)), np.zeros((2, 2, 6)), np.zeros(())):
            with pytest.raises(ValueError, match="stack"):
                ParamVector(a, bad)

    def test_expect_single(self):
        a = NetArch(d=2, hidden=(2,), o=1)
        W = ParamVector.zeros(a)
        assert W.expect_single() is W
        with pytest.raises(ValueError, match="W must be one parameter vector"):
            ParamVector(a, np.zeros((3, 6))).expect_single("W")

    @pytest.mark.parametrize("shape", [(6,), (3, 6)])
    def test_layer_views_built_once_and_follow_in_place_updates(self, shape):
        a = NetArch(d=2, hidden=(2,), o=1)
        W = ParamVector(a, np.zeros(shape))
        views = [W.layer(l) for l in (1, 2)]
        assert all(W.layer(l) is v for l, v in zip((1, 2), views))
        W.flat[...] = np.arange(6.0)
        np.add(W.flat, 1.0, out=W.flat)
        assert np.array_equal(views[1][..., 0, :], np.broadcast_to([5.0, 6.0], shape[:-1] + (2,)))
        # flat is never rebound, so the views stay the vector's
        with pytest.raises(dataclasses.FrozenInstanceError):
            W.flat = np.zeros(shape)


def _masked_sigmoid(z):
    """The boolean-mask formula _sigmoid replaced, kept as its reference."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


class TestSigmoid:
    EDGES = [0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 2.2250738585072014e-308, 745.2,
             -745.2, 746.0, -746.0, 709.8, -709.8, 1e308, -1e308, 37.0, -37.0]

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(z=hnp.arrays(np.float64, hnp.array_shapes(max_dims=2, max_side=6),
                        elements=st.floats(allow_nan=False)))
    @example(z=np.array(EDGES))
    def test_bytes_equal_masked_formula(self, z):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _sigmoid(z)
        assert got.shape == z.shape and got.dtype == np.float64
        assert got.tobytes() == _masked_sigmoid(z).tobytes()

    def test_nan_gives_nan(self):
        z = np.array([np.nan, 0.0, -np.nan, 3.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _sigmoid(z)
        assert np.isnan(got[[0, 2]]).all()
        assert got[[1, 3]].tobytes() == _masked_sigmoid(z[[1, 3]]).tobytes()


class TestSampleInit:
    def test_deterministic(self):
        b = init_betas("he", ARCH)
        W1 = sample_init(ARCH, b, RngStream(3))
        W2 = sample_init(ARCH, b, RngStream(3))
        assert np.array_equal(W1.flat, W2.flat)

    def test_layer_variances_match_betas(self):
        a = NetArch.uniform(200, 200, 3, 200)
        betas = (0.3, 1.5, 0.02)
        W = sample_init(a, betas, RngStream(11))
        for l, beta in enumerate(betas, start=1):
            v = W.layer(l).var()
            assert abs(v - beta) <= 0.05 * beta

    def test_all_zero_betas_give_zero_vector(self):
        W = sample_init(ARCH, (0.0, 0.0, 0.0), RngStream(0))
        assert not W.flat.any()

    def test_layers_use_distinct_streams(self):
        a = NetArch.uniform(4, 4, 3, 4)
        W = sample_init(a, (1.0, 1.0, 1.0), RngStream(9))
        assert not np.array_equal(W.layer(1), W.layer(2))

    def test_wrong_length_rejected(self):
        keys = init_keys(ARCH, RngStream(0), np.arange(3))
        with pytest.raises(ValueError):
            sample_init(ARCH, (1.0, 1.0), RngStream(0))
        with pytest.raises(ValueError):
            sample_inits(ARCH, (1.0, 1.0), keys)
        with pytest.raises(ValueError, match="keys of shape"):
            sample_inits(ARCH, (1.0, 1.0, 1.0), keys[:, :2])
        with pytest.raises(ValueError, match="out must have shape"):
            sample_inits(ARCH, (1.0, 1.0, 1.0), keys, out=np.empty((2, ARCH.num_params)))

    def test_layer_l_draws_substream_l(self):
        a = NetArch.uniform(3, 5, 3, 2)
        betas = init_betas("he", a)
        rng = RngStream(2**35 + 1, 4)
        W = sample_init(a, betas, rng)
        for l, ((rows, cols), beta) in enumerate(zip(a.layer_shapes, betas), start=1):
            reference = rng.child(l).generator().normal(0.0, np.sqrt(beta), size=(rows, cols))
            assert np.array_equal(W.layer(l), reference)

    def test_bulk_samples_equal_single_samples(self):
        rng = RngStream(6, 2)
        betas = init_betas("lecun", ARCH)
        single = np.stack([sample_init(ARCH, betas, rng.child(s)).flat for s in range(5)])
        keys = init_keys(ARCH, rng, np.arange(5))
        assert keys.shape == (5, ARCH.L, 2)
        assert sample_inits(ARCH, betas, keys).flat.tobytes() == single.tobytes()
        for chunk in (1, 2, 5, 7):
            # Monte Carlo's way: each stack is drawn into one reused buffer,
            # so copy it before the next
            buf = np.empty((min(chunk, 5), ARCH.num_params))
            stacks = []
            for start in range(0, 5, chunk):
                stop = min(start + chunk, 5)
                W = sample_inits(ARCH, betas, keys[start:stop], out=buf[:stop - start])
                assert np.shares_memory(W.flat, buf)
                stacks.append(W.flat.copy())
            assert [len(S) for S in stacks] == [min(chunk, 5 - s) for s in range(0, 5, chunk)]
            assert np.concatenate(stacks).tobytes() == single.tobytes()
        assert sample_inits(ARCH, betas, keys[:0]).flat.shape == (0, ARCH.num_params)

    def test_parent_streams_on_a_path(self):
        # vector s descends from rng.child(path[0][s]).child(path[1][s]); scalars broadcast
        a = NetArch.uniform(3, 4, 3, 2)
        rng = RngStream(12, 3)
        runs = np.array([4, 1, 9])
        W = sample_inits(a, "he", init_keys(a, rng, runs, 0))
        for s, r in enumerate(runs.tolist()):
            want = sample_init(a, "he", rng.child(r).child(0))
            assert W.flat[s].tobytes() == want.flat.tobytes()


class TestForward:
    def test_hand_computed_example(self):
        a = NetArch(d=2, hidden=(2,), o=1)
        W = ParamVector(a, np.array([1.0, 0.0, 0.0, 1.0, 1.0, 1.0]))
        F, acts = forward_batch(W, np.array([[1.0, -2.0]]))
        assert np.array_equal(acts[0], [[1.0, -2.0]])
        assert np.array_equal(acts[1], [[1.0, 0.0]])
        assert F[0] == pytest.approx([1.0])

    def test_positive_homogeneity_in_input(self):
        a = NetArch.uniform(4, 6, 3, 2)
        W = sample_init(a, init_betas("he", a), RngStream(5))
        x = RngStream(6).generator().standard_normal(4)
        F1, _ = forward_batch(W, x[None])
        F3, _ = forward_batch(W, 3.0 * x[None])
        assert np.allclose(F3, 3.0 * F1, rtol=1e-12)


class TestLosses:
    def test_logistic_at_zero(self):
        F = np.array([[0.0]])
        assert loss_batch(F, _row(1.0), LOGISTIC) == pytest.approx([np.log(2.0)])
        assert residual_batch(F, _row(1.0), LOGISTIC)[0] == pytest.approx([-0.5])
        assert residual_batch(F, _row(-1.0), LOGISTIC)[0] == pytest.approx([0.5])

    def test_logistic_large_margin_stable(self):
        v = loss_batch(np.array([[1000.0]]), _row(1.0), LOGISTIC)[0]
        assert v == pytest.approx(0.0, abs=1e-12)
        v = loss_batch(np.array([[-1000.0]]), _row(1.0), LOGISTIC)[0]
        assert v == pytest.approx(1000.0)

    def test_cross_entropy_uniform_outputs(self):
        F = np.zeros((1, 2))
        y = _row([1.0, 0.0])
        assert loss_batch(F, y, MULTI) == pytest.approx([np.log(2.0)])
        assert residual_batch(F, y, MULTI)[0] == pytest.approx([-0.5, 0.5])

    def test_cross_entropy_stable_at_large_logits(self):
        v = loss_batch(np.array([[1000.0, 0.0]]), _row([0.0, 1.0]), MULTI)[0]
        assert np.isfinite(v)
        assert v == pytest.approx(1000.0)


class TestGradients:
    def test_matches_finite_differences_both_losses(self):
        a = NetArch.uniform(5, 7, 3, 2)
        W = sample_init(a, init_betas("he", a), RngStream(17))
        x = RngStream(18).generator().standard_normal(5)
        y = np.array([0.0, 1.0])
        g = _grad(W, x, y, MULTI)
        fd = finite_diff_gradient(_loss_of_weights(a, x, y, MULTI), W.flat)
        denom = max(np.max(np.abs(fd)), 1e-12)
        assert np.max(np.abs(g.flat - fd)) / denom <= 1e-6

        a1 = NetArch.uniform(4, 6, 2, 1)
        W1 = sample_init(a1, init_betas("lecun", a1), RngStream(19))
        x1 = RngStream(20).generator().standard_normal(4)
        g1 = _grad(W1, x1, -1.0, LOGISTIC)
        fd1 = finite_diff_gradient(_loss_of_weights(a1, x1, -1.0, LOGISTIC), W1.flat)
        denom1 = max(np.max(np.abs(fd1)), 1e-12)
        assert np.max(np.abs(g1.flat - fd1)) / denom1 <= 1e-6

    def test_logistic_grad_at_zero_output(self):
        # zero top layer forces f = 0, where grad = -(y/2) df/dW
        a = NetArch.uniform(3, 5, 3, 1)
        W = sample_init(a, init_betas("he", a), RngStream(23))
        W.layer(a.L)[:] = 0.0
        x = RngStream(24).generator().standard_normal(3)
        jac = jacobian_batch(W, x[None])[1][0]
        for y in (1.0, -1.0):
            g = _grad(W, x, y, LOGISTIC)
            assert np.allclose(g.flat, -(y / 2.0) * jac[0], atol=1e-15)

    def test_zero_input_kills_first_layer(self):
        a = NetArch.uniform(4, 6, 3, 1)
        W = sample_init(a, init_betas("he", a), RngStream(29))
        x = np.zeros(4)
        g = _grad(W, x, 1.0, LOGISTIC)
        assert not g.layer(1).any()
        jac = jacobian_batch(W, x[None])[1][0]
        assert not jac[:, :a.layer_offsets[1]].any()

    def test_relu_derivative_zero_at_kink(self):
        # first layer is all zeros, so every preactivation sits exactly at 0
        a = NetArch(d=2, hidden=(3,), o=1)
        W = ParamVector(a, np.concatenate([np.zeros(6), np.ones(3)]))
        g = _grad(W, np.array([1.0, 2.0]), 1.0, LOGISTIC)
        assert not g.layer(1).any()

    def test_grad_is_jacobian_transpose_residual(self):
        a = NetArch.uniform(4, 5, 3, 3)
        W = sample_init(a, init_betas("ntk", a), RngStream(31))
        x = RngStream(32).generator().standard_normal(4)
        y = np.array([0.0, 0.0, 1.0])
        F, J = jacobian_batch(W, x[None])
        r = residual_batch(F, _row(y), MULTI)[0]
        g = _grad(W, x, y, MULTI)
        assert np.allclose(g.flat, J[0].T @ r, atol=1e-14)

    def test_last_layer_block_is_residual_outer_activation(self):
        a = NetArch.uniform(3, 4, 2, 2)
        W = sample_init(a, init_betas("he", a), RngStream(33))
        x = RngStream(34).generator().standard_normal(3)
        y = np.array([1.0, 0.0])
        F, acts = forward_batch(W, x[None])
        r = residual_batch(F, _row(y), MULTI)[0]
        g = _grad(W, x, y, MULTI)
        assert np.allclose(g.layer(a.L), np.outer(r, acts[-1][0]))


class TestBatchedOps:
    def _setup(self, o):
        a = NetArch.uniform(5, 8, 3, o)
        W = sample_init(a, init_betas("he", a), RngStream(41))
        X = RngStream(42).generator().standard_normal((6, 5))
        if o == 1:
            Y = np.array([1.0, -1.0, 1.0, 1.0, -1.0, -1.0])
            loss = LossKind.LOGISTIC_SINGLE
        else:
            Y = np.eye(o)[RngStream(43).generator().integers(0, o, size=6)]
            loss = LossKind.CROSS_ENTROPY_MULTI
        return a, W, X, Y, loss

    @pytest.mark.parametrize("o", [1, 3])
    def test_batch_matches_single(self, o):
        a, W, X, Y, loss = self._setup(o)
        F, acts = forward_batch(W, X)
        FJ, J = jacobian_batch(W, X)
        G = per_example_grad_batch(W, X, Y, loss)
        LB = loss_batch(F, Y, loss)
        RB = residual_batch(F, Y, loss)
        assert np.array_equal(FJ, F)
        for i in range(X.shape[0]):
            # a larger batch multiplies as a GEMM, so its rows agree with
            # one-row calls up to rounding
            Xi, Yi = X[i:i + 1], Y[i:i + 1]
            Fi, acts_i = forward_batch(W, Xi)
            assert np.allclose(F[i], Fi[0])
            assert all(np.allclose(h[i], hi[0]) for h, hi in zip(acts, acts_i, strict=True))
            assert np.allclose(J[i], jacobian_batch(W, Xi)[1][0])
            assert np.allclose(G[i], per_example_grad_batch(W, Xi, Yi, loss)[0])
            assert LB[i] == pytest.approx(loss_batch(Fi, Yi, loss)[0])
            assert np.allclose(RB[i], residual_batch(Fi, Yi, loss)[0])

    def test_non_finite_forward(self):
        a, W, X, Y, loss = self._setup(1)
        W.layer(a.L)[:] = np.inf
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="non-finite"):
            per_example_grad_batch(W, X, Y, loss)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(o=st.sampled_from([1, 2, 3]), d=st.integers(1, 4),
           hidden=st.lists(st.integers(1, 5), min_size=1, max_size=3),
           scheme=st.sampled_from(SCHEME_NAMES), seed=st.integers(0, 10_000))
    def test_jacobian_rows_match_finite_differences(self, o, d, hidden, scheme, seed):
        a = NetArch(d, tuple(hidden), o)
        W = sample_init(a, init_betas(scheme, a), RngStream(seed))
        x = RngStream(seed).child(0).generator().standard_normal(d)
        # central differences are exact (f is linear in each weight) only
        # while no hidden preactivation crosses its kink
        h = x
        for l in range(1, a.L):
            z = W.layer(l) @ h
            assume(np.all(np.abs(z) > 1e-3))
            h = np.maximum(z, 0.0)
        _, J = jacobian_batch(W, x[None, :])
        for j in range(o):
            fd = finite_diff_gradient(lambda w: forward_batch(ParamVector(a, w), x[None])[0][0, j],
                                      W.flat)
            assert np.max(np.abs(J[0, j] - fd)) <= 1e-7 * max(1.0, np.max(np.abs(fd)))


def _same_bytes(a, b):
    """Equal shape, dtype and raw bytes, so that the signs of zeros count too."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestStackedKernels:
    """A stack of S vectors through the batched kernels equals S single-vector calls."""

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(S=st.sampled_from([1, 2, 5]), n=st.sampled_from([1, 3]), o=st.sampled_from([1, 2, 3]),
           d=st.integers(1, 4), hidden=st.lists(st.integers(1, 5), min_size=1, max_size=3),
           scheme=st.sampled_from(SCHEME_NAMES + ("zero-first",)), seed=st.integers(0, 10_000))
    def test_stack_equals_loop_of_single_vectors(self, S, n, o, d, hidden, scheme, seed):
        a = NetArch(d, tuple(hidden), o)
        if scheme == "zero-first":
            # a zero first layer: all activations and masks vanish, signs of zero count
            betas = (0.0,) + init_betas("he", a)[1:]
        else:
            betas = init_betas(scheme, a)
        rng = RngStream(seed)
        singles = [sample_init(a, betas, rng.child(s)) for s in range(S)]
        Ws = ParamVector(a, np.stack([W.flat for W in singles]))
        X = rng.child(S).generator().standard_normal((n, d))
        if o == 1:
            Y, loss = np.where(rng.child(S + 1).generator().random(n) < 0.5, -1.0, 1.0), \
                LossKind.LOGISTIC_SINGLE
        else:
            Y = np.eye(o)[rng.child(S + 1).generator().integers(0, o, size=n)]
            loss = LossKind.CROSS_ENTROPY_MULTI

        F, acts = forward_batch(Ws, X)
        Fj, J = jacobian_batch(Ws, X)
        Fl, deltas, acts_l = loss_backprop(Ws, X, Y, loss)
        R = residual_batch(F, Y, loss)
        G = per_example_grad_batch(Ws, X, Y, loss)
        assert _same_bytes(Fl, F)
        assert F.shape == (S, n, o) and J.shape == (S, n, o, a.num_params)
        assert G.shape == (S, n, a.num_params)
        assert acts[0] is X or _same_bytes(acts[0], X)
        for s, W in enumerate(singles):
            F1, acts1 = forward_batch(W, X)
            assert _same_bytes(F[s], F1) and _same_bytes(Fj[s], F1)
            assert all(_same_bytes(h[s], h1) for h, h1 in zip(acts[1:], acts1[1:], strict=True))
            assert _same_bytes(J[s], jacobian_batch(W, X)[1])
            _, deltas1, _ = loss_backprop(W, X, Y, loss)
            assert all(_same_bytes(D[s], D1) for D, D1 in zip(deltas, deltas1, strict=True))
            assert _same_bytes(R[s], residual_batch(F1, Y, loss))
            assert _same_bytes(G[s], per_example_grad_batch(W, X, Y, loss))
            # the pieces on their own, from the stack's activations
            assert all(_same_bytes(D[s], D1) for D, D1 in zip(
                backprop_deltas(Ws, acts_l, R), backprop_deltas(W, acts1, R[s]), strict=True))
            assert _same_bytes(_outer_products(Ws, deltas, acts_l)[s],
                               _outer_products(W, deltas1, acts1))
