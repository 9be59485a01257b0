"""Tests for the linearized model, Gram analysis and the lazy interpolator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from klpriv.linearized import (
    NtkFeatures,
    build_features,
    gram_analysis,
    lazy_solution,
    lin_empirical_loss,
    lin_forward,
    lin_grad_sum,
    lin_per_example_grads,
)
from klpriv.network import (
    LossKind,
    NetArch,
    ParamVector,
    init_betas,
    jacobian_batch,
    per_example_grad_batch,
    residual_batch,
    sample_init,
)
from klpriv.numerics import RankDeficiencyError, RngStream


def _toy_features(n=1, P=2, f0=0.5, jac_row=(1.0, 2.0)):
    # hand-built expansion over a d=1, m=1 architecture with P=2 parameters
    arch = NetArch(d=1, hidden=(1,), o=1)
    assert arch.num_params == P
    return NtkFeatures(
        arch=arch,
        W0=ParamVector.zeros(arch),
        f0=np.full((n, 1), f0),
        jac=np.array([jac_row], dtype=float),
    )


def _orthonormal_features(n, scale=1.0, f0=None):
    """Features whose Jacobian rows are scaled standard basis vectors."""
    arch = NetArch(d=1, hidden=(n,), o=1)
    jac = scale * np.eye(n, arch.num_params)
    if f0 is None:
        f0 = np.zeros((n, 1))
    return NtkFeatures(arch=arch, W0=ParamVector.zeros(arch), f0=f0, jac=jac)


class TestBuildFeatures:
    def test_f0_and_jacobian_match_network(self):
        arch = NetArch.uniform(4, 6, 3, 2)
        W0 = sample_init(arch, init_betas("ntk", arch), RngStream(3))
        X = RngStream(4).generator().standard_normal((5, 4))
        feats = build_features(W0, X)
        assert feats.f0.shape == (5, 2)
        assert feats.jac.shape == (10, arch.num_params)
        for i in range(5):
            F, J = jacobian_batch(W0, X[i:i + 1])
            assert np.allclose(feats.f0[i], F[0])
            assert np.allclose(feats.jac[2 * i:2 * i + 2], J[0])

    def test_w0_is_snapshotted(self):
        arch = NetArch.uniform(3, 4, 2, 1)
        W0 = sample_init(arch, init_betas("lecun", arch), RngStream(5))
        X = RngStream(6).generator().standard_normal((2, 3))
        feats = build_features(W0, X)
        W0.flat[:] = 0.0
        assert feats.W0.flat.any()

    def test_zero_weights_give_zero_features(self):
        # with W0 = 0 the output and every non-final jacobian block vanish
        arch = NetArch.uniform(3, 4, 3, 1)
        feats = build_features(ParamVector.zeros(arch), np.ones((2, 3)))
        assert not feats.f0.any()
        assert not feats.jac[:, :arch.layer_offsets[arch.L - 1]].any()


class TestLinForward:
    def test_rank_one_toy(self):
        feats = _toy_features()
        W = ParamVector(feats.arch, np.array([1.0, 1.0]))
        preds = lin_forward(feats, W)
        assert preds == pytest.approx(np.array([[3.5]]))

    def test_equals_network_at_expansion_point(self):
        arch = NetArch.uniform(4, 5, 2, 3)
        W0 = sample_init(arch, init_betas("he", arch), RngStream(7))
        X = RngStream(8).generator().standard_normal((4, 4))
        feats = build_features(W0, X)
        assert np.allclose(lin_forward(feats, W0), feats.f0)

    def test_linear_in_parameters(self):
        feats = _toy_features()
        Wa = ParamVector(feats.arch, np.array([1.0, 0.0]))
        Wb = ParamVector(feats.arch, np.array([0.0, 1.0]))
        mid = ParamVector(feats.arch, 0.5 * (Wa.flat + Wb.flat))
        lhs = lin_forward(feats, mid)
        rhs = 0.5 * (lin_forward(feats, Wa) + lin_forward(feats, Wb))
        assert np.allclose(lhs, rhs)

    @pytest.mark.parametrize("n, o", [(1, 1), (9, 1), (5, 3)])
    def test_stack_rows_equal_single_calls(self, n, o):
        # row r of a stacked call is the call on run r alone, in raw bytes
        arch = NetArch.uniform(5, 16, 3, o)
        W0 = sample_init(arch, init_betas("lecun", arch), RngStream(11))
        feats = build_features(W0, RngStream(12).generator().standard_normal((n, 5)))
        shifts = RngStream(13).generator().standard_normal((3, arch.num_params))
        stack = ParamVector(arch, W0.flat + 0.1 * shifts)
        preds = lin_forward(feats, stack)
        assert preds.shape == (3, n, o)
        for r in range(3):
            assert _same_bytes(preds[r], lin_forward(feats, ParamVector(arch, stack.flat[r])))

    def test_losses_and_gradients_take_one_vector(self):
        feats = _toy_features()
        stack = ParamVector(feats.arch, np.zeros((2, 2)))
        with pytest.raises(ValueError, match="one parameter vector"):
            lin_empirical_loss(feats, stack, np.array([1.0]), LossKind.LOGISTIC_SINGLE)
        with pytest.raises(ValueError, match="one parameter vector"):
            lin_per_example_grads(feats, stack, np.array([1.0]), LossKind.LOGISTIC_SINGLE)


class TestLinGradients:
    def test_single_example_zero_pred(self):
        # prediction 0 with label +1 gives residual -1/2, grad = -jac/2
        feats = _toy_features(f0=0.0)
        W = ParamVector.zeros(feats.arch)
        G = lin_per_example_grads(feats, W, np.array([1.0]), LossKind.LOGISTIC_SINGLE)
        assert np.allclose(G, -0.5 * feats.jac)

    def test_matches_network_grad_at_expansion_point(self):
        arch = NetArch.uniform(4, 6, 2, 1)
        W0 = sample_init(arch, init_betas("lecun", arch), RngStream(9))
        X = RngStream(10).generator().standard_normal((3, 4))
        Y = np.array([1.0, -1.0, 1.0])
        feats = build_features(W0, X)
        G = lin_per_example_grads(feats, W0, Y, LossKind.LOGISTIC_SINGLE)
        for i in range(3):
            g = per_example_grad_batch(W0, X[i:i + 1], Y[i:i + 1], LossKind.LOGISTIC_SINGLE)
            assert np.allclose(G[i], g[0], atol=1e-14)

    def test_perfect_fit_has_negligible_gradient(self):
        # margin 20 on every example: |residual| = sigmoid(-20) = 1/(1+e^20)
        n = 4
        feats = _orthonormal_features(n)
        y = np.array([1.0, -1.0, 1.0, -1.0])
        W = ParamVector(feats.arch, np.zeros(feats.arch.num_params))
        W.flat[:n] = 20.0 * y
        G = lin_per_example_grads(feats, W, y, LossKind.LOGISTIC_SINGLE)
        row_norm = np.max(np.linalg.norm(feats.jac, axis=1))
        tail = 1.0 / (1.0 + np.exp(20.0))
        assert np.linalg.norm(G, axis=1).max() <= (tail + 1e-15) * row_norm
        assert tail < 2.1e-9


def _same_bytes(a, b):
    """Equal shape, dtype and raw bytes, so that the signs of zeros count too."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestLinGradSum:
    """The kernel against the einsum it replaced: the same rows and the same sum."""

    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(o=st.sampled_from([1, 2, 3, 5]), n=st.sampled_from([1, 2, 9]),
           hidden=st.integers(1, 6), dead=st.floats(0.0, 1.0), seed=st.integers(0, 10_000))
    def test_matches_einsum_reference(self, o, n, hidden, dead, seed):
        arch = NetArch(d=2, hidden=(hidden,), o=o)
        gens = [RngStream(seed).child(k).generator() for k in range(4)]
        jac = gens[0].standard_normal((n * o, arch.num_params))
        # dead units: all-zero Jacobian columns, where a product's sign of zero
        # follows the residual's
        jac[:, gens[1].random(arch.num_params) < dead] = 0.0
        preds = 3.0 * gens[2].standard_normal((n, o))
        # at W = W0 the model predicts f0
        feats = NtkFeatures(arch=arch, W0=ParamVector.zeros(arch), f0=preds, jac=jac)
        if o == 1:
            Y, loss = np.where(gens[3].random(n) < 0.5, -1.0, 1.0), LossKind.LOGISTIC_SINGLE
        else:
            Y, loss = np.eye(o)[gens[3].integers(0, o, n)], LossKind.CROSS_ENTROPY_MULTI
        R = residual_batch(preds, Y, loss)
        ref = np.einsum("nop,no->np", jac.reshape(n, o, -1), R)

        rows = np.full((n, arch.num_params), np.nan)
        # the kernel zeroes the caller's vector before it sums into it
        S = np.full(arch.num_params, np.nan)
        assert lin_grad_sum(feats, preds, Y, loss, S, rows) is S
        assert np.array_equal(rows, ref)
        assert _same_bytes(S, ref.sum(axis=0))
        # through the scratch of at most five rows: the same sum
        assert _same_bytes(lin_grad_sum(feats, preds, Y, loss, np.full_like(S, np.nan)), S)
        assert np.array_equal(lin_per_example_grads(feats, ParamVector.zeros(arch), Y, loss),
                              ref)


class TestGramAnalysis:
    def test_orthonormal_rows_identity_gram(self):
        feats = _orthonormal_features(4)
        ga = gram_analysis(feats)
        assert np.allclose(ga.K, np.eye(4))
        assert ga.rank == 4
        assert ga.lambda_min == pytest.approx(1.0)

    def test_duplicate_row_drops_rank(self):
        feats = _orthonormal_features(3)
        jac = feats.jac.copy()
        jac[2] = jac[0]
        dup = NtkFeatures(arch=feats.arch, W0=feats.W0, f0=feats.f0, jac=jac)
        ga = gram_analysis(dup)
        assert ga.rank == 2

    def test_multi_output_rejected(self):
        arch = NetArch.uniform(3, 4, 2, 2)
        W0 = sample_init(arch, init_betas("he", arch), RngStream(12))
        feats = build_features(W0, np.ones((2, 3)))
        with pytest.raises(ValueError):
            gram_analysis(feats)


class TestLazySolution:
    def test_two_example_identity_gram(self):
        # K = I, f0 = 0, y = (1, -1): alpha = 2 ln 2 * y
        feats = _orthonormal_features(2)
        y = np.array([1.0, -1.0])
        sol = lazy_solution(feats, y, ridge=0.0)
        a = 2.0 * np.log(2.0)
        assert np.allclose(sol.Wstar.flat[:2], [a, -a], rtol=1e-12)
        assert sol.R == pytest.approx(2.0 * a * a, rel=1e-12)
        assert sol.achieved_loss == pytest.approx(np.log(1.0 + 0.25), rel=1e-12)
        assert sol.achieved_loss < 0.25

    def test_targets_hit_and_loss_value(self):
        arch = NetArch.uniform(8, 32, 2, 1)
        W0 = sample_init(arch, init_betas("ntk", arch), RngStream(13))
        gen = RngStream(14).generator()
        X = gen.standard_normal((6, 8))
        y = np.where(gen.standard_normal(6) > 0, 1.0, -1.0)
        feats = build_features(W0, X)
        sol = lazy_solution(feats, y, ridge=0.0)
        n = 6
        preds = lin_forward(feats, sol.Wstar)[:, 0]
        assert np.allclose(preds, 2.0 * np.log(n) * y, rtol=1e-9)
        want = np.log(1.0 + 1.0 / n ** 2)
        assert sol.achieved_loss == pytest.approx(want, rel=1e-9)
        assert sol.achieved_loss < 1.0 / n ** 2
        assert sol.R == pytest.approx(float(np.sum((sol.Wstar.flat - W0.flat) ** 2)), rel=1e-12)

    def test_single_example_log1_target(self):
        # n = 1: targets are 2 ln(1) y - f0 = -f0; with f0 = 0 nothing moves
        feats = _orthonormal_features(1)
        sol = lazy_solution(feats, np.array([1.0]), ridge=0.0)
        assert sol.R == 0.0
        assert np.array_equal(sol.Wstar.flat, feats.W0.flat)

    def test_default_ridge_scale(self):
        feats = _orthonormal_features(4, scale=2.0)
        sol = lazy_solution(feats, np.array([1.0, 1.0, -1.0, 1.0]))
        assert sol.ridge_used == pytest.approx(1e-10 * 16.0 / 4.0)

    def test_rank_deficient_raises(self):
        feats = _orthonormal_features(3)
        jac = feats.jac.copy()
        jac[1] = jac[0]
        dup = NtkFeatures(arch=feats.arch, W0=feats.W0, f0=feats.f0, jac=jac)
        with pytest.raises(RankDeficiencyError):
            lazy_solution(dup, np.array([1.0, -1.0, 1.0]), ridge=0.0)

    def test_label_validation(self):
        feats = _orthonormal_features(2)
        with pytest.raises(ValueError):
            lazy_solution(feats, np.array([1.0, 0.5]))
        with pytest.raises(ValueError):
            lazy_solution(feats, np.array([1.0, -1.0, 1.0]))

    def test_multi_output_rejected(self):
        arch = NetArch.uniform(3, 4, 2, 2)
        W0 = sample_init(arch, init_betas("he", arch), RngStream(15))
        feats = build_features(W0, np.ones((2, 3)))
        with pytest.raises(ValueError):
            lazy_solution(feats, np.array([1.0, -1.0]))


class TestLinLoss:
    def test_matches_manual_average(self):
        feats = _orthonormal_features(2)
        W = ParamVector(feats.arch, np.zeros(feats.arch.num_params))
        W.flat[0] = 1.0
        y = np.array([1.0, -1.0])
        # preds are (1, 0): losses log(1+e^-1) and log 2
        want = 0.5 * (np.log1p(np.exp(-1.0)) + np.log(2.0))
        got = lin_empirical_loss(feats, W, y, LossKind.LOGISTIC_SINGLE)
        assert got == pytest.approx(want, rel=1e-12)
