"""First-order expansion of a network around a reference parameter vector.

The linearized model is f_lin(W; x) = f(W0; x) + J(x) (W - W0) with J the
output Jacobian at W0.  Training this model is convex in W, and its Gram
matrix J J^T drives both the interpolation construction and the convergence
analysis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .network import (
    LossKind,
    NetArch,
    ParamVector,
    jacobian_batch,
    loss_batch,
    residual_batch,
)
from .numerics import RankDeficiencyError, psd_spectrum, solve_psd


@dataclass(frozen=True)
class NtkFeatures:
    """Frozen expansion point: reference weights, inputs, outputs and Jacobian.

    ``jac`` has one row per (example, output) pair, example-major, so row
    ``i * o + j`` is the gradient of output j on example i.
    """

    arch: NetArch
    W0: ParamVector
    X: np.ndarray
    f0: np.ndarray          # (n, o) outputs at W0
    jac: np.ndarray         # (n * o, P)

    @property
    def n(self) -> int:
        return self.X.shape[0]


def jacobian_rows(params: ParamVector, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Outputs (n, o) and stacked Jacobian rows (n*o, P) at the given weights."""
    params.expect_single()
    X = np.asarray(X, dtype=float)
    n = X.shape[0]
    arch = params.arch
    f0 = np.empty((n, arch.o))
    jac = np.empty((n * arch.o, arch.num_params))
    # One example per kernel call: a stacked call runs its products as GEMMs
    # whose summation order differs, which changes the last bits of f0 and
    # jac and with them every linearized estimate.
    for i in range(n):
        F, J = jacobian_batch(params, X[i:i + 1])
        f0[i] = F[0]
        jac[i * arch.o:(i + 1) * arch.o] = J[0]
    return f0, jac


def build_features(params: ParamVector, X: np.ndarray) -> NtkFeatures:
    """Expand the network around ``params`` on the rows of ``X``."""
    f0, jac = jacobian_rows(params, X)
    return NtkFeatures(arch=params.arch, W0=params.copy(), X=np.array(X, dtype=float),
                       f0=f0, jac=jac)


def lin_forward(features: NtkFeatures, W: ParamVector) -> np.ndarray:
    """Predictions (n, o) of the linearized model at weights W."""
    W.expect_single("W")
    shift = features.jac @ (W.flat - features.W0.flat)
    return features.f0 + shift.reshape(features.f0.shape)


def lin_grad_sum(features: NtkFeatures, preds: np.ndarray, Y, loss: LossKind,
                 rows: np.ndarray | None = None) -> np.ndarray:
    """Sum S (P,) of the per-example loss gradients given the model's predictions (n, o).

    Example i's gradient is sum_j r_ij J_ij over its Jacobian rows, with r the
    loss residual; it is written to row i of ``rows`` when an (n, P) buffer is
    given.  Row i is J_i0 r_i0 plus the terms j = 1..o-1 in order, and S starts
    from zeros and adds the rows in order: the bits of
    ``einsum("nop,no->np", J, r).sum(axis=0)``, with no (n, P) matrix unless
    the caller keeps the rows.
    """
    R = residual_batch(preds, Y, loss)
    n, o = preds.shape
    J = features.jac.reshape(n, o, -1)
    S = np.zeros(J.shape[-1])
    # the row scratch and the term scratch stay apart: a row adds its terms
    row = np.empty_like(S) if rows is None else None
    term = np.empty_like(S) if o > 1 else None
    for i in range(n):
        g = row if rows is None else rows[i]
        np.multiply(J[i, 0], R[i, 0], out=g)
        for j in range(1, o):
            g += np.multiply(J[i, j], R[i, j], out=term)
        S += g
    return S


def lin_per_example_grads(features: NtkFeatures, W: ParamVector, Y, loss: LossKind) -> np.ndarray:
    """Per-example loss gradients of the linearized model, shape (n, P)."""
    preds = lin_forward(features, W)
    rows = np.empty((preds.shape[0], features.arch.num_params))
    lin_grad_sum(features, preds, Y, loss, rows)
    return rows


def lin_empirical_loss(features: NtkFeatures, W: ParamVector, Y, loss: LossKind) -> float:
    """Mean per-example loss of the linearized model at weights W."""
    return float(np.mean(loss_batch(lin_forward(features, W), Y, loss)))


@dataclass(frozen=True)
class GramAnalysis:
    """Spectrum summary of the Gram matrix K = J J^T for a single output."""

    K: np.ndarray
    eigenvalues: np.ndarray
    rank: int
    lambda_min: float       # smallest eigenvalue counted in the rank


def gram_analysis(features: NtkFeatures) -> GramAnalysis:
    """Gram matrix and spectrum of the features; single-output models only."""
    if features.arch.o != 1:
        raise ValueError("gram analysis is defined for single-output models")
    K = features.jac @ features.jac.T
    eigvals, rank, lam_min = psd_spectrum(K)
    return GramAnalysis(K=K, eigenvalues=eigvals, rank=rank, lambda_min=lam_min)


@dataclass(frozen=True)
class LazySolution:
    """Minimum-norm interpolator pushing every margin to 2 ln(n).

    ``achieved_loss`` certifies near-optimality: the empirical loss minimum
    is non-negative, so the achieved loss itself bounds the optimality gap.
    """

    Wstar: ParamVector
    R: float                # squared parameter distance ||Wstar - W0||^2
    achieved_loss: float
    ridge_used: float


def lazy_solution(features: NtkFeatures, labels: np.ndarray, ridge: float | None = None) -> LazySolution:
    """Construct the dual-space interpolator of the linearized model.

    Targets t = 2 ln(n) y - f0 are hit by W* = W0 + J^T alpha with
    alpha = K^{-1} t, giving logistic loss log(1 + n^-2) at every example.

    Args:
        features: expansion with a single output.
        labels: +-1 labels, shape (n,).
        ridge: solver regularizer; ``None`` picks 1e-10 * trace(K) / n,
            pass 0.0 for an exact solve on a full-rank Gram matrix.
    """
    if features.arch.o != 1:
        raise ValueError("lazy construction is defined for single-output models")
    y = np.asarray(labels, dtype=float).reshape(-1)
    n = features.n
    if y.shape != (n,) or not np.all(np.isin(y, (-1.0, 1.0))):
        raise ValueError("labels must be +-1 with one entry per example")
    if n < 1:
        raise ValueError("need at least one example")
    K = features.jac @ features.jac.T
    _, rank, _ = psd_spectrum(K)
    if rank < n:
        raise RankDeficiencyError(rank, n)
    if ridge is None:
        ridge = 1e-10 * float(np.trace(K)) / n
    t = 2.0 * np.log(n) * y - features.f0[:, 0]
    alpha = solve_psd(K, t, ridge=ridge)
    Wstar = ParamVector(features.arch, features.W0.flat + features.jac.T @ alpha)
    R = float(alpha @ (K @ alpha))
    achieved = lin_empirical_loss(features, Wstar, y, LossKind.LOGISTIC_SINGLE)
    return LazySolution(Wstar=Wstar, R=R, achieved_loss=achieved, ridge_used=float(ridge))
