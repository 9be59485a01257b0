"""First-order expansion of a network around a reference parameter vector.

The linearized model is f_lin(W; x) = f(W0; x) + J(x) (W - W0) with J the
output Jacobian at W0.  Training this model is convex in W, and its Gram
matrix J J^T drives both the interpolation construction and the convergence
analysis.
"""

from __future__ import annotations

from collections.abc import Iterator
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
    """Frozen expansion point: reference weights, outputs and Jacobian on n inputs.

    ``jac`` has one row per (example, output) pair, example-major, so row
    ``i * o + j`` is the gradient of output j on example i.
    """

    arch: NetArch
    W0: ParamVector
    f0: np.ndarray          # (n, o) outputs at W0
    jac: np.ndarray         # (n * o, P)

    @property
    def n(self) -> int:
        return self.f0.shape[0]


def build_features(params: ParamVector, X: np.ndarray) -> NtkFeatures:
    """Expand the network around ``params`` on the rows of ``X``."""
    params.expect_single("the expansion point")
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
    return NtkFeatures(arch=arch, W0=params.copy(), f0=f0, jac=jac)


def lin_forward(features: NtkFeatures, W: ParamVector) -> np.ndarray:
    """Predictions of the linearized model at W: (n, o), or (R, n, o) for an (R, P) stack.

    A product with a trailing unit axis gave each run the bits of the GEMV
    ``jac @ (w - W0)`` at every shape checked; ``(W - W0) @ jac.T`` did not.
    """
    shift = np.matmul(features.jac, (W.flat - features.W0.flat)[..., None])
    return features.f0 + shift.reshape(W.flat.shape[:-1] + features.f0.shape)


# Per-example gradients are built _BLOCK_ROWS rows at a time, so a caller
# can read a block's statistics while it is in cache and hold no (n, P)
# matrix.  With numpy 2.4's bundled OpenBLAS on a 2-core x86 host, a GEMV
# and the einsum row norms over four-row blocks gave the bits of the same
# calls on the whole (n, P) matrix, for n = 1..18 and P from 7 to 20,608,
# but a lone (1, P) block did not match the matrix's last row: a one-row
# tail joins the block before it, and only a one-example set, whose full
# matrix is that row, has a lone row.
_BLOCK_ROWS = 4


def _block_bounds(n: int) -> list[tuple[int, int]]:
    """Row ranges [a, b) of the gradient blocks of n examples, in order."""
    starts = list(range(0, n, _BLOCK_ROWS))
    if n % _BLOCK_ROWS == 1 and len(starts) > 1:
        starts.pop()
    return list(zip(starts, starts[1:] + [n]))


def _grad_blocks(features: NtkFeatures, preds: np.ndarray, Y, loss: LossKind,
                 rows: np.ndarray | None = None) -> Iterator[tuple[int, np.ndarray]]:
    """Yield ``(a, G)``: the loss gradients of examples a, a+1, ... as the rows of G.

    Example i's gradient, given the predictions (n, o), is sum_j r_ij J_ij
    over its Jacobian rows, with r the loss residual: J_i0 r_i0 plus the
    terms j = 1..o-1 in order, elementwise.  The blocks follow
    :func:`_block_bounds`.  G is a view of ``rows``, an (n, P) buffer, or
    with None of one scratch of at most five rows that the next block
    overwrites.
    """
    R = residual_batch(preds, Y, loss)
    n, o = preds.shape
    J = features.jac.reshape(n, o, -1)
    # the block scratch and the term scratch stay apart: a block adds its terms
    size = (min(n, _BLOCK_ROWS + 1), J.shape[-1])
    scratch = np.empty(size) if rows is None else None
    term = np.empty(size) if o > 1 else None
    for a, b in _block_bounds(n):
        G = scratch[:b - a] if rows is None else rows[a:b]
        np.multiply(J[a:b, 0], R[a:b, 0, None], out=G)
        for j in range(1, o):
            G += np.multiply(J[a:b, j], R[a:b, j, None], out=term[:b - a])
        yield a, G


def lin_grad_sum(features: NtkFeatures, preds: np.ndarray, Y, loss: LossKind,
                 S: np.ndarray, rows: np.ndarray | None = None) -> np.ndarray:
    """Sum into S, the caller's (P,) vector, the loss gradients at predictions (n, o).

    Example i's gradient is written to row i of ``rows`` when an (n, P)
    buffer is given; otherwise the gradients pass through a scratch of at
    most five rows.  S is zeroed, adds the rows in order and is returned:
    the bits of ``einsum("nop,no->np", J, r).sum(axis=0)``, with no (n, P)
    matrix unless the caller keeps the rows.
    """
    S.fill(0.0)
    for _, G in _grad_blocks(features, preds, Y, loss, rows):
        for g in G:
            S += g
    return S


def lin_per_example_grads(features: NtkFeatures, W: ParamVector, Y, loss: LossKind) -> np.ndarray:
    """Per-example loss gradients of the linearized model, shape (n, P).

    They are written block by block into a fresh (n, P) array; no gradient
    sum is formed.
    """
    preds = lin_forward(features, W.expect_single("W"))
    rows = np.empty((preds.shape[0], features.arch.num_params))
    for _ in _grad_blocks(features, preds, Y, loss, rows):
        pass
    return rows


def lin_empirical_loss(features: NtkFeatures, W: ParamVector, Y, loss: LossKind) -> float:
    """Mean per-example loss of the linearized model at weights W."""
    return float(np.mean(loss_batch(lin_forward(features, W.expect_single("W")), Y, loss)))


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
    ``gram`` is the :func:`gram_analysis` the construction solved with.
    """

    Wstar: ParamVector
    R: float                # squared parameter distance ||Wstar - W0||^2
    achieved_loss: float
    ridge_used: float
    gram: GramAnalysis


def _pm1_labels(labels, n: int) -> np.ndarray:
    """``labels`` as an (n,) array, which must hold +-1 with one entry per example."""
    y = np.asarray(labels, dtype=float).reshape(-1)
    if y.shape != (n,) or not np.all(np.isin(y, (-1.0, 1.0))):
        raise ValueError("labels must be +-1 with one entry per example")
    return y


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
    n = features.n
    y = _pm1_labels(labels, n)
    if n < 1:
        raise ValueError("need at least one example")
    gram = gram_analysis(features)
    K = gram.K
    if gram.rank < n:
        raise RankDeficiencyError(gram.rank, n)
    if ridge is None:
        ridge = 1e-10 * float(np.trace(K)) / n
    t = 2.0 * np.log(n) * y - features.f0[:, 0]
    alpha = solve_psd(K, t, ridge=ridge)
    Wstar = ParamVector(features.arch, features.W0.flat + features.jac.T @ alpha)
    R = float(alpha @ (K @ alpha))
    achieved = lin_empirical_loss(features, Wstar, y, LossKind.LOGISTIC_SINGLE)
    return LazySolution(Wstar=Wstar, R=R, achieved_loss=achieved, ridge_used=float(ridge),
                        gram=gram)
