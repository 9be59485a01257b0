"""Empirical KL estimation for noisy gradient descent.

A run trains on the dataset D only.  At every step the per-example gradients
give, for each neighbor candidate D', the squared empirical-gradient
difference ||grad L(W; D) - grad L(W; D')||^2; scaled by eta over the
convention constant times sigma^2 these accumulate into the KL estimate.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .accountant import (
    KLConstant,
    expected_grad_norm_init,
    expected_output_sqnorm_init,
    gradient_norm_constant_B,
)
from .data import Dataset, Neighbor, NeighborSet
from .linearized import (
    NtkFeatures,
    _grad_blocks,
    _pm1_labels,
    build_features,
    lin_forward,
    lin_grad_sum,
)
from .network import (
    LossKind,
    NetArch,
    ParamVector,
    forward_batch,
    init_betas,
    init_keys,
    jacobian_batch,
    loss_backprop,
    residual_batch,
    sample_inits,
)
from .numerics import RngStream, _fork_map, blas_threads, keyed_generator

# Stacks: run_kl_estimation trains the runs of a network max(1, min(runs,
# STACK_MAX_PARAMS // P)) at a time as one (R, P) stack through the noisy-GD
# trainer (_noisy_gd), so the stack's one (R, P) array, the iterate, holds at
# most 2^17 parameters (1 MiB) unless one run is larger; the trainer draws
# each run's noise in pieces of at most 2^17 entries into one chunk, so a
# run of any size holds no second P-sized array.  A network step adds one
# scratch of its largest layer block per run, not a second (R, P) array.
# Linearized runs, whose step statistics take one parameter vector at a time,
# and lin_averaged_iterate's one run train as stacks of one.  On a 2-core host
# with numpy's OpenBLAS, a CLI run training two runs of P = 3,104 (d=32, width
# 32, depth 4, replace-one) as one stack took 0.70x the wall time of one run at
# a time (median of 8 alternating pairs): at that size a step is mostly
# per-call overhead, which a stack pays once for all its runs.
#
# Forking: when training has steps and forms two stacks or more,
# run_kl_estimation trains the stacks in forked processes (numerics._fork_map),
# one per usable CPU.  A stack trains with BLAS on one thread, so the
# processes do not contend.  On a 2-core host the two one-run stacks of a
# P = 20,608 linearized model (perfbench's estimate-linearized) took 0.65x the
# wall time forked and about 8% more CPU time (raw medians of 10 alternating
# CLI pairs at each of two seeds).  A stack is never split: training the one
# two-run stack of a P = 3,104 network (estimate-replace) as two forked
# one-run stacks gave no steady wall-time gain over 3 pairs, 1.69x the CPU
# time and 3.6 MB more peak RSS, since at that size a step is mostly per-call
# overhead, which a stack pays once.  Without steps nothing trains, and a fork
# would only add set-up time.
STACK_MAX_PARAMS = 1 << 17

# The Monte Carlo checks evaluate their initializations in stacks of
# _mc_chunk(arch), as many as fit MC_STACK_BYTES in one (chunk, o*P) float64
# array; a check holds at most three such arrays at once.  At the perfbench
# mc-verify shape (d=8, width 32, depth 4, o=1, P = 2,336, so chunk 7) on a
# 2-core host, mc-verify took 0.64x the wall time of one initialization at a
# time and 0.07 MB more peak RSS.  Direct runs with chunks of 3 to 7 took 0.72x
# to 0.60x the time of one at a time, with peak RSS within 0.05 MB of each
# other; in a version that held four arrays, chunks of 8 and 16 read 0.3 and
# 0.8 MB above chunk 7.
MC_STACK_BYTES = 1 << 17

# The rules by which a run leaves training at a step, in the order they are
# checked: its outputs, its ||S||^2 or its neighbor differences are not
# finite, or its mean-gradient norm ||S|| / n passes the divergence threshold.
_LEAVE_RULES = ("non-finite outputs", "non-finite S^2", "non-finite differences",
                "gradient norm above the threshold")


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters of a noisy-GD estimation run."""

    eta: float
    steps: int
    sigma2: float
    runs: int = 6
    seed: int = 0
    kl_constant: KLConstant = KLConstant.PAPER
    record_every: int = 1
    divergence_threshold: float = 1e12

    def __post_init__(self):
        if not 0 < self.eta < math.inf:
            raise ValueError("step size must be positive and finite")
        if self.steps < 0:
            raise ValueError("step count must be non-negative")
        if not 0 < self.sigma2 < math.inf:
            raise ValueError("noise variance must be positive and finite for KL estimation")
        if self.runs < 1:
            raise ValueError("need at least one run")
        if self.record_every < 1:
            raise ValueError("record_every must be positive")
        # a NaN threshold would let every norm pass; inf turns the rule off
        if not self.divergence_threshold > 0:
            raise ValueError("divergence threshold must be positive")


@dataclass(frozen=True)
class DnnModel:
    """Train the network itself, with a fresh initialization per run.

    ``scheme`` is a scheme name or L layer variances, as for :func:`init_betas`.
    """

    arch: NetArch
    scheme: str | tuple[float, ...]


@dataclass(frozen=True)
class LinearizedModel:
    """Train the linearized model f(W0) + J(W0) (W - W0) around the expansion point W0.

    Every run starts from ``W0``, one parameter vector; the features of the
    data and of the neighbor pool are built at it by :func:`run_kl_estimation`.
    """

    W0: ParamVector

    @property
    def arch(self) -> NetArch:
        return self.W0.arch


@dataclass
class KLTrace:
    """One training run's accumulation record.

    ``per_step_sq_diffs`` has one row per completed step and one column per
    neighbor.  After a divergence abort ``cumulative_per_neighbor`` and the
    recorded entries of ``cumulative_worst`` past the last completed step
    are infinite.  ``left_by`` names the first of the _LEAVE_RULES that fired
    at the step the run left, the step after its last completed one; it is
    None for a run that completed every step, and a run ``diverged`` exactly
    when it left.
    """

    per_step_sq_diffs: np.ndarray
    cumulative_per_neighbor: np.ndarray
    cumulative_worst: np.ndarray
    left_by: str | None

    @property
    def completed(self) -> int:
        """The number of steps the run completed."""
        return self.per_step_sq_diffs.shape[0]

    @property
    def diverged(self) -> bool:
        return self.left_by is not None


@dataclass
class KLEstimationResult:
    """Aggregate over runs: mean/std of the worst-neighbor cumulative KL."""

    traces: list[KLTrace]
    recorded_steps: np.ndarray
    worst_mean: np.ndarray
    worst_std: np.ndarray

    @property
    def diverged_any(self) -> bool:
        return any(t.diverged for t in self.traces)


@dataclass(frozen=True)
class McReport:
    """Monte Carlo summary against a closed-form reference value or bound."""

    mean: float
    stderr: float
    samples: int
    reference: float
    z_score: float
    reference_kind: str      # "exact" or "upper_bound"
    violation: bool


def run_streams(seed: int, run: int) -> tuple[RngStream, RngStream]:
    """(init stream, noise stream) used by :func:`run_kl_estimation` for a run."""
    base = RngStream(seed).child(run)
    return base.child(0), base.child(1)


def noisy_gd_step(W: ParamVector, grad: ParamVector, eta: float, sigma2: float,
                  noise: np.ndarray) -> ParamVector:
    """One update W - eta * grad + sqrt(2 eta sigma2) * Z, elementwise, in place.

    ``W`` is one parameter vector (P,) or a stack (R, P); ``grad`` and the
    draw Z in ``noise`` (standard normals) have its shape.  All three are
    consumed: ``W`` becomes the new iterate and is returned, ``grad`` is
    scaled by eta and ``noise`` by sqrt(2 eta sigma2).  These are the
    operations of the pure update, in its order, so the bits are the same.
    ``grad`` and ``noise`` may share no memory with ``W`` or each other.

    The one-step reference of training: the noisy-GD trainer takes the same
    two halves, :func:`_descend` inside its step statistics and
    :func:`_diffuse` itself, one row and one noise chunk at a time; the
    operations are elementwise, so a chain of these calls gives its
    iterates bit for bit.
    """
    if W.arch != grad.arch:
        raise ValueError("weights and gradient must share an architecture")
    if grad.flat.shape != W.flat.shape:
        raise ValueError("gradient must have the shape of the weights")
    if not eta >= 0:
        raise ValueError("step size must be non-negative")
    if not sigma2 >= 0:
        raise ValueError("noise variance must be non-negative")
    if noise.shape != W.flat.shape:
        raise ValueError("noise must have one entry per parameter")
    if (np.may_share_memory(W.flat, grad.flat) or np.may_share_memory(W.flat, noise)
            or np.may_share_memory(grad.flat, noise)):
        raise ValueError("weights, gradient and noise must not share memory")
    _descend(W.flat, grad.flat, 1, eta)
    _diffuse(W.flat, noise, eta, sigma2)
    return W


def _descend(w: np.ndarray, S: np.ndarray, n: int, eta: float) -> None:
    """The gradient half of a step: w <- w - eta * S / n in place, consuming S.

    ``S`` is a gradient sum over n records (n = 1 for a mean gradient),
    shaped like ``w`` or like any block of it; it ends up holding
    eta * S / n.
    """
    S /= n
    S *= eta
    np.subtract(w, S, out=w)


def _diffuse(w: np.ndarray, noise: np.ndarray, eta: float, sigma2: float) -> None:
    """The noise half of a step: w += sqrt(2 eta sigma2) * noise in place, consuming noise."""
    if sigma2 > 0 and eta > 0:
        noise *= math.sqrt(2.0 * eta * sigma2)
        w += noise


def _noisy_gd(W: ParamVector, step, eta: float, sigma2: float,
              step_keys: np.ndarray) -> Iterator[ParamVector]:
    """Noisy GD from the (R, P) stack ``W``, one row per run.

    The one trainer: :func:`run_kl_estimation` and
    :func:`lin_averaged_iterate` differ only in their ``step``.  The trainer
    owns one stack-sized array, the iterate, and a noise chunk of at most
    STACK_MAX_PARAMS entries.  ``step(W, eta, rows)`` is told the rows of
    ``W`` the current stack holds, as indices into ``W``; it takes the
    gradient half of the update of each row in place, with
    :func:`_descend`, records what it keeps of the step, and returns
    ``live``, which flags the rows that take the step: the other rows leave
    the stack for good.  Row r draws the noise of step k (from 0) from one
    generator with the Philox key ``step_keys[r, k]``, piece by piece into
    the chunk, and :func:`_diffuse` adds each piece to its slice of the
    row; the pieces draw in order what one call of P draws.  With
    ``sigma2 == 0`` nothing is drawn.  Each step yields the updated iterate
    of the rows that took it; training ends after ``step_keys.shape[1]``
    steps or when no row is left.  Training runs with BLAS on one thread,
    and each step's noise is drawn on this thread once ``step`` returns;
    with no steps BLAS is not touched.

    ``W`` is trained in place: pass a fresh stack, or a copy of weights to
    keep, such as a linearized model's expansion point.  Every step yields
    the same stack until rows leave: then the survivors' rows form a new
    one.  Copy an iterate to keep it.
    """
    steps = step_keys.shape[1]
    if steps == 0:
        return
    rows = np.arange(W.flat.shape[0])
    P = W.arch.num_params
    pieces = [(a, min(a + STACK_MAX_PARAMS, P)) for a in range(0, P, STACK_MAX_PARAMS)]
    chunk = np.empty(min(P, STACK_MAX_PARAMS))
    # one BLAS thread for all training: on a 2-core host two threads took
    # more CPU for no less wall time on the statistics' GEMMs
    with blas_threads(1):
        for k in range(steps):
            live = step(W, eta, rows)
            if not live.all():
                if not live.any():
                    return
                rows, step_keys = rows[live], step_keys[live]
                W = ParamVector(W.arch, W.flat[live])
            if sigma2 > 0:
                for key, w in zip(step_keys[:, k], W.flat):
                    # one generator across the row's pieces draws what one call would
                    gen = keyed_generator(key)
                    for a, b in pieces:
                        gen.standard_normal(out=chunk[:b - a])
                        _diffuse(w[a:b], chunk[:b - a], eta, sigma2)
            yield W


def _as_matrix(grads) -> np.ndarray:
    G = np.atleast_2d(np.asarray(grads, dtype=float))
    if G.ndim != 2:
        raise ValueError(f"gradients must form an (n, P) matrix, got shape {G.shape}")
    return G


class _ExplicitGrads:
    """Per-example gradients as the explicit rows of an (n, P) matrix."""

    def __init__(self, G: np.ndarray):
        self.G = G

    def norms_sq(self) -> np.ndarray:
        return np.einsum("ip,ip->i", self.G, self.G)

    def cross(self, pool: "_ExplicitGrads") -> np.ndarray:
        return self.G @ pool.G.T


class _BlockGrads:
    """Norms and dots with S of per-example gradients met only as blocks of rows.

    ``blocks`` yields ``(a, G)`` pairs, as :func:`~klpriv.linearized._grad_blocks`
    does, covering n rows; both statistics are read from each block while
    it is in cache, with the calls of :class:`_ExplicitGrads` and ``G @ S``
    and, over those blocks, their bits.  ``dots`` holds the dots with S.
    """

    def __init__(self, n: int, blocks, S: np.ndarray):
        self._norms, self.dots = np.empty(n), np.empty(n)
        for a, G in blocks:
            np.einsum("ip,ip->i", G, G, out=self._norms[a:a + len(G)])
            np.matmul(G, S, out=self.dots[a:a + len(G)])

    def norms_sq(self) -> np.ndarray:
        return self._norms


def _row_norms_sq(A: np.ndarray) -> np.ndarray:
    return np.einsum("...nb,...nb->...n", A, A)


class _FactoredGrads:
    """Per-example gradients of the network, kept as their layer factors.

    Example i's block of layer l is the outer product delta_l[i] h_{l-1}[i]^T,
    so all norms and inner products factor into delta and activation Grams
    (the per-layer Gram of two examples is (delta delta^T) * (h h^T),
    Goodfellow's 2015 per-example-gradient trick); the parameter-sized
    per-example matrix is never materialized.  Every result carries the
    stack's leading run axis.  ``input_sq`` holds |h_0|^2, the squared norms
    of the input rows ``acts[0]``, which stay fixed through training.  The
    dots with the gradient sum S are taken one layer block of S at a time
    with :meth:`layer_dots`, so S need never exist whole.
    """

    def __init__(self, deltas, acts, input_sq):
        self.deltas, self.acts, self.input_sq = deltas, acts, input_sq

    def norms_sq(self) -> np.ndarray:
        """Layer l adds |delta_l|^2 |h_{l-1}|^2."""
        acts_sq = [self.input_sq, *(_row_norms_sq(H) for H in self.acts[1:])]
        return sum(_row_norms_sq(D) * H_sq for D, H_sq in zip(self.deltas, acts_sq))

    def layer_dots(self, l: int, B: np.ndarray) -> np.ndarray:
        """Layer l's terms delta_l . (B h_{l-1}) of the dots with S, whose
        layer-l block is B; the dots are their sum over the layers."""
        D, H = self.deltas[l - 1], self.acts[l - 1]
        return np.einsum("...na,...na->...n", D, H @ B.swapaxes(-1, -2))

    def cross(self, pool: "_FactoredGrads") -> np.ndarray:
        return sum((D @ Dp.swapaxes(-1, -2)) * (H @ Hp.swapaxes(-1, -2))
                   for D, Dp, H, Hp in zip(self.deltas, pool.deltas, self.acts, pool.acts))


def _sq_diffs(n: int, notion: Neighbor, dots, S_sq, data, pool) -> np.ndarray:
    """Squared empirical-gradient differences against every neighbor candidate.

    The one formula per neighbor notion.  Through the gradient sum S of the
    n records (``S_sq`` is ||S||^2) all three notions reduce to per-example
    norms and inner products, which it asks of the per-example gradients of
    the records, ``data``, and of the candidates, ``pool`` (None for
    remove-one): an :class:`_ExplicitGrads`, :class:`_BlockGrads` or
    :class:`_FactoredGrads`.  ``dots`` holds the dots with S of the rows
    the notion reads, the records' for remove-one and the candidates' for
    add-one; replace-one reads none (None).  Each notion asks only for what
    it reads.  Replace-one covers the whole n x m grid, pair (i, j) at
    position i m + j.  Statistics with a leading run axis (``S_sq`` of
    shape (R,)) give one row per run.
    """
    S_sq = np.asarray(S_sq)[..., None]
    if notion is Neighbor.REMOVE_ONE:
        if n < 2:
            raise ValueError("remove-one needs at least two records")
        num = n * n * data.norms_sq() - 2.0 * n * dots + S_sq
        return num / (n * n * (n - 1) * (n - 1))
    if notion is Neighbor.ADD_ONE:
        num = S_sq - 2.0 * n * dots + n * n * pool.norms_sq()
        return num / (n * n * (n + 1) * (n + 1))
    # replace-one: ||g_i - g'_j||^2 / n^2 over the row-major grid
    num = (data.norms_sq()[..., :, None] - 2.0 * data.cross(pool)
           + pool.norms_sq()[..., None, :])
    return (num / (n * n)).reshape(*num.shape[:-2], -1)


def neighbor_grad_diffs(per_example_grads, pool_grads=None,
                        notion: Neighbor = Neighbor.REMOVE_ONE) -> np.ndarray:
    """Squared gradient differences against every neighbor candidate.

    Args:
        per_example_grads: per-example loss gradients on D, an (n, P) array.
        pool_grads: gradients of the candidate records, an (m, P) array (add /
            replace only).
        notion: adjacency notion; determines the enumeration.

    Returns:
        One squared difference per neighbor: n entries for remove-one, one
        per pool record for add-one, one per pair (i, j) at i m + j for replace-one.
    """
    G = _as_matrix(per_example_grads)
    pool = None
    if notion is not Neighbor.REMOVE_ONE:
        if pool_grads is None:
            raise ValueError(f"{notion.value} needs pool gradients")
        pool = _ExplicitGrads(_as_matrix(pool_grads))
    S = G.sum(axis=0)
    dots = None
    if notion is Neighbor.REMOVE_ONE:
        dots = G @ S
    elif notion is Neighbor.ADD_ONE:
        dots = pool.G @ S
    return _sq_diffs(G.shape[0], notion, dots, S @ S, _ExplicitGrads(G), pool)


class _StepStats:
    """What the two producers of step statistics share: the data, the
    neighbor candidates and the loss.

    A producer takes an (R, P) stack of runs ``W`` and the step size
    ``eta``, reads its statistics at ``W`` and then takes each run's
    gradient half of the update in place with :func:`_descend`, W <- W -
    eta * S / n for the run's gradient sum S.  It returns ``(finite, S_sq,
    diffs)``, one row per run: whether the outputs it checks are all finite
    (the network's on data and pool, the linearized model's on the data
    only), ||S||^2 and its :func:`_sq_diffs`.  Rows of runs that are not
    finite may hold anything, in the statistics and in ``W``; the caller
    sees that they leave the stack, and a non-finite pool statistic shows in
    ``diffs``.
    """

    def __init__(self, data: Dataset, neighbors: NeighborSet, loss: LossKind):
        self.data = data
        self.notion = neighbors.notion
        self.pool = neighbors.pool
        self.loss = loss


class _DnnStepStats(_StepStats):
    """Step statistics for the full network, over a stack of runs.

    The per-example gradients are :class:`_FactoredGrads`.  Data and pool go
    through separate batches: one concatenated batch runs larger GEMMs whose
    summation order changes the last bits of the pool statistics.  Run r's
    row equals its statistics alone bit for bit, whatever the other rows
    hold: the stacked products run the same GEMMs and reductions per run.
    The squared norms of the input rows are computed once per estimate.

    The gradient sum S exists one layer block at a time, in one (R, largest
    layer block) scratch that all layers and steps reuse: once the forward
    and backward passes are done, layer l's block is written into the
    scratch, added to S^2 and to the dots the notion reads, and then
    descended into layer l of ``W``.  So a step allocates no (R, P) array.
    """

    def __init__(self, data: Dataset, neighbors: NeighborSet, loss: LossKind):
        super().__init__(data, neighbors, loss)
        self.input_sq = _row_norms_sq(np.asarray(data.X, dtype=float))
        self.pool_input_sq = None
        if self.pool is not None:
            self.pool_input_sq = _row_norms_sq(np.asarray(self.pool.X, dtype=float))
        self.scratch = np.empty(0)

    def __call__(self, W: ParamVector, eta: float) -> tuple:
        F, *factors = loss_backprop(W, self.data.X, self.data.Y, self.loss)
        finite = np.isfinite(F).all(axis=(-2, -1))
        grads, pool_grads = _FactoredGrads(*factors, self.input_sq), None
        if self.pool is not None:
            F, *factors = loss_backprop(W, self.pool.X, self.pool.Y, self.loss)
            finite &= np.isfinite(F).all(axis=(-2, -1))
            pool_grads = _FactoredGrads(*factors, self.pool_input_sq)
        # remove-one reads the dots of the data with S, add-one those of the pool
        reader = {Neighbor.REMOVE_ONE: grads, Neighbor.ADD_ONE: pool_grads}.get(self.notion)
        R, shapes = W.flat.shape[0], W.arch.layer_shapes
        size = R * max(rows * cols for rows, cols in shapes)
        if self.scratch.size < size:
            self.scratch = np.empty(size)
        # both sums start from 0 and add the layers in order, as ``sum`` does
        S_sq = dots = 0
        for l, (D, H, shape) in enumerate(zip(grads.deltas, grads.acts, shapes), start=1):
            B = self.scratch[:R * shape[0] * shape[1]].reshape(R, *shape)
            np.matmul(D.swapaxes(-1, -2), H, out=B)
            S_sq = S_sq + np.sum(B * B, axis=(-2, -1))
            if reader is not None:
                dots = dots + reader.layer_dots(l, B)
            _descend(W.layer(l), B, self.data.n, eta)
        diffs = _sq_diffs(self.data.n, self.notion, dots, S_sq, grads, pool_grads)
        return finite, S_sq, diffs


class _LinStepStats(_StepStats):
    """Step statistics for the linearized model around the expansion point W0.

    Jacobian rows are frozen at W0, so the features of the data and of the
    pool are built once, both with :func:`build_features`, which rejects a
    stacked expansion point.  Each step sums S into its own (P,) buffer
    ``S`` with :func:`lin_grad_sum`, reads the norms and dots a notion needs
    from per-example gradients rebuilt from the cached Jacobian rows in
    blocks of four (see :func:`~klpriv.linearized._block_bounds`), and then
    descends from S in place, which leaves eta * S / n in the buffer.  What
    each notion holds besides the two Jacobians:

    - add-one reads the data only through S and the pool's rows as
      :class:`_BlockGrads`, so it holds a scratch of at most five rows;
    - remove-one needs S before any dot, so it passes the data twice: once
      for S, once more for :class:`_BlockGrads`, with the same scratch;
    - replace-one keeps the (n, P) data rows and the (m, P) pool rows as
      :class:`_ExplicitGrads`, in buffers allocated once per estimate: its
      cross term is one GEMM, and GEMMs over blocks change its bits.

    Runs are not stacked: ``W`` is a stack of one.
    """

    def __init__(self, W0: ParamVector, data: Dataset, neighbors: NeighborSet,
                 loss: LossKind):
        super().__init__(data, neighbors, loss)
        self.features = build_features(W0, data.X)
        self.pool_features = None if self.pool is None else build_features(W0, self.pool.X)
        P = W0.arch.num_params
        self.S = np.empty(P)
        self.rows = self.pool_rows = None
        if self.notion is Neighbor.REPLACE_ONE:
            self.rows, self.pool_rows = np.empty((data.n, P)), np.empty((self.pool.n, P))

    def __call__(self, W: ParamVector, eta: float) -> tuple:
        preds = lin_forward(self.features, W)[0]
        finite = np.isfinite(preds).all()
        S = lin_grad_sum(self.features, preds, self.data.Y, self.loss, self.S, self.rows)
        grads = pool_grads = dots = None
        if self.notion is Neighbor.REMOVE_ONE:
            grads = _BlockGrads(self.data.n, _grad_blocks(
                self.features, preds, self.data.Y, self.loss), S)
            dots = grads.dots
        else:
            pool_blocks = _grad_blocks(self.pool_features, lin_forward(self.pool_features, W)[0],
                                       self.pool.Y, self.loss, self.pool_rows)
            if self.notion is Neighbor.ADD_ONE:
                pool_grads = _BlockGrads(self.pool.n, pool_blocks, S)
                dots = pool_grads.dots
            else:
                for _ in pool_blocks:
                    pass
                grads, pool_grads = _ExplicitGrads(self.rows), _ExplicitGrads(self.pool_rows)
        S_sq = S @ S
        diffs = _sq_diffs(self.data.n, self.notion, dots, S_sq, grads, pool_grads)
        _descend(W.flat[0], S, self.data.n, eta)
        return np.array([finite]), S_sq[None], diffs[None]


def _recorded_steps(steps: int, record_every: int) -> np.ndarray:
    recorded = [k for k in range(1, steps + 1) if k % record_every == 0]
    if steps > 0 and (not recorded or recorded[-1] != steps):
        recorded.append(steps)
    return np.array(recorded, dtype=int)


def _mean_std_over_runs(worst: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and sample std (ddof=1) over the runs in the rows of ``worst``.

    One run has std zero; infinite entries give nan stds without warnings.
    """
    with np.errstate(invalid="ignore", over="ignore"):
        mean = worst.mean(axis=0)
        std = worst.std(axis=0, ddof=1) if worst.shape[0] > 1 else np.zeros_like(mean)
        # finite entries overflow the sum inside mean (a column sum above
        # ~1.8e308) or the square inside std (entries above ~1e154): recompute
        # those columns scaled by their largest magnitude
        finite = np.isfinite(worst).all(axis=0)
        for stat, column_stat in ((mean, lambda x: x.mean(axis=0)),
                                  (std, lambda x: x.std(axis=0, ddof=1))):
            redo = ~np.isfinite(stat) & finite
            if redo.any():
                big = np.abs(worst[:, redo]).max(axis=0)
                stat[redo] = column_stat(worst[:, redo] / big) * big
    return mean, std


def _stack_size(model, runs: int) -> int:
    """Runs trained together as one stack: see STACK_MAX_PARAMS."""
    if isinstance(model, LinearizedModel):
        return 1
    return max(1, min(runs, STACK_MAX_PARAMS // model.arch.num_params))


def _init_stack(model, seed: int, runs: np.ndarray) -> ParamVector:
    """Starting stack of ``runs``: a copy of the expansion point, or each run's initialization.

    Run r's initialization descends from its init stream ``run_streams(seed, r)[0]``.
    """
    if isinstance(model, LinearizedModel):
        return ParamVector(model.arch, model.W0.flat[None].copy())
    return sample_inits(model.arch, model.scheme, init_keys(model.arch, RngStream(seed), runs, 0))


def _check_neighbors(data: Dataset, neighbors: NeighborSet) -> None:
    """Reject a set built for other data; a NeighborSet checks its own structure."""
    if neighbors.n != data.n:
        raise ValueError(f"neighbor set built for {neighbors.n} records, not {data.n}")
    pool = neighbors.pool
    if pool is not None and (pool.d != data.d or pool.num_outputs != data.num_outputs):
        raise ValueError("pool records must match the dataset shape")


def run_kl_estimation(model, data: Dataset, neighbors: NeighborSet,
                      cfg: TrainConfig) -> KLEstimationResult:
    """Estimate the KL privacy loss of noisy GD against worst-case neighbors.

    Each run trains on ``data`` alone.  The trainer's step records each run
    of its stack where the differences are made: the per-step squared
    gradient differences against every neighbor candidate accumulate into
    per-neighbor KL estimates, and the maximum over neighbors is stored at
    each recorded step.  Runs differ in initialization (full network) and
    injected noise; all streams derive deterministically from ``cfg.seed``.
    Every run of a linearized model starts from its expansion point, where
    the features of the data and of the neighbor pool are built.

    Returns:
        Result with one trace per run and mean/std across runs of the
        worst-neighbor cumulative estimate at each recorded step.
    """
    if not isinstance(model, (DnnModel, LinearizedModel)):
        raise TypeError("model must be DnnModel or LinearizedModel")
    arch = model.arch
    if data.d != arch.d:
        raise ValueError("dataset dimension does not match the architecture")
    if data.num_outputs != arch.o:
        raise ValueError(f"label width does not match the architecture: the labels have "
                         f"{data.num_outputs} columns, the network {arch.o} outputs")
    loss = LossKind.LOGISTIC_SINGLE if arch.o == 1 else LossKind.CROSS_ENTROPY_MULTI
    _check_neighbors(data, neighbors)
    if isinstance(model, DnnModel):
        make_stats = _DnnStepStats(data, neighbors, loss)
    else:
        make_stats = _LinStepStats(model.W0, data, neighbors, loss)
    recorded = _recorded_steps(cfg.steps, cfg.record_every)
    scale = cfg.eta / (cfg.kl_constant.denominator_factor * cfg.sigma2)
    # the cap: a capped set's columns of the full grid, all columns uncapped
    cols = slice(None) if neighbors.kept is None else np.array(neighbors.kept)

    def train(runs: np.ndarray) -> list[tuple]:
        """Each run's finished record, for the stack of ``runs``: its table of
        squared differences, one row per completed step, its KL per neighbor
        (infinite for a run that left), its worst at the recorded steps
        (infinite past its last completed step) and its leave rule."""
        table = np.empty((runs.size, cfg.steps, neighbors.count))
        cum = np.zeros((runs.size, neighbors.count))
        worst = np.full((runs.size, recorded.size), math.inf)
        completed = np.zeros(runs.size, dtype=int)
        left_by = [None] * runs.size
        # the column of worst that each recorded step fills
        column = {k: i for i, k in enumerate(recorded.tolist())}

        def step(W: ParamVector, eta: float, rows: np.ndarray) -> np.ndarray:
            # the one leave rule: a run leaves at the step where one of the
            # _LEAVE_RULES fires; its statistics at that step are computed with
            # the others' and dropped, so their non-finite arithmetic must not warn
            with np.errstate(over="ignore", invalid="ignore"):
                finite, S_sq, diffs = make_stats(W, eta)
                diffs = diffs[:, cols]
                # a NaN data statistic makes S^2 NaN, which the second rule
                # catches; the norm is sqrt(||S||^2) / n, so it is NaN only with
                # S^2 (and then not above the threshold); pool statistics reach
                # the differences only
                fired = (~finite, ~np.isfinite(S_sq), ~np.isfinite(diffs).all(axis=-1),
                         np.sqrt(S_sq) / data.n > cfg.divergence_threshold)
            live = ~(fired[0] | fired[1] | fired[2] | fired[3])
            if not live.all():
                first = np.argmax(fired, axis=0)[~live]
                for row, rule in zip(rows[~live].tolist(), first.tolist()):
                    left_by[row] = _LEAVE_RULES[rule]
                cum[rows[~live]] = math.inf
            # every run in the stack has completed the same k steps
            k = int(completed[rows[0]])
            rows, diffs = rows[live], diffs[live]
            table[rows, k] = diffs
            cum[rows] += scale * diffs
            completed[rows] = k + 1
            i = column.get(k + 1)
            if i is not None:
                worst[rows, i] = cum[rows].max(axis=-1) if neighbors.count else 0.0
            return live

        # row r, step k: the key of run_streams(cfg.seed, runs[r])[1].child(k)
        step_keys = RngStream(cfg.seed).keys(runs[:, None], 1, np.arange(cfg.steps))
        for _ in _noisy_gd(_init_stack(model, cfg.seed, runs), step, cfg.eta, cfg.sigma2,
                           step_keys):
            pass
        return [(table[r, :done], cum[r], worst[r], left_by[r])
                for r, done in enumerate(completed.tolist())]

    size = _stack_size(model, cfg.runs)
    stacks = [np.arange(start, min(start + size, cfg.runs)) for start in range(0, cfg.runs, size)]
    # stacks train in forked processes when there is training and more than
    # one stack: see STACK_MAX_PARAMS
    forked = cfg.steps > 0 and len(stacks) > 1
    trained = _fork_map(train, stacks) if forked else [train(runs) for runs in stacks]
    traces = [KLTrace(*run) for stack in trained for run in stack]

    worst_mean, worst_std = _mean_std_over_runs(np.stack([t.cumulative_worst for t in traces]))
    return KLEstimationResult(traces=traces, recorded_steps=recorded,
                              worst_mean=worst_mean, worst_std=worst_std)


def lin_averaged_iterate(features: NtkFeatures, labels, eta: float, sigma2: float,
                         steps: int, noise: RngStream) -> ParamVector:
    """Mean of the iterates W_1..W_steps of noisy GD on the linearized model.

    Training minimizes the single-output logistic loss on the examples of
    ``features`` with ``labels`` (+-1, one per example), starts at the
    expansion point ``features.W0`` and draws the noise of step k (from 0)
    from ``noise.child(k)``.  The averaged iterate is the point that
    :func:`~klpriv.accountant.averaged_iterate_risk_bound` bounds.
    """
    if features.arch.o != 1:
        raise ValueError("the averaged iterate is defined for single-output models")
    if steps < 1:
        raise ValueError("need at least one step")
    if not 0 < eta < math.inf:
        raise ValueError(f"step size must be positive and finite, got {eta}")
    if not 0 <= sigma2 < math.inf:
        raise ValueError(f"noise variance must be non-negative and finite, got {sigma2}")
    arch, n = features.arch, features.n
    labels = _pm1_labels(labels, n)
    live = np.ones(1, dtype=bool)
    S = np.empty(arch.num_params)

    def step(W: ParamVector, eta: float, rows: np.ndarray):
        lin_grad_sum(features, lin_forward(features, W)[0], labels, LossKind.LOGISTIC_SINGLE, S)
        _descend(W.flat[0], S, n, eta)
        return live

    # a stack of one run, copied: the trainer writes the stack it is handed
    iterates = _noisy_gd(ParamVector(arch, features.W0.flat[None].copy()), step, eta, sigma2,
                         noise.keys(np.arange(steps))[None])
    return ParamVector(arch, sum(W.flat[0] for W in iterates) / steps)


# ---------------------------------------------------------------------------
# Monte Carlo verification of the initialization moments.
# ---------------------------------------------------------------------------

def _mc_report(vals: np.ndarray, reference: float, kind: str) -> McReport:
    vals = np.asarray(vals, dtype=float)
    mean = float(vals.mean())
    stderr = float(vals.std(ddof=1) / math.sqrt(vals.size))
    if stderr == 0.0:
        z = 0.0 if mean == reference else math.copysign(math.inf, mean - reference)
    else:
        z = (mean - reference) / stderr
    if kind == "exact":
        violation = abs(z) > 4.0
    else:
        violation = mean > 1.2 * reference
    return McReport(mean=mean, stderr=stderr, samples=vals.size, reference=reference,
                    z_score=z, reference_kind=kind, violation=violation)


def _mc_chunk(arch: NetArch) -> int:
    """Initializations per Monte Carlo stack: one (chunk, o*P) array fits MC_STACK_BYTES."""
    return max(1, MC_STACK_BYTES // (8 * arch.o * arch.num_params))


def _mc_input(arch: NetArch, x, name: str) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (arch.d,):
        raise ValueError(f"{name} must have shape ({arch.d},), got {x.shape}")
    return x


def _mc_record(arch: NetArch, record, name: str) -> tuple[np.ndarray, float]:
    """Input and +-1 label of a single-output logistic record ``(x, y)``."""
    try:
        x, y = record
        y = float(np.asarray(y, dtype=float).reshape(()))
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be a pair (x, y) with a scalar label y") from None
    if y not in (-1.0, 1.0):
        raise ValueError(f"{name} label must be +-1, got {y}")
    return _mc_input(arch, x, f"{name} input"), y


def _mc_init_samples(arch: NetArch, betas, samples: int, rng: RngStream, value) -> np.ndarray:
    """``value(Ws)`` at initializations drawn with ``betas`` from ``rng.child(s)``.

    ``value`` maps a stack of up to :func:`_mc_chunk` initializations to one
    value per initialization.  Each stack is drawn into one reused buffer,
    with keys derived up front for all samples: on a 2-core host
    :func:`init_keys` took 0.47 ms for a stack of 7 and 1.04 ms for all 800
    samples of a perfbench mc-verify check, so per-stack keys would add about
    0.65 s to its 12 checks of 115 stacks.
    """
    if samples < 2:
        raise ValueError(f"samples must be at least 2, got {samples}")
    keys = init_keys(arch, rng, np.arange(samples))
    chunk = _mc_chunk(arch)
    buf = np.empty((min(chunk, samples), arch.num_params))
    vals = np.empty(samples)
    for start in range(0, samples, chunk):
        stop = min(start + chunk, samples)
        vals[start:stop] = value(sample_inits(arch, betas, keys[start:stop],
                                              out=buf[:stop - start]))
    return vals


def mc_grad_norm_at_init(arch: NetArch, scheme, x: np.ndarray, samples: int,
                         rng: RngStream) -> McReport:
    """Sample E ||df/dW||_F^2 over fresh initializations against the closed form."""
    x = _mc_input(arch, x, "x")
    betas = init_betas(scheme, arch)
    ref = expected_grad_norm_init(arch, betas, float(x @ x))

    def grad_sqnorms(Ws):
        _, J = jacobian_batch(Ws, x[None, :])
        J = J.reshape(J.shape[0], -1)
        return np.sum(np.square(J, out=J), axis=-1)

    return _mc_report(_mc_init_samples(arch, betas, samples, rng, grad_sqnorms), ref, "exact")


def mc_output_sqnorm(arch: NetArch, scheme, x: np.ndarray, samples: int,
                     rng: RngStream) -> McReport:
    """Sample E ||f(x)||^2 over fresh initializations against the closed form."""
    x = _mc_input(arch, x, "x")
    betas = init_betas(scheme, arch)
    ref = expected_output_sqnorm_init(arch, betas, float(x @ x))

    def output_sqnorms(Ws):
        F, _ = forward_batch(Ws, x[None, :])
        return (F @ F.swapaxes(-1, -2)).reshape(-1)

    return _mc_report(_mc_init_samples(arch, betas, samples, rng, output_sqnorms), ref, "exact")


def mc_linearized_grad_diff(arch: NetArch, scheme, record_a, record_b, n: int,
                            samples: int, rng: RngStream) -> McReport:
    """Sample the replace-one squared gradient difference at initialization.

    For single-output logistic records (x, y) and (x', y') with +-1 labels,
    the mean of ||grad l(f_W(x); y) - grad l(f_W(x'); y')||^2 / n^2 over
    fresh initializations is compared against the uniform bound 4 B / n^2;
    a mean above 1.2 times the bound is a violation.
    """
    if arch.o != 1:
        raise ValueError("the gradient-difference bound is for single-output models")
    if n < 1:
        raise ValueError("dataset size must be positive")
    xa, ya = _mc_record(arch, record_a, "record_a")
    xb, yb = _mc_record(arch, record_b, "record_b")
    betas = init_betas(scheme, arch)
    ref = 4.0 * gradient_norm_constant_B(arch, betas) / n ** 2

    def grad_diff_sqs(Ws):
        d = _single_logistic_grad(Ws, xa, ya)
        d -= _single_logistic_grad(Ws, xb, yb)
        return (d[:, None, :] @ d[:, :, None]).reshape(-1) / n ** 2

    vals = _mc_init_samples(arch, betas, samples, rng, grad_diff_sqs)
    return _mc_report(vals, ref, "upper_bound")


def _single_logistic_grad(W: ParamVector, x: np.ndarray, y: float) -> np.ndarray:
    """Logistic-loss gradient at one record (x, y): (P,) for one vector, (S, P) for a stack."""
    F, J = jacobian_batch(W, x[None, :])
    r = residual_batch(F, np.array([y]), LossKind.LOGISTIC_SINGLE)
    grad = J[..., 0, 0, :]
    grad *= r[..., 0, :]
    return grad
