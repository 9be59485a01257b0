"""Fully connected ReLU networks without biases.

Layer l maps h_{l-1} to h_l = relu(W_l h_{l-1}) for l < L; the last layer is
linear, f = W_L h_{L-1}.  The ReLU derivative at exactly zero is taken to be
zero everywhere, so gradient masks are recoverable from the activations.
Parameters travel as one flat float64 vector with layers concatenated in
order and each layer matrix flattened row-major.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .numerics import RngStream, _keyed_generator

SCHEME_NAMES = ("lecun", "he", "ntk", "xavier")


@dataclass(frozen=True)
class NetArch:
    """Widths of a depth-L network: input d, hidden widths, output o."""

    d: int
    hidden: tuple[int, ...]
    o: int

    def __post_init__(self):
        if self.d < 1 or self.o < 1:
            raise ValueError("input and output widths must be positive")
        if len(self.hidden) == 0:
            raise ValueError("need at least one hidden layer (depth >= 2)")
        if any(m < 1 for m in self.hidden):
            raise ValueError("hidden widths must be positive")

    @classmethod
    def uniform(cls, d: int, m: int, L: int, o: int) -> "NetArch":
        """Depth-L architecture with all L-1 hidden layers of width m."""
        if L < 2:
            raise ValueError("depth must be at least 2")
        return cls(d=d, hidden=(m,) * (L - 1), o=o)

    @property
    def L(self) -> int:
        return len(self.hidden) + 1

    @property
    def widths(self) -> tuple[int, ...]:
        """(m_0, ..., m_L) with m_0 = d and m_L = o."""
        return (self.d, *self.hidden, self.o)

    @cached_property
    def layer_shapes(self) -> tuple[tuple[int, int], ...]:
        w = self.widths
        return tuple((w[l], w[l - 1]) for l in range(1, self.L + 1))

    @cached_property
    def layer_offsets(self) -> tuple[int, ...]:
        offs = [0]
        for rows, cols in self.layer_shapes:
            offs.append(offs[-1] + rows * cols)
        return tuple(offs)

    @property
    def num_params(self) -> int:
        return self.layer_offsets[-1]


def init_betas(scheme, arch: NetArch) -> tuple[float, ...]:
    """Per-layer entry variances (beta_1, ..., beta_L) of an initialization.

    ``scheme`` is a name from SCHEME_NAMES, whose variances derive from the
    architecture, or a sequence of L non-negative variances, returned as
    floats; a zero variance initializes its layer at zero.
    """
    w = arch.widths
    L = arch.L
    if not isinstance(scheme, str):
        betas = tuple(float(b) for b in scheme)
        if len(betas) != L:
            raise ValueError(f"need {L} layer variances, got {len(betas)}")
        if not all(b >= 0 for b in betas):
            raise ValueError("layer variances must be non-negative")
        return betas
    if scheme == "lecun":
        return tuple(1.0 / w[l - 1] for l in range(1, L + 1))
    if scheme == "he":
        return tuple(2.0 / w[l - 1] for l in range(1, L + 1))
    if scheme == "ntk":
        return tuple(2.0 / w[l] for l in range(1, L)) + (1.0 / arch.o,)
    if scheme == "xavier":
        return tuple(2.0 / (w[l - 1] + w[l]) for l in range(1, L + 1))
    raise ValueError(f"unknown scheme {scheme!r}")


@dataclass(frozen=True)
class ParamVector:
    """Flat parameters with layer views for a fixed architecture.

    ``flat`` holds one vector, shape (P,), or a stack of S vectors, shape
    (S, P); the batched kernels below take either.  ``flat`` is never
    rebound, so the layer views are built once, on first use, and stay
    valid while the trainer updates the vector in place.
    """

    arch: NetArch
    flat: np.ndarray

    def __post_init__(self):
        flat = np.asarray(self.flat, dtype=float)
        P = self.arch.num_params
        if flat.ndim not in (1, 2) or flat.shape[-1] != P:
            raise ValueError(f"expected {P} parameters or an (S, {P}) stack, "
                             f"got {flat.shape}")
        object.__setattr__(self, "flat", flat)

    @classmethod
    def zeros(cls, arch: NetArch) -> "ParamVector":
        return cls(arch, np.zeros(arch.num_params))

    def expect_single(self, name: str = "parameters") -> "ParamVector":
        """Return self if it is one vector; raise ValueError naming ``name`` for a stack."""
        if self.flat.ndim != 1:
            raise ValueError(f"{name} must be one parameter vector, "
                             f"not a stack of {self.flat.shape[0]}")
        return self

    @cached_property
    def _layers(self) -> tuple[np.ndarray, ...]:
        offs, flat = self.arch.layer_offsets, self.flat
        return tuple(flat[..., offs[l]:offs[l + 1]].reshape(flat.shape[:-1] + shape)
                     for l, shape in enumerate(self.arch.layer_shapes))

    def layer(self, l: int) -> np.ndarray:
        """Weight matrix of layer l (1-based) as a view into the flat vector.

        Shape (rows, cols) for one vector, (S, rows, cols) for a stack.
        """
        if not 1 <= l <= self.arch.L:
            raise ValueError(f"layer index must be in 1..{self.arch.L}")
        return self._layers[l - 1]

    def copy(self) -> "ParamVector":
        return ParamVector(self.arch, self.flat.copy())


class LossKind(enum.Enum):
    """Per-example losses; labels are +-1 scalars or one-hot vectors."""

    LOGISTIC_SINGLE = "logistic"
    CROSS_ENTROPY_MULTI = "cross-entropy"


def init_keys(arch: NetArch, rng: RngStream, *path) -> np.ndarray:
    """Philox keys, shape (S, L, 2), of the layer streams of S initializations.

    ``path`` holds index arrays that broadcast to shape (S,), as in
    :meth:`RngStream.keys`: initialization s descends from the parent stream
    ``rng.child(path[0][s]).child(path[1][s])...``, and without ``path`` from
    ``rng`` alone (S = 1).  Its layer l draws from ``parent.child(l)``.  All
    S x L keys come from one :meth:`RngStream.keys` call.
    """
    layers = np.arange(1, arch.L + 1)
    return rng.keys(*(np.asarray(i)[..., None] for i in path), layers).reshape(-1, arch.L, 2)


def sample_inits(arch: NetArch, scheme, keys: np.ndarray,
                 out: np.ndarray | None = None) -> ParamVector:
    """Stack (S, P) of initializations with iid N(0, beta_l) entries in layer l.

    ``scheme`` is as for :func:`init_betas`; ``keys`` comes from
    :func:`init_keys`, and layer l of vector s draws with ``keys[s, l - 1]``.
    The stack is written into ``out``, an (S, P) array, when one is given.
    """
    betas = init_betas(scheme, arch)
    if keys.shape[1:] != (arch.L, 2):
        raise ValueError(f"need keys of shape (S, {arch.L}, 2), got {keys.shape}")
    shape = (keys.shape[0], arch.num_params)
    if out is not None and out.shape != shape:
        raise ValueError(f"out must have shape {shape}, got {out.shape}")
    W = ParamVector(arch, np.empty(shape) if out is None else out)
    for l, (block, beta) in enumerate(zip(arch.layer_shapes, betas), start=1):
        layer, sd = W.layer(l), np.sqrt(beta)
        for s, key in enumerate(keys[:, l - 1]):
            layer[s] = _keyed_generator(key).normal(0.0, sd, size=block)
    return W


def sample_init(arch: NetArch, scheme, rng: RngStream) -> ParamVector:
    """One initialization, layer l drawn from substream ``rng.child(l)``."""
    return ParamVector(arch, sample_inits(arch, scheme, init_keys(arch, rng)).flat[0])


# ---------------------------------------------------------------------------
# Two layers, one optional stack axis.  The batched kernels below are the only
# implementation of each operation: the estimator calls them on whole datasets
# every training step, on inputs validated once up front, and a single record
# is a one-row batch.  Each takes one parameter vector or a stack of S of them
# (ParamVector.flat of shape (S, P)), with the same body: a stack puts a
# leading axis of S on every result, so outputs are (S, n, o), deltas and the
# activations past the input are (S, n, m_l) and gradient rows (S, n, P),
# while the (n, d) inputs broadcast against the stack and stay unstacked as
# acts[0].  Slice s of a stack's result equals the result for vector s alone
# bit for bit, because each slice runs the same products as one vector does.
# backprop_deltas is the one backward recursion: loss gradients backprop the
# loss residuals, output Jacobians the unit residuals e_1..e_o.  Rows of a
# batch with n > 1 go through larger GEMMs and may differ from n=1 calls in
# the last bits.
# ---------------------------------------------------------------------------

def forward_batch(params: ParamVector, X: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Vectorized forward pass; returns (..., n, o) outputs and per-layer activations."""
    X = np.asarray(X, dtype=float)
    acts = [X]
    H = X
    for l in range(1, params.arch.L):
        H = np.maximum(H @ params.layer(l).swapaxes(-1, -2), 0.0)
        acts.append(H)
    F = H @ params.layer(params.arch.L).swapaxes(-1, -2)
    return F, acts


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # both branches on every entry, each from e = exp(-|z|) <= 1: no boolean
    # scatter, and the bits of 1 / (1 + exp(-z)) for z >= 0 and
    # exp(z) / (1 + exp(z)) below
    e = np.exp(-np.abs(z))
    d = 1.0 + e
    return np.where(z >= 0, 1.0 / d, e / d)


def residual_batch(F: np.ndarray, Y, loss: LossKind) -> np.ndarray:
    """Loss derivatives for a batch of outputs, shape (..., n, o) like ``F``."""
    F = np.asarray(F, dtype=float)
    if loss is LossKind.LOGISTIC_SINGLE:
        y = np.asarray(Y, dtype=float).reshape(-1)
        z = y * F[..., 0]
        return (-y * _sigmoid(-z))[..., None]
    Y = np.asarray(Y, dtype=float)
    Z = F - F.max(axis=-1, keepdims=True)
    P = np.exp(Z)
    P /= P.sum(axis=-1, keepdims=True)
    return P - Y


def loss_batch(F: np.ndarray, Y, loss: LossKind) -> np.ndarray:
    """Per-example losses for a batch of outputs."""
    F = np.asarray(F, dtype=float)
    if loss is LossKind.LOGISTIC_SINGLE:
        y = np.asarray(Y, dtype=float).reshape(-1)
        return np.logaddexp(0.0, -y * F[:, 0])
    Y = np.asarray(Y, dtype=float)
    m = F.max(axis=1)
    return m + np.log(np.exp(F - m[:, None]).sum(axis=1)) - np.einsum("no,no->n", F, Y)


def backprop_deltas(params: ParamVector, acts: list[np.ndarray], R: np.ndarray) -> list[np.ndarray]:
    """Per-layer delta vectors (..., n, m_l) from output residuals R of shape (..., n, o).

    The per-example gradient of layer l is the outer product of delta_l and
    h_{l-1}; callers exploit that rank-1 structure instead of materializing it.
    """
    L = params.arch.L
    deltas: list[np.ndarray] = [np.empty(0)] * L
    deltas[L - 1] = R
    D = R
    for l in range(L - 1, 0, -1):
        # masks use acts > 0, which equals preactivation > 0 under relu'(0)=0
        D = (D @ params.layer(l + 1)) * (acts[l] > 0)
        deltas[l - 1] = D
    return deltas


def loss_backprop(params: ParamVector, X: np.ndarray, Y, loss: LossKind) -> tuple:
    """(outputs, deltas, activations) of the loss on a batch.

    Non-finite outputs are not checked here: each caller decides what they mean.
    """
    F, acts = forward_batch(params, X)
    return F, backprop_deltas(params, acts, residual_batch(F, Y, loss)), acts


def _outer_products(params: ParamVector, deltas, acts) -> np.ndarray:
    """(..., N, P) array whose row i holds the layer blocks delta_l[i] h_{l-1}[i]^T."""
    arch, lead = params.arch, (*params.flat.shape[:-1], acts[0].shape[-2])
    G = np.empty((*lead, arch.num_params))
    for l, shape in enumerate(arch.layer_shapes, start=1):
        block = G[..., arch.layer_offsets[l - 1]:arch.layer_offsets[l]]
        np.einsum("...na,...nb->...nab", deltas[l - 1], acts[l - 1],
                  out=block.reshape(*lead, *shape))
    return G


def per_example_grad_batch(params: ParamVector, X: np.ndarray, Y, loss: LossKind) -> np.ndarray:
    """All per-example loss gradients stacked into an (..., n, P) array."""
    F, deltas, acts = loss_backprop(params, X, Y, loss)
    if not np.all(np.isfinite(F)):
        raise ValueError("forward pass produced non-finite outputs")
    return _outer_products(params, deltas, acts)


def jacobian_batch(params: ParamVector, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Outputs F (..., n, o) and output Jacobians J (..., n, o, P) for a batch of inputs.

    ``J[..., i, j]`` is the gradient of output j on example i with respect to the
    flat parameters, laid out in the same order as :class:`ParamVector`: the
    backprop of the unit residual e_j from example i's activations.
    """
    F, acts = forward_batch(params, X)
    n, o = F.shape[-2:]
    if o > 1:
        acts = [np.repeat(H, o, axis=-2) for H in acts]
    deltas = backprop_deltas(params, acts, np.tile(np.eye(o), (n, 1)))
    J = _outer_products(params, deltas, acts)
    return F, J.reshape(*F.shape[:-2], n, o, params.arch.num_params)
