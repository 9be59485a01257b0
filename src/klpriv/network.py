"""Fully connected ReLU networks without biases.

Layer l maps h_{l-1} to h_l = relu(W_l h_{l-1}) for l < L; the last layer is
linear, f = W_L h_{L-1}.  The ReLU derivative at exactly zero is taken to be
zero everywhere, so gradient masks are recoverable from the activations.
Parameters travel as one flat float64 vector with layers concatenated in
order and each layer matrix flattened row-major.
"""

from __future__ import annotations

import enum
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .numerics import RngStream, gaussian_matrix

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


@dataclass(frozen=True)
class InitScheme:
    """Initialization scheme: per-layer Gaussian entry variances beta_l.

    The named schemes derive beta_l from the architecture; ``custom`` carries
    explicit variances for all L layers.
    """

    kind: str
    betas: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.kind not in SCHEME_NAMES + ("custom",):
            raise ValueError(f"unknown scheme {self.kind!r}")
        if self.kind == "custom" and self.betas is None:
            raise ValueError("custom scheme needs explicit betas")
        if self.kind != "custom" and self.betas is not None:
            raise ValueError("named schemes derive betas from the architecture")

    @classmethod
    def custom(cls, betas) -> "InitScheme":
        return cls("custom", tuple(float(b) for b in betas))


def as_scheme(scheme: "InitScheme | str") -> InitScheme:
    if isinstance(scheme, InitScheme):
        return scheme
    return InitScheme(str(scheme))


def init_betas(scheme: "InitScheme | str", arch: NetArch) -> tuple[float, ...]:
    """Per-layer entry variances (beta_1, ..., beta_L) for a scheme."""
    scheme = as_scheme(scheme)
    w = arch.widths
    L = arch.L
    if scheme.kind == "custom":
        betas = scheme.betas
        if len(betas) != L:
            raise ValueError(f"custom betas must have length {L}")
        # variance 0 is allowed for custom schemes (degenerate init at zero)
        if any(b < 0 for b in betas):
            raise ValueError("layer variances must be non-negative")
        return betas
    elif scheme.kind == "lecun":
        betas = tuple(1.0 / w[l - 1] for l in range(1, L + 1))
    elif scheme.kind == "he":
        betas = tuple(2.0 / w[l - 1] for l in range(1, L + 1))
    elif scheme.kind == "ntk":
        betas = tuple(2.0 / w[l] for l in range(1, L)) + (1.0 / arch.o,)
    else:  # xavier
        betas = tuple(2.0 / (w[l - 1] + w[l]) for l in range(1, L + 1))
    return betas


@dataclass
class ParamVector:
    """Flat parameters with layer views for a fixed architecture.

    ``flat`` holds one vector, shape (P,), or a stack of S vectors, shape
    (S, P); the batched kernels below take either.
    """

    arch: NetArch
    flat: np.ndarray

    def __post_init__(self):
        self.flat = np.asarray(self.flat, dtype=float)
        P = self.arch.num_params
        if self.flat.ndim not in (1, 2) or self.flat.shape[-1] != P:
            raise ValueError(f"expected {P} parameters or an (S, {P}) stack, "
                             f"got {self.flat.shape}")

    @classmethod
    def zeros(cls, arch: NetArch) -> "ParamVector":
        return cls(arch, np.zeros(arch.num_params))

    def expect_single(self, name: str = "parameters") -> "ParamVector":
        """Return self if it is one vector; raise ValueError naming ``name`` for a stack."""
        if self.flat.ndim != 1:
            raise ValueError(f"{name} must be one parameter vector, "
                             f"not a stack of {self.flat.shape[0]}")
        return self

    def layer(self, l: int) -> np.ndarray:
        """Weight matrix of layer l (1-based) as a view into the flat vector.

        Shape (rows, cols) for one vector, (S, rows, cols) for a stack.
        """
        if not 1 <= l <= self.arch.L:
            raise ValueError(f"layer index must be in 1..{self.arch.L}")
        offs, flat = self.arch.layer_offsets, self.flat
        shape = flat.shape[:-1] + self.arch.layer_shapes[l - 1]
        return flat[..., offs[l - 1]:offs[l]].reshape(shape)

    def layers(self) -> list[np.ndarray]:
        return [self.layer(l) for l in range(1, self.arch.L + 1)]

    def copy(self) -> "ParamVector":
        return ParamVector(self.arch, self.flat.copy())


class LossKind(enum.Enum):
    """Per-example losses; labels are +-1 scalars or one-hot vectors."""

    LOGISTIC_SINGLE = "logistic"
    CROSS_ENTROPY_MULTI = "cross-entropy"


def sample_init(arch: NetArch, betas, rng: RngStream) -> ParamVector:
    """Draw W_l with iid N(0, beta_l) entries from substream ``rng.child(l)``."""
    W = ParamVector(arch, np.empty((1, arch.num_params)))
    _draw_layers(W, _layer_variances(arch, betas), rng.keys(_layer_ids(arch))[None])
    return ParamVector(arch, W.flat[0])


def sample_inits(arch: NetArch, betas, rng: RngStream, count: int,
                 chunk: int) -> Iterator[ParamVector]:
    """``sample_init(arch, betas, rng.child(s))`` for s = 0 .. count-1, lazily.

    Yields stacks of ``chunk`` consecutive initializations (the last may hold
    fewer), each drawn when the iterator reaches it into one (chunk, P)
    buffer that the next stack overwrites.  The keys of all count x L layer
    substreams are derived up front in one call.
    """
    betas = _layer_variances(arch, betas)
    if chunk < 1:
        raise ValueError("chunk must be positive")
    keys = rng.keys(np.arange(count)[:, None], _layer_ids(arch))

    def stacks():
        buf = np.empty((min(chunk, count), arch.num_params))
        for start in range(0, count, chunk):
            W = ParamVector(arch, buf[:count - start])
            _draw_layers(W, betas, keys[start:start + chunk])
            yield W

    return stacks()


def _layer_variances(arch: NetArch, betas) -> tuple:
    betas = tuple(betas)
    if len(betas) != arch.L:
        raise ValueError(f"need {arch.L} layer variances, got {len(betas)}")
    return betas


def _layer_ids(arch: NetArch) -> np.ndarray:
    return np.arange(1, arch.L + 1)


def _draw_layers(W: ParamVector, betas: tuple, keys: np.ndarray) -> None:
    """Fill the S vectors of stack W; ``keys[s, l - 1]`` is the key of layer l of vector s."""
    for l, ((rows, cols), beta) in enumerate(zip(W.arch.layer_shapes, betas), start=1):
        layer = W.layer(l)
        for s, key in enumerate(keys[:, l - 1]):
            layer[s] = gaussian_matrix(rows, cols, beta, key)


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
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


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


def loss_backprop(params: ParamVector, X: np.ndarray, Y, loss: LossKind) -> tuple | None:
    """(deltas, activations) of the loss on a batch, or None on a non-finite forward pass."""
    F, acts = forward_batch(params, X)
    if not np.all(np.isfinite(F)):
        return None
    return backprop_deltas(params, acts, residual_batch(F, Y, loss)), acts


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
    backprop = loss_backprop(params, X, Y, loss)
    if backprop is None:
        raise ValueError("forward pass produced non-finite outputs")
    return _outer_products(params, *backprop)


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
