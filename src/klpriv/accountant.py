"""Closed-form KL privacy bounds for noisy gradient descent.

The central constant B bounds the expected squared per-example gradient norm
at initialization; every analytic bound here is a function of B, the training
horizon, the dataset size and the noise scale.  Continuous time T and the
discrete schedule are identified through T = eta * steps.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

from .network import NetArch, as_scheme

# Guard for exp((2 + beta^2) T): beyond this the drift bound is vacuous and
# evaluating it would overflow float64.
_EXP_ARG_LIMIT = 700.0


class KLConstant(enum.Enum):
    """Denominator convention for the per-step KL accumulation.

    ``PAPER`` charges eta * ||dg||^2 / (2 sigma^2) per step.  ``EXACT`` uses
    the closed-form KL between the two Gaussian one-step kernels, which is
    half of that.  Both are exposed; results differ by exactly a factor 2.
    """

    PAPER = "paper"
    EXACT = "exact"

    @property
    def denominator_factor(self) -> float:
        return 2.0 if self is KLConstant.PAPER else 4.0


def _check_betas(arch: NetArch, betas, positive: bool = True) -> tuple[float, ...]:
    betas = tuple(float(b) for b in betas)
    if len(betas) != arch.L:
        raise ValueError(f"need {arch.L} layer variances, got {len(betas)}")
    # formulas that divide by a beta need strict positivity
    if positive and any(b <= 0 for b in betas):
        raise ValueError("layer variances must be positive")
    if any(b < 0 for b in betas):
        raise ValueError("layer variances must be non-negative")
    return betas


def _hidden_product(arch: NetArch, betas: tuple[float, ...]) -> float:
    """prod(beta_i m_i / 2) over the hidden layers i = 1..L-1."""
    prod = 1.0
    for i in range(1, arch.L):
        prod *= betas[i - 1] * arch.widths[i] / 2.0
    return prod


def gradient_norm_constant_B(arch: NetArch, betas) -> float:
    """Worst-case constant B = d * o * prod(beta_i m_i / 2) * sum(beta_L / beta_l).

    The product runs over the hidden layers i = 1..L-1 and the sum over all
    layers l = 1..L.  B bounds the expected squared output-Jacobian norm at
    initialization for any input with squared norm at most d.
    """
    return expected_grad_norm_init(arch, betas, arch.d)


def expected_grad_norm_init(arch: NetArch, betas, x_sqnorm: float) -> float:
    """Exact E ||df/dW||_F^2 at a fresh initialization for a fixed input."""
    betas = _check_betas(arch, betas)
    if x_sqnorm < 0:
        raise ValueError("squared input norm must be non-negative")
    ssum = sum(betas[-1] / b for b in betas)
    return x_sqnorm * arch.o * _hidden_product(arch, betas) * ssum


def expected_output_sqnorm_init(arch: NetArch, betas, x_sqnorm: float) -> float:
    """Exact E ||f(x)||^2 at a fresh initialization for a fixed input."""
    betas = _check_betas(arch, betas, positive=False)
    if x_sqnorm < 0:
        raise ValueError("squared input norm must be non-negative")
    return arch.o * betas[-1] * _hidden_product(arch, betas) * x_sqnorm


def table_closed_form_B(scheme, d: int, m: int, L: int, o: int) -> float:
    """Per-scheme closed form of B for uniform hidden width m and depth L."""
    if min(d, m, L, o) < 1 or L < 2:
        raise ValueError("need d, m, o >= 1 and depth L >= 2")
    kind = as_scheme(scheme).kind
    if kind == "lecun":
        return o * m * (L - 1 + d / m) / 2.0 ** (L - 1)
    if kind == "he":
        return float(o * m * (L - 1 + d / m))
    if kind == "ntk":
        return d * m * ((L - 1) / 2.0 + o / m)
    if kind == "xavier":
        return o * d * (L - 1 + (d + o) / (2.0 * m)) / (
            2.0 ** (L - 3) * (1.0 + d / m) * (1.0 + o / m))
    raise ValueError(f"no closed form for scheme {kind!r}")


def kl_bound_linearized(B: float, T: float, n: int, sigma2: float,
                        convention: KLConstant = KLConstant.PAPER) -> float:
    """KL privacy bound 2 B T / (n^2 sigma^2) for linearized-network training.

    The gradient difference between neighboring datasets is bounded by
    4B / n^2 uniformly in time; integrating over [0, T] and dividing by the
    convention's constant gives the bound.
    """
    if B < 0 or T < 0:
        raise ValueError("B and T must be non-negative")
    if n < 1:
        raise ValueError("dataset size must be positive")
    if sigma2 <= 0:
        raise ValueError("noise variance must be positive")
    return 4.0 * B * T / n ** 2 / (convention.denominator_factor * sigma2)


@dataclass(frozen=True)
class DnnBoundInputs:
    """Ingredients of the drift bound for non-linearized training.

    ``e_delta0`` is the expected squared gradient difference between the two
    neighboring datasets at initialization, ``e_grad0`` the expected squared
    empirical gradient norm at initialization, ``beta_smooth`` the loss
    smoothness, ``c_grad`` a uniform per-example gradient norm bound and
    ``rank_mt`` the rank of the time-varying feature Gram matrix.
    """

    T: float
    n: int
    sigma2: float
    beta_smooth: float
    c_grad: float
    rank_mt: int
    e_delta0: float
    e_grad0: float

    def __post_init__(self):
        if self.T < 0:
            raise ValueError("horizon T must be non-negative")
        if self.n < 1:
            raise ValueError("dataset size must be positive")
        if min(self.sigma2, self.beta_smooth, self.c_grad,
               self.e_delta0, self.e_grad0) < 0 or self.rank_mt < 0:
            raise ValueError("bound inputs must be non-negative")


@dataclass(frozen=True)
class BoundReport:
    """A KL bound together with its additive decomposition.

    ``value`` equals ``integral`` divided by the convention constant times
    sigma^2; ``terms`` holds the three integral contributions.
    """

    value: float
    integral: float
    terms: dict[str, float]
    constant_convention: KLConstant
    exponential_regime: bool = False
    notes: tuple[str, ...] = field(default_factory=tuple)


def dnn_drift_bound(inputs: DnnBoundInputs,
                    convention: KLConstant = KLConstant.PAPER,
                    notes: tuple[str, ...] = ()) -> BoundReport:
    """Drift-based KL bound for noisy training of the full network.

    Integral bound over [0, T]:

        2 T e_delta0
        + (2 b^2 / (n^2 (2 + b^2))) * ((exp((2 + b^2) T) - 1) / (2 + b^2) - T)
          * (e_grad0 + 2 sigma^2 rank_mt + c^2)
        + 2 c^2 T / n^2

    with b the smoothness.  When (2 + b^2) T exceeds the overflow guard the
    bound is reported as infinite with the exponential-regime flag set.
    """
    b2 = inputs.beta_smooth ** 2
    a = 2.0 + b2
    n2 = inputs.n ** 2
    if a * inputs.T > _EXP_ARG_LIMIT:
        terms = {"init_difference": 2.0 * inputs.T * inputs.e_delta0,
                 "fluctuation": math.inf,
                 "non_smoothness": 2.0 * inputs.c_grad ** 2 * inputs.T / n2}
        return BoundReport(value=math.inf, integral=math.inf, terms=terms,
                           constant_convention=convention,
                           exponential_regime=True, notes=notes)
    init_term = 2.0 * inputs.T * inputs.e_delta0
    growth = math.expm1(a * inputs.T) / a - inputs.T
    fluct = (2.0 * b2 / (n2 * a)) * growth * (
        inputs.e_grad0 + 2.0 * inputs.sigma2 * inputs.rank_mt + inputs.c_grad ** 2)
    nonsmooth = 2.0 * inputs.c_grad ** 2 * inputs.T / n2
    integral = init_term + fluct + nonsmooth
    if integral == 0.0:
        value = 0.0
    elif inputs.sigma2 == 0.0:
        value = math.inf
    else:
        value = integral / (convention.denominator_factor * inputs.sigma2)
    terms = {"init_difference": init_term, "fluctuation": fluct,
             "non_smoothness": nonsmooth}
    return BoundReport(value=value, integral=integral, terms=terms,
                       constant_convention=convention, notes=notes)


def lazy_R_bound(arch: NetArch, betas, n: int) -> float:
    """Order-of-magnitude bound on the squared distance to the interpolator.

    Returns max{1 / (d beta_L prod beta_i m_i), 1} * n / sum(1 / beta_l).
    Logarithmic factors in n are dropped, so treat this as a scale estimate
    rather than a certified inequality.
    """
    if arch.o != 1:
        raise ValueError("the interpolation bound is for single-output models")
    betas = _check_betas(arch, betas)
    if n < 0:
        raise ValueError("dataset size must be non-negative")
    prod = arch.d * betas[-1]
    for i in range(1, arch.L):
        prod *= betas[i - 1] * arch.widths[i]
    inv_sum = sum(1.0 / b for b in betas)
    return max(1.0 / prod, 1.0) * n / inv_sum


@dataclass(frozen=True)
class TradeoffSchedule:
    """Noise level and horizon balancing privacy against excess risk."""

    T: float
    sigma2: float
    risk_bound: float


def tradeoff_schedule(B: float, R: float, eps: float, n: int) -> TradeoffSchedule:
    """Pick (T, sigma^2) so the KL bound equals eps with the best risk bound.

    T = sqrt(eps n R / (2 B)) equalizes the optimization term R / (2 T) and
    the privacy-noise term B T / (eps n); the resulting risk bound is
    1 / n^2 + sqrt(2 B R / (eps n)).
    """
    if min(B, R, eps) <= 0 or n < 1:
        raise ValueError("B, R, eps must be positive and n >= 1")
    T = math.sqrt(eps * n * R / (2.0 * B))
    sigma2 = 2.0 * B * T / (eps * n ** 2)
    risk = 1.0 / n ** 2 + math.sqrt(2.0 * B * R / (eps * n))
    return TradeoffSchedule(T=T, sigma2=sigma2, risk_bound=risk)


def kl_to_dp_delta(eps_kl: float) -> float:
    """Convert a KL privacy level to the delta of (0, delta)-DP: sqrt(eps/2)."""
    if eps_kl < 0:
        raise ValueError("KL divergence must be non-negative")
    return math.sqrt(eps_kl / 2.0)
