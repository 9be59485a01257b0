"""Tests for the analytic KL bounds, moment formulas and schedules."""

import math

import numpy as np
import pytest

from klpriv.accountant import (
    DnnBoundInputs,
    KLConstant,
    averaged_iterate_risk_bound,
    dnn_drift_bound,
    expected_grad_norm_init,
    expected_output_sqnorm_init,
    gradient_norm_constant_B,
    kl_bound_linearized,
    kl_to_dp_delta,
    lazy_R_bound,
    table_closed_form_B,
    tradeoff_schedule,
)
from klpriv.network import SCHEME_NAMES, NetArch, init_betas
from klpriv.numerics import RngStream


ARCH = NetArch.uniform(10, 100, 3, 1)


class TestKLConstant:
    def test_factors(self):
        assert KLConstant.PAPER.denominator_factor == 2.0
        assert KLConstant.EXACT.denominator_factor == 4.0


class TestGradientNormConstant:
    def test_reference_values(self):
        vals = {
            "lecun": 52.5,
            "he": 210.0,
            "ntk": 1010.0,
            "xavier": 18.496849684968497,
        }
        for scheme, want in vals.items():
            B = gradient_norm_constant_B(ARCH, init_betas(scheme, ARCH))
            assert B == pytest.approx(want, rel=1e-12), scheme

    @pytest.mark.parametrize("scheme", SCHEME_NAMES)
    @pytest.mark.parametrize("d,m,L,o", [(4, 8, 2, 1), (16, 64, 3, 3), (4, 64, 6, 3)])
    def test_table_matches_generic(self, scheme, d, m, L, o):
        arch = NetArch.uniform(d, m, L, o)
        generic = gradient_norm_constant_B(arch, init_betas(scheme, arch))
        closed = table_closed_form_B(scheme, d, m, L, o)
        assert closed == pytest.approx(generic, rel=1e-12)

    def test_non_uniform_widths_supported(self):
        arch = NetArch(d=4, hidden=(8, 16), o=2)
        betas = init_betas("he", arch)
        prod = (betas[0] * 8 / 2.0) * (betas[1] * 16 / 2.0)
        ssum = sum(betas[-1] / b for b in betas)
        assert gradient_norm_constant_B(arch, betas) == pytest.approx(4 * 2 * prod * ssum)

    def test_beta_validation(self):
        with pytest.raises(ValueError):
            gradient_norm_constant_B(ARCH, (1.0, 1.0))
        with pytest.raises(ValueError):
            gradient_norm_constant_B(ARCH, (1.0, 0.0, 1.0))
        with pytest.raises(ValueError):
            table_closed_form_B("lecun", 4, 8, 1, 1)


class TestInitMoments:
    def test_grad_norm_equals_B_at_input_norm_d(self):
        for scheme in SCHEME_NAMES:
            betas = init_betas(scheme, ARCH)
            B = gradient_norm_constant_B(ARCH, betas)
            got = expected_grad_norm_init(ARCH, betas, float(ARCH.d))
            assert got == pytest.approx(B, rel=1e-12)

    def test_grad_norm_linear_in_input_sqnorm(self):
        betas = init_betas("he", ARCH)
        one = expected_grad_norm_init(ARCH, betas, 1.0)
        assert expected_grad_norm_init(ARCH, betas, 7.0) == pytest.approx(7.0 * one)
        assert expected_grad_norm_init(ARCH, betas, 0.0) == 0.0

    def test_output_moment_two_layer_closed_form(self):
        # L=2, o=1, betas (1/d, 1/m): second moment = ||x||^2 / (2 d)
        d, m = 6, 11
        arch = NetArch.uniform(d, m, 2, 1)
        got = expected_output_sqnorm_init(arch, (1.0 / d, 1.0 / m), 5.0)
        assert got == pytest.approx(5.0 / (2.0 * d), rel=1e-12)

    def test_output_moment_zero_cases(self):
        betas = init_betas("ntk", ARCH)
        assert expected_output_sqnorm_init(ARCH, betas, 0.0) == 0.0
        assert expected_output_sqnorm_init(ARCH, (0.0, 0.0, 0.0), 3.0) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            expected_grad_norm_init(ARCH, init_betas("he", ARCH), -1.0)
        with pytest.raises(ValueError):
            expected_grad_norm_init(ARCH, (0.0, 1.0, 1.0), 1.0)
        with pytest.raises(ValueError):
            expected_output_sqnorm_init(ARCH, (-1.0, 1.0, 1.0), 1.0)


class TestKlBoundLinearized:
    def test_reference_value(self):
        assert kl_bound_linearized(52.5, 1.0, 100, 0.01) == pytest.approx(1.05, rel=1e-12)

    def test_zero_horizon(self):
        assert kl_bound_linearized(52.5, 0.0, 100, 0.01) == 0.0

    def test_doubling_sigma2_halves(self):
        a = kl_bound_linearized(3.0, 2.0, 10, 0.5)
        b = kl_bound_linearized(3.0, 2.0, 10, 1.0)
        assert a == 2.0 * b

    def test_linearities(self):
        base = kl_bound_linearized(1.0, 1.0, 10, 1.0)
        assert kl_bound_linearized(3.0, 1.0, 10, 1.0) == pytest.approx(3.0 * base)
        assert kl_bound_linearized(1.0, 5.0, 10, 1.0) == pytest.approx(5.0 * base)
        assert kl_bound_linearized(1.0, 1.0, 20, 1.0) == pytest.approx(base / 4.0)

    def test_exact_convention_is_half(self):
        paper = kl_bound_linearized(2.0, 3.0, 5, 0.1, KLConstant.PAPER)
        exact = kl_bound_linearized(2.0, 3.0, 5, 0.1, KLConstant.EXACT)
        assert exact == pytest.approx(paper / 2.0, rel=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            kl_bound_linearized(1.0, 1.0, 10, 0.0)
        with pytest.raises(ValueError):
            kl_bound_linearized(-1.0, 1.0, 10, 1.0)
        with pytest.raises(ValueError):
            kl_bound_linearized(1.0, 1.0, 0, 1.0)


def _inputs(**kw):
    base = dict(T=1.0, n=10, sigma2=0.01, beta_smooth=0.5, c_grad=1.0,
                rank_mt=4, e_delta0=0.2, e_grad0=1.5)
    base.update(kw)
    return DnnBoundInputs(**base)


class TestDnnDriftBound:
    def test_zero_horizon_gives_zero(self):
        rep = dnn_drift_bound(_inputs(T=0.0))
        assert rep.value == 0.0
        assert rep.integral == 0.0
        assert all(v == 0.0 for v in rep.terms.values())
        assert not rep.exponential_regime

    def test_zero_smoothness_closed_form(self):
        # beta = 0, c = 1, n = 10, T = 2, e_delta0 = 0.5: integral = 2.04
        rep = dnn_drift_bound(_inputs(T=2.0, beta_smooth=0.0, c_grad=1.0,
                                      e_delta0=0.5, sigma2=0.5))
        assert rep.integral == pytest.approx(2.04, rel=1e-15)
        assert rep.terms["fluctuation"] == 0.0
        assert rep.value == pytest.approx(2.04 / (2.0 * 0.5), rel=1e-15)

    def test_fluctuation_reference_value(self):
        # beta=1, T=0.1, n=1, c=0, e_grad0=1: (2/3) ((e^0.3 - 1)/3 - 0.1)
        rep = dnn_drift_bound(_inputs(T=0.1, n=1, sigma2=0.0, beta_smooth=1.0,
                                      c_grad=0.0, rank_mt=0, e_delta0=0.0,
                                      e_grad0=1.0))
        want = (2.0 / 3.0) * (math.expm1(0.3) / 3.0 - 0.1)
        assert rep.terms["fluctuation"] == pytest.approx(want, rel=1e-15)
        assert rep.terms["fluctuation"] == pytest.approx(0.0110797, rel=1e-5)

    def test_small_t_slope(self):
        T = 1e-8
        inp = _inputs(T=T)
        rep = dnn_drift_bound(inp)
        slope = rep.integral / T
        want = 2.0 * inp.e_delta0 + 2.0 * inp.c_grad ** 2 / inp.n ** 2
        assert slope == pytest.approx(want, rel=1e-6)

    def test_overflow_guard(self):
        rep = dnn_drift_bound(_inputs(T=400.0, beta_smooth=1.0))
        assert rep.exponential_regime
        assert rep.value == math.inf
        assert rep.integral == math.inf
        assert math.isinf(rep.terms["fluctuation"])
        assert math.isfinite(rep.terms["init_difference"])

    def test_zero_noise_positive_integral_is_infinite_kl(self):
        rep = dnn_drift_bound(_inputs(sigma2=0.0))
        assert rep.integral > 0
        assert rep.value == math.inf
        assert not rep.exponential_regime

    def test_exact_convention_halves_value(self):
        paper = dnn_drift_bound(_inputs(), KLConstant.PAPER)
        exact = dnn_drift_bound(_inputs(), KLConstant.EXACT)
        assert exact.value == pytest.approx(paper.value / 2.0, rel=1e-15)
        assert exact.integral == paper.integral

    @pytest.mark.parametrize("field,delta", [
        ("T", 0.5), ("c_grad", 0.5), ("beta_smooth", 0.5),
        ("e_delta0", 0.5), ("e_grad0", 0.5), ("rank_mt", 2), ("sigma2", 0.5),
    ])
    def test_integral_monotone_in_each_input(self, field, delta):
        base = _inputs()
        lo = dnn_drift_bound(base).integral
        hi = dnn_drift_bound(_inputs(**{field: getattr(base, field) + delta})).integral
        assert hi >= lo

    def test_validation(self):
        with pytest.raises(ValueError):
            _inputs(T=-1.0)
        with pytest.raises(ValueError):
            _inputs(n=0)
        with pytest.raises(ValueError):
            _inputs(e_delta0=-0.1)


class TestLazyRBound:
    def test_lecun_reference_value(self):
        arch = NetArch.uniform(100, 100, 3, 1)
        got = lazy_R_bound(arch, init_betas("lecun", arch), 100)
        assert got == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_zero_n(self):
        assert lazy_R_bound(ARCH, init_betas("he", ARCH), 0) == 0.0

    def test_linear_in_n(self):
        betas = init_betas("he", ARCH)
        one = lazy_R_bound(ARCH, betas, 1)
        assert lazy_R_bound(ARCH, betas, 17) == pytest.approx(17.0 * one, rel=1e-12)

    def test_validation(self):
        multi = NetArch.uniform(4, 8, 2, 3)
        with pytest.raises(ValueError):
            lazy_R_bound(multi, init_betas("he", multi), 4)
        with pytest.raises(ValueError):
            lazy_R_bound(ARCH, init_betas("he", ARCH), -1)


class TestAveragedIterateRiskBound:
    # its value is checked against tradeoff_schedule in test_c10
    def test_validation(self):
        with pytest.raises(ValueError):
            averaged_iterate_risk_bound(0.1, 1.0, 0.0, 0.1, 1)
        with pytest.raises(ValueError):
            averaged_iterate_risk_bound(0.1, -1.0, 1.0, 0.1, 1)
        with pytest.raises(ValueError):
            averaged_iterate_risk_bound(0.1, 1.0, 1.0, -0.1, 1)
        with pytest.raises(ValueError):
            averaged_iterate_risk_bound(0.1, 1.0, 1.0, 0.1, -1)


class TestTradeoffSchedule:
    def test_unit_inputs(self):
        s = tradeoff_schedule(1.0, 1.0, 1.0, 1)
        assert s.T == pytest.approx(0.7071068, rel=1e-6)
        assert s.sigma2 == pytest.approx(1.4142136, rel=1e-6)
        assert s.risk_bound == pytest.approx(2.4142136, rel=1e-6)

    def test_integer_example(self):
        s = tradeoff_schedule(2.0, 8.0, 0.5, 4)
        assert s.T == pytest.approx(2.0, rel=1e-12)
        assert s.sigma2 == pytest.approx(1.0, rel=1e-12)
        assert s.risk_bound == pytest.approx(4.0625, rel=1e-12)
        assert 8.0 / (2.0 * s.T) == pytest.approx(2.0 * s.T / (0.5 * 4), rel=1e-12)

    def test_kl_at_schedule_equals_eps(self):
        gen = RngStream(77).generator()
        for _ in range(100):
            B, R, eps = np.exp(gen.uniform(-3, 3, size=3))
            n = int(gen.integers(1, 1000))
            s = tradeoff_schedule(float(B), float(R), float(eps), n)
            kl = kl_bound_linearized(float(B), s.T, n, s.sigma2)
            assert kl == pytest.approx(float(eps), rel=1e-12)
            # first-order condition: the two risk terms coincide
            assert R / (2.0 * s.T) == pytest.approx(B * s.T / (eps * n), rel=1e-12)
            want = 1.0 / n ** 2 + math.sqrt(2.0 * B * R / (eps * n))
            assert s.risk_bound == pytest.approx(want, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            tradeoff_schedule(0.0, 1.0, 1.0, 1)
        with pytest.raises(ValueError):
            tradeoff_schedule(1.0, 1.0, 0.0, 1)
        with pytest.raises(ValueError):
            tradeoff_schedule(1.0, 1.0, 1.0, 0)


class TestPinsker:
    def test_reference_values(self):
        assert kl_to_dp_delta(0.0) == 0.0
        assert kl_to_dp_delta(2.0) == pytest.approx(1.0, rel=1e-15)
        assert kl_to_dp_delta(0.02) == pytest.approx(0.1, rel=1e-12)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            kl_to_dp_delta(-0.1)


# each function with NaN in one argument, which every comparison-based check
# passes and every formula turns into a NaN result
_NAN_CASES = [
    (kl_bound_linearized, dict(B=1.0, T=1.0, n=10, sigma2=0.01), ("B", "T", "sigma2")),
    (averaged_iterate_risk_bound, dict(loss_star=0.1, R=1.0, T=1.0, sigma2=0.01, rank=4),
     ("loss_star", "R", "T", "sigma2")),
    (tradeoff_schedule, dict(B=1.0, R=1.0, eps=1.0, n=10), ("B", "R", "eps")),
    (kl_to_dp_delta, dict(eps_kl=1.0), ("eps_kl",)),
    (expected_grad_norm_init, dict(arch=ARCH, betas="he", x_sqnorm=1.0), ("x_sqnorm",)),
    (expected_output_sqnorm_init, dict(arch=ARCH, betas="he", x_sqnorm=1.0), ("x_sqnorm",)),
    (DnnBoundInputs, dict(T=1.0, n=10, sigma2=0.01, beta_smooth=0.5, c_grad=1.0, rank_mt=4,
                          e_delta0=0.2, e_grad0=1.5),
     ("T", "sigma2", "beta_smooth", "c_grad", "e_delta0", "e_grad0")),
]


@pytest.mark.parametrize("fn, base, name", [
    pytest.param(fn, base, name, id=f"{fn.__name__}-{name}")
    for fn, base, names in _NAN_CASES for name in names])
def test_nan_rejected(fn, base, name):
    fn(**base)      # the other arguments are valid
    with pytest.raises(ValueError):
        fn(**{**base, name: math.nan})
