"""Acceptance suite: one criterion per test, one printed pass/fail line each.

The verdict lines are written to the real stdout so they survive pytest's
output capture. Every test also enforces its own wall-clock budget, so a pass
certifies both correctness and desk-scale runtime.
"""

import math
import sys
import time

import numpy as np

from klpriv import (
    DnnBoundInputs,
    DnnModel,
    KLConstant,
    LossKind,
    Neighbor,
    NetArch,
    ParamVector,
    RngStream,
    TrainConfig,
    build_features,
    dnn_drift_bound,
    enumerate_neighbors,
    finite_diff_gradient,
    forward_batch,
    gradient_norm_constant_B,
    gram_analysis,
    init_betas,
    kl_bound_linearized,
    lazy_solution,
    lin_empirical_loss,
    lin_forward,
    mc_grad_norm_at_init,
    mc_linearized_grad_diff,
    mc_output_sqnorm,
    neighbor_grad_diffs,
    per_example_grad_batch,
    run_kl_estimation,
    run_streams,
    sample_init,
    synth_sphere,
    table_closed_form_B,
    tradeoff_schedule,
)
from klpriv.estimator import _noisy_gd
from klpriv.linearized import lin_grad_sum
from klpriv.network import loss_batch

SCHEMES = ("lecun", "he", "ntk", "xavier")


def _verdict(num: int, label: str, started: float, budget: float, ok: bool,
             detail: str) -> None:
    elapsed = time.perf_counter() - started
    status = "PASS" if ok and elapsed < budget else "FAIL"
    line = (f"[acceptance] {num:02d} {label}: {status} "
            f"({elapsed:.2f}s/{budget:g}s) {detail}")
    print(line, file=sys.__stdout__)
    assert ok and elapsed < budget, line


def _sphere_point(d: int, sqnorm: float, rng: RngStream) -> np.ndarray:
    x = rng.generator().standard_normal(d)
    return x * math.sqrt(sqnorm) / float(np.linalg.norm(x))


def test_c01_table_closed_forms_match_generic_constant():
    t0 = time.perf_counter()
    worst = 0.0
    for scheme in SCHEMES:
        for d in (4, 16):
            for m in (8, 64):
                for L in (2, 3, 6):
                    for o in (1, 3):
                        arch = NetArch.uniform(d, m, L, o)
                        got = gradient_norm_constant_B(arch, init_betas(scheme, arch))
                        want = table_closed_form_B(scheme, d, m, L, o)
                        worst = max(worst, abs(got - want) / want)
    _verdict(1, "table closed forms", t0, 1.0, worst <= 1e-12,
             f"max rel err {worst:.2e}")


def test_c02_mc_gradient_norm_matches_moment_formula():
    t0 = time.perf_counter()
    arch = NetArch.uniform(8, 32, 4, 3)
    x = _sphere_point(8, 8.0, RngStream(2).child(100))
    base = RngStream(2)
    zs = []
    for si, scheme in enumerate(SCHEMES):
        rep = mc_grad_norm_at_init(arch, scheme, x, 4000, base.child(si))
        zs.append(rep.z_score)
    worst = max(abs(z) for z in zs)
    _verdict(2, "mc gradient norm at init", t0, 120.0, worst <= 4.0,
             "z scores " + ", ".join(f"{s}={z:+.2f}" for s, z in zip(SCHEMES, zs)))


def test_c03_mc_output_norm_matches_moment_formula():
    t0 = time.perf_counter()
    arch = NetArch.uniform(8, 32, 4, 1)
    x = _sphere_point(8, 8.0, RngStream(3).child(100))
    base = RngStream(3)
    zs = []
    for si, scheme in enumerate(SCHEMES):
        rep = mc_output_sqnorm(arch, scheme, x, 4000, base.child(si))
        zs.append(rep.z_score)
    worst = max(abs(z) for z in zs)
    _verdict(3, "mc output norm at init", t0, 60.0, worst <= 4.0,
             "z scores " + ", ".join(f"{s}={z:+.2f}" for s, z in zip(SCHEMES, zs)))


def _min_abs_preactivation(params: ParamVector, x: np.ndarray) -> float:
    h = x
    smallest = math.inf
    L = len(params.arch.hidden) + 1
    for l in range(1, L + 1):
        z = params.layer(l) @ h
        smallest = min(smallest, float(np.min(np.abs(z))))
        h = np.maximum(z, 0.0) if l < L else z
    return smallest


def test_c04_backprop_matches_central_finite_differences():
    t0 = time.perf_counter()
    arch = NetArch.uniform(5, 7, 3, 2)
    params = sample_init(arch, init_betas("he", arch), RngStream(4).child(1))
    gen = RngStream(4).child(2).generator()
    worst = 0.0
    accepted = 0
    while accepted < 20:
        x = gen.standard_normal(5)
        if _min_abs_preactivation(params, x) < 1e-3:
            continue
        y = np.zeros(2)
        y[accepted % 2] = 1.0
        accepted += 1

        def f(flat, x=x, y=y):
            pv = ParamVector(arch, np.asarray(flat, dtype=float))
            return loss_batch(forward_batch(pv, x[None])[0], y[None],
                              LossKind.CROSS_ENTROPY_MULTI)[0]

        g = per_example_grad_batch(params, x[None], y[None], LossKind.CROSS_ENTROPY_MULTI)[0]
        fd = finite_diff_gradient(f, params.flat.copy())
        scale = max(float(np.max(np.abs(fd))), 1e-12)
        worst = max(worst, float(np.max(np.abs(g - fd))) / scale)
    _verdict(4, "backprop vs finite differences", t0, 5.0, worst <= 1e-5,
             f"max rel err {worst:.2e} over 20 inputs")


def test_c05_one_step_kl_matches_oracle_both_conventions():
    t0 = time.perf_counter()
    data = synth_sphere(8, 6, RngStream(5).child(0))
    arch = NetArch.uniform(6, 12, 2, 1)
    neighbors = enumerate_neighbors(data, Neighbor.REMOVE_ONE)
    model = DnnModel(arch, "lecun")
    rels = []
    for convention, factor in ((KLConstant.PAPER, 2.0), (KLConstant.EXACT, 4.0)):
        cfg = TrainConfig(eta=0.05, steps=1, sigma2=0.02, runs=1, seed=31,
                          kl_constant=convention)
        res = run_kl_estimation(model, data, neighbors, cfg)
        init_stream, _ = run_streams(cfg.seed, 0)
        W0 = sample_init(arch, init_betas("lecun", arch), init_stream)
        G = per_example_grad_batch(W0, data.X, data.Y, LossKind.LOGISTIC_SINGLE)
        diffs = neighbor_grad_diffs(G, notion=Neighbor.REMOVE_ONE)
        want = cfg.eta * float(diffs.max()) / (factor * cfg.sigma2)
        rels.append(abs(float(res.worst_mean[-1]) - want) / want)
    worst = max(rels)
    _verdict(5, "one-step kl oracle", t0, 1.0, worst <= 1e-15,
             f"paper rel {rels[0]:.1e}, exact rel {rels[1]:.1e}")


def test_c06_linearized_gradient_difference_bound():
    t0 = time.perf_counter()
    arch = NetArch.uniform(16, 64, 3, 1)
    xa = _sphere_point(16, 16.0, RngStream(6).child(0))
    xb = _sphere_point(16, 16.0, RngStream(6).child(1))
    rep = mc_linearized_grad_diff(arch, "lecun", (xa, 1.0), (xb, -1.0),
                                  n=32, samples=20, rng=RngStream(6).child(2))
    ok = not rep.violation and rep.mean <= 1.2 * rep.reference
    _verdict(6, "linearized replace-one bound", t0, 60.0, ok,
             f"mean {rep.mean:.3e} vs 1.2 * 4B/n^2 = {1.2 * rep.reference:.3e}")


def test_c07_lazy_solution_interpolates():
    t0 = time.perf_counter()
    n = 16
    data = synth_sphere(n, 64, RngStream(7).child(0))
    arch = NetArch.uniform(64, 128, 2, 1)
    W0 = sample_init(arch, init_betas("lecun", arch), RngStream(7).child(1))
    features = build_features(W0, data.X)
    sol = lazy_solution(features, data.Y, ridge=0.0)

    preds = np.asarray(lin_forward(features, sol.Wstar)).reshape(-1)
    targets = 2.0 * math.log(n) * data.Y
    rel_pred = float(np.max(np.abs(preds - targets) / np.abs(targets)))

    want_loss = math.log(1.0 + 1.0 / n ** 2)
    rel_loss = abs(sol.achieved_loss - want_loss) / want_loss
    below = sol.achieved_loss < 1.0 / n ** 2

    dW = sol.Wstar.flat - features.W0.flat
    rel_R = abs(sol.R - float(dW @ dW)) / sol.R

    ok = rel_pred <= 1e-6 and rel_loss <= 1e-9 and below and rel_R <= 1e-9
    _verdict(7, "lazy interpolating solution", t0, 30.0, ok,
             f"pred rel {rel_pred:.1e}, loss rel {rel_loss:.1e}, R rel {rel_R:.1e}")


def test_c08_averaged_iterate_risk_bound():
    t0 = time.perf_counter()
    n, d, m = 16, 32, 64
    eta, K, sigma2 = 0.05, 2000, 1e-4
    T = eta * K
    data = synth_sphere(n, d, RngStream(8).child(0))
    arch = NetArch.uniform(d, m, 2, 1)
    betas = init_betas("lecun", arch)
    excesses, bounds = [], []
    for seed_run in range(10):
        init_stream, noise_stream = run_streams(8, seed_run)
        W0 = sample_init(arch, betas, init_stream)
        features = build_features(W0, data.X)
        gram = gram_analysis(features)
        sol = lazy_solution(features, data.Y, ridge=0.0)

        def step(W):
            preds = lin_forward(features, ParamVector(arch, W.flat[0]))
            S = lin_grad_sum(features, preds, data.Y, LossKind.LOGISTIC_SINGLE)
            return np.ones(1, dtype=bool), (S / n)[None], None

        iterates = _noisy_gd(ParamVector(arch, W0.flat[None]), step, eta, sigma2,
                             noise_stream.keys(np.arange(K))[None])
        W_avg = ParamVector(arch, sum(W.flat[0] for _, W, _ in iterates) / K)
        avg_loss = lin_empirical_loss(features, W_avg, data.Y,
                                      LossKind.LOGISTIC_SINGLE)
        excesses.append(avg_loss - sol.achieved_loss)
        bounds.append(sol.achieved_loss + sol.R / (2.0 * T)
                      + sigma2 * gram.rank / 2.0)
    mean_excess = float(np.mean(excesses))
    mean_bound = float(np.mean(bounds))
    _verdict(8, "averaged-iterate risk bound", t0, 300.0,
             mean_excess <= 1.3 * mean_bound,
             f"mean excess {mean_excess:.4f} vs 1.3 * bound {1.3 * mean_bound:.4f}")


def test_c09_width_and_scheme_trends():
    t0 = time.perf_counter()
    n, d, depth, steps = 64, 32, 6, 200
    widths = (16, 64, 256)
    data = synth_sphere(n, d, RngStream(9).child(0))
    neighbors = enumerate_neighbors(data, Neighbor.REMOVE_ONE)
    traces = {}
    for scheme in SCHEMES:
        for m in widths:
            arch = NetArch.uniform(d, m, depth, 1)
            cfg = TrainConfig(eta=1e-3, steps=steps, sigma2=1e-2, runs=6,
                              seed=9, record_every=10)
            res = run_kl_estimation(DnnModel(arch, scheme), data, neighbors, cfg)
            traces[scheme, m] = (np.asarray(res.recorded_steps, dtype=int),
                                 np.asarray(res.worst_mean))
    problems = []
    for scheme in SCHEMES:
        finals = [traces[scheme, m][1][-1] for m in widths]
        if not (finals[0] < finals[1] < finals[2]):
            problems.append(f"{scheme} not width-monotone {finals}")
    for m in widths:
        epochs, he = traces["he", m]
        early = epochs <= 50
        for scheme in ("lecun", "xavier"):
            if not np.all(traces[scheme, m][1][early] < he[early]):
                problems.append(f"{scheme} !< he at width {m} within 50 steps")
    _verdict(9, "width and early-scheme ordering", t0, 600.0, not problems,
             "; ".join(problems) if problems else
             "12 cells, 6 runs each: both orderings hold on means")


def test_c10_tradeoff_schedule_identities():
    t0 = time.perf_counter()
    gen = RngStream(10).generator()
    worst = 0.0
    for _ in range(100):
        B = float(gen.uniform(0.1, 100.0))
        R = float(gen.uniform(0.1, 50.0))
        eps = float(gen.uniform(0.01, 10.0))
        n = int(gen.integers(1, 1000))
        sched = tradeoff_schedule(B, R, eps, n)
        kl = kl_bound_linearized(B, sched.T, n, sched.sigma2, KLConstant.PAPER)
        worst = max(worst, abs(kl - eps) / eps)
        opt_term = R / (2.0 * sched.T)
        worst = max(worst, abs(opt_term - B * sched.T / (eps * n)) / opt_term)
        want_risk = 1.0 / n ** 2 + math.sqrt(2.0 * B * R / (eps * n))
        worst = max(worst, abs(sched.risk_bound - want_risk) / want_risk)
    _verdict(10, "trade-off schedule identities", t0, 1.0, worst <= 1e-12,
             f"max rel err {worst:.2e} over 100 draws")


def test_c11_drift_bound_calculator():
    t0 = time.perf_counter()
    zero = dnn_drift_bound(DnnBoundInputs(T=0.0, n=10, sigma2=0.5,
                                          beta_smooth=1.0, c_grad=1.0,
                                          rank_mt=3, e_delta0=0.5, e_grad0=1.0))
    ok_zero = zero.value == 0.0 and zero.integral == 0.0

    flat = DnnBoundInputs(T=2.0, n=10, sigma2=0.5, beta_smooth=0.0, c_grad=1.0,
                          rank_mt=3, e_delta0=0.5, e_grad0=1.0)
    closed = 2.0 * flat.T * flat.e_delta0 + 2.0 * flat.c_grad ** 2 * flat.T / flat.n ** 2
    ok_flat = dnn_drift_bound(flat).integral == closed

    small = DnnBoundInputs(T=1e-8, n=10, sigma2=0.01, beta_smooth=0.5,
                           c_grad=1.0, rank_mt=4, e_delta0=0.2, e_grad0=1.5)
    slope = 2.0 * small.e_delta0 + 2.0 * small.c_grad ** 2 / small.n ** 2
    got = dnn_drift_bound(small).integral / small.T
    rel_slope = abs(got - slope) / slope

    ok = ok_zero and ok_flat and rel_slope <= 1e-6
    _verdict(11, "drift bound calculator", t0, 1.0, ok,
             f"T=0 {'ok' if ok_zero else 'BAD'}, beta=0 closed form "
             f"{'exact' if ok_flat else 'BAD'}, slope rel {rel_slope:.1e}")
