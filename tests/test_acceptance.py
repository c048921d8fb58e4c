"""End-to-end acceptance checks, one per headline property.

Each test is a scaled Monte-Carlo or exact-oracle check with an explicit
tolerance; seed roots are fixed so the pass/fail outcome is reproducible.
"""

import numpy as np
import pytest

from auctionmetrics.auction_sim import (
    AuctionModel,
    equilibrium_residual,
    lower_bound_fixture,
    make_fp_partial_oracle,
    make_sp_partial_oracle,
    simulate_fp,
    simulate_sp,
    solve_asymmetric_equilibrium,
)
from auctionmetrics.dist_core import (
    STEP,
    BoundedDensityModel,
    PiecewiseCdf,
    kolmogorov,
    levy,
    uniform_cdf,
    wasserstein1,
)
from auctionmetrics.fp_estimator import (
    estimate_bid_cdf_effective,
    estimate_bid_cdf_full,
    estimate_density,
    fp_partial_estimate,
)
from auctionmetrics.fp_value import estimate_value_cdf_effective
from auctionmetrics.harness import run_lower_bound_experiment
from auctionmetrics.sp_estimator import (
    FP_MAX_STEPS,
    FP_TOL,
    SpParams,
    _build_grid,
    estimate_sp,
    run_pipeline,
    sp_partial_estimate,
    sp_partial_pointwise,
)
from reference import CallableEval, population_bid_cdf
from test_sp_estimator import assert_state_in_box_and_monotone, column_contractions, sample_pieces

UNIFORM = uniform_cdf()


def uniform_model(k=2):
    return AuctionModel(bid_dists=[UNIFORM] * k)


def test_01_identification_identity_exact():
    # two uniform bidders: H(x) = x^2 with winner sub-density x; the
    # exponential identity must return the uniform CDF itself
    for x in np.arange(0.1, 0.95, 0.1):
        val = population_bid_cdf(lambda z: z * z, lambda z: z, float(x))
        assert val == pytest.approx(float(x), abs=1e-6)


def test_02_fp_effective_support_sup_error():
    # target sup error 0.05 on [0.3, 1] at n = 3e5, in at least 9/10 seeds
    m = uniform_model()
    grid = np.linspace(0.3, 1.0, 400)
    hits = 0
    for seed in range(10):
        cdfs, _ = estimate_bid_cdf_effective(simulate_fp(m, 300000, seed),
                                             p=0.3, gamma=0.09, eps=0.045)
        err = max(np.max(np.abs(F.eval(grid) - grid)) for F in cdfs)
        hits += err <= 0.05
    assert hits >= 9


def test_03_fp_full_support_wasserstein():
    # target Wasserstein-1 error 0.2 at n = 1e6, in at least 9/10 seeds
    m = uniform_model()
    hits = 0
    for seed in range(10):
        cdfs, _ = estimate_bid_cdf_full(simulate_fp(m, 10 ** 6, seed), 1.0, 0.2)
        err = max(wasserstein1(F, UNIFORM) for F in cdfs)
        hits += err <= 0.2
    assert hits >= 9


def test_04_density_l1_error_bounded_by_bandwidth():
    # exact quadratic CDF input: forward difference is 2x + h, so the L1
    # error on [0.1, 0.98] must stay below L*h = 0.04
    grid = np.linspace(0, 1, 8193)
    F = PiecewiseCdf(grid, grid ** 2, interpolation="linear")
    xs = np.linspace(0.1, 0.98, 4001)
    trapz = getattr(np, "trapezoid", None) or np.trapz
    l1 = float(trapz(np.abs(estimate_density(F, 0.02, xs) - 2 * xs), xs))
    assert l1 <= 0.04 + 1e-6


def test_05_value_estimation_recovers_uniform_values():
    # equilibrium bids beta(v) = v/2 for uniform values: target sup error
    # 0.1 on [0.3, 1] at n = 2e5, in at least 8/10 seeds
    half = PiecewiseCdf([0.0, 0.5], [0.0, 1.0], interpolation="linear")
    m = AuctionModel(bid_dists=[half, half])
    hits = 0
    for seed in range(10):
        cdfs, _ = estimate_value_cdf_effective(simulate_fp(m, 200000, seed), p=0.2,
                                               gamma=0.04, eps=0.1, zeta=1.0, lipschitz=1.0)
        err = kolmogorov(cdfs[0], UNIFORM, 0.3, 1.0)
        hits += err <= 0.1
    assert hits >= 8


def test_06_equilibrium_solver_inverse_bids_and_residual():
    uni = BoundedDensityModel(knots=[0.0, 1.0], density=[1.0, 1.0],
                              alpha_lo=1.0, eta_hi=1.0)
    for k in (2, 3):
        m = AuctionModel(bid_dists=[UNIFORM] * k, value_dists=[uni] * k)
        prof = solve_asymmetric_equilibrium(m)
        bs = np.linspace(0.05, prof.eta_eq * 0.95, 30)
        for i in range(1, k + 1):
            alpha_i = np.interp(bs, prof.grid, prof.alphas[i - 1])
            np.testing.assert_allclose(alpha_i, k * bs / (k - 1), atol=1e-3)
    tilted = BoundedDensityModel(knots=[0.0, 1.0], density=[0.6, 1.4],
                                 alpha_lo=0.5, eta_hi=2.0)
    m = AuctionModel(bid_dists=[UNIFORM] * 2, value_dists=[uni, tilted])
    prof = solve_asymmetric_equilibrium(m)
    bs = np.linspace(0.1 * prof.eta_eq, 0.9 * prof.eta_eq, 15)
    for i in (1, 2):
        assert np.max(np.abs(equilibrium_residual(prof, m, i, bs))) <= 1e-2


def bounded_pair():
    d1 = BoundedDensityModel(knots=[0.0, 1.0], density=[0.75, 1.25],
                             alpha_lo=0.5, eta_hi=2.0)
    d2 = BoundedDensityModel(knots=[0.0, 1.0], density=[1.25, 0.75],
                             alpha_lo=0.5, eta_hi=2.0)
    return d1, d2


def test_07_sp_measured_contraction_below_quarter():
    # 100 random state pairs per micro point, all contraction ratios of the
    # column maps the implicit scan solves <= 1/4, and every window settled
    d1, d2 = bounded_pair()
    m = AuctionModel(bid_dists=[d1.to_cdf(), d2.to_cdf()])
    s = simulate_sp(m, 10 ** 6, 101)
    _, ratios = column_contractions(s, 0.5, 2.0, 0.1, pairs=100, seed=11)
    assert 0.0 < ratios.max() <= 0.25
    _, diag = estimate_sp(s, 0.5, 2.0, 0.1)
    assert max(diag["fp_gaps"]) < FP_TOL and max(diag["fp_steps"]) < FP_MAX_STEPS


def test_08_sp_population_pipeline_sup_error():
    # exact winner sub-CDFs G_i(x) = x - x^2/2 and exact U*_i(x) = x for two
    # uniform bidders: recovered CDFs within 0.02 on [theta, 1-theta]
    ghat = [CallableEval(lambda x: x - 0.5 * np.asarray(x, dtype=float) ** 2)
            for _ in range(2)]
    coarse = [CallableEval(lambda x: np.asarray(x, dtype=float) * 1.0)
              for _ in range(2)]
    params = SpParams(alpha=1.0, eta=1.0, eps=0.02, theta=0.05, nu=0.025,
                      micro_delta=1e-3)
    cdfs, _ = run_pipeline(ghat, coarse, params)
    err = max(kolmogorov(F, UNIFORM, 0.05, 0.95) for F in cdfs)
    assert err <= 0.02


def test_09_sp_end_to_end_sup_error_and_diagnostics():
    # bounded densities in [0.5, 2]: full-range sup error 0.1 at n = 1e6 in
    # at least 8/10 seeds, with a fixed-point state in its box and
    # nondecreasing, and a small isotonic repair
    d1, d2 = bounded_pair()
    m = AuctionModel(bid_dists=[d1.to_cdf(), d2.to_cdf()])
    truths = [m.bid_cdf(1), m.bid_cdf(2)]
    hits = 0
    for seed in range(10):
        s = simulate_sp(m, 10 ** 6, seed)
        cdfs, diag = estimate_sp(s, 0.5, 2.0, 0.1)
        err = max(kolmogorov(F, T, 0.0, 1.0) for F, T in zip(cdfs, truths))
        params = SpParams(**diag["params"])
        assert_state_in_box_and_monotone(_build_grid(*sample_pieces(s, params), params)[0],
                                         params)
        assert diag["isotonic_repair_total"] <= 0.02
        hits += err <= 0.1
    assert hits >= 8


def test_10_lower_bound_indistinguishability():
    result = run_lower_bound_experiment(k=3, eps=0.1, lam=0.2, n=1000, trials=50)
    assert result["kolmogorov_f1_f1p"] >= 0.5
    # informative samples (Y <= eps) arrive at rate ~ n*(lam*eps)^(k-1);
    # the observed mean count must sit within 3 sigma of that scale
    expected = 1000 * (0.2 * 0.1) ** 2
    sigma_mean = np.sqrt(expected / 50)
    assert abs(result["mean_low_count"] - expected) <= 3 * sigma_mean
    # conditioned on the uninformative event, the two sample sets pass a
    # two-sample KS test at least 90% of the time
    assert result["ks_below_threshold"] >= 45


def test_11_fp_partial_observation_sup_error():
    oracle = make_fp_partial_oracle(uniform_model())
    grid = np.linspace(0.5, 1.0, 300)
    hits = 0
    for seed in range(10):
        cdfs, diag = fp_partial_estimate(oracle, p=0.5, gamma=0.25,
                                         eps=0.15, seed=seed)
        err = max(np.max(np.abs(F.eval(grid) - grid)) for F in cdfs)
        hits += err <= 0.15
        assert diag["oracle_calls"] > 0
    assert hits >= 9


def test_12_sp_partial_observation():
    oracle = make_sp_partial_oracle(uniform_model())
    # the count row of 10^5 probes at reserve 0.8, as shares
    counts = oracle(np.array([0.8]), 10 ** 5, np.random.default_rng(7))
    fhat, _ = sp_partial_pointwise(counts / 10 ** 5)
    assert abs(fhat[0, 0] - 0.8) <= 0.03
    grid = np.linspace(0.5, 1.0, 300)
    hits = 0
    for seed in range(10):
        cdfs, _ = sp_partial_estimate(oracle, p=0.5, gamma=0.5, eps=0.1,
                                      seed=seed)
        err = max(np.max(np.abs(F.eval(grid) - grid)) for F in cdfs)
        hits += err <= 0.1
    assert hits >= 9


def test_13_metric_chain_on_random_staircases():
    rng = np.random.default_rng(0)
    for _ in range(200):
        pair = []
        for _ in range(2):
            bp = np.unique(np.round(np.sort(rng.random(rng.integers(1, 8))), 6))
            vals = np.sort(rng.random(bp.size))
            vals[-1] = 1.0
            pair.append(PiecewiseCdf(bp, vals, interpolation=STEP,
                                     is_full_cdf=True))
        F, G = pair
        lv = levy(F, G)
        assert lv <= kolmogorov(F, G) + 1e-9
        assert lv <= np.sqrt(wasserstein1(F, G)) + 1e-9
