import numpy as np
import pytest

from auctionmetrics.auction_sim import AuctionModel, simulate_fp
from auctionmetrics.dist_core import PiecewiseCdf, kolmogorov, uniform_cdf
from auctionmetrics.errors import ValidationError
from auctionmetrics.fp_value import (
    ValueEstimatorConfig,
    best_response,
    calibration_constants,
    empirical_utility,
    estimate_value_cdf_effective,
    estimate_value_cdf_full,
    lipschitz_estimate,
    product_staircase,
)


def fine_uniform_staircase(m=2001):
    grid = np.linspace(0, 1, m)
    return PiecewiseCdf(grid, grid, interpolation="step", is_full_cdf=True)


def test_config_validation():
    with pytest.raises(ValidationError):
        ValueEstimatorConfig(p=0.2, gamma=0.0, eps=0.1, zeta=1.0)
    with pytest.raises(ValidationError):
        ValueEstimatorConfig(p=0.2, gamma=0.1, eps=0.1, zeta=-1.0)
    cfg = ValueEstimatorConfig(p=0.2, gamma=0.1, eps=0.1, zeta=1.0)
    assert cfg.v_grid_step == 0.005  # min(eps/4, 0.005)


def test_calibration_constants_lipschitz_case():
    cfg = ValueEstimatorConfig(p=0.2, gamma=0.5, eps=0.1, zeta=2.0, lipschitz=2.0)
    eps1, eps0 = calibration_constants(cfg, k=2)
    assert eps1 == pytest.approx(0.025)
    assert eps0 == pytest.approx(0.025 ** 3 * 0.5 ** 3 / (32 * 4 * 4))


def test_calibration_constants_general_case_uses_margin():
    cfg = ValueEstimatorConfig(p=0.2, gamma=0.5, eps=0.1, zeta=1.0, d=0.03)
    eps1, _ = calibration_constants(cfg, k=2)
    assert eps1 == 0.03


def test_product_staircase_of_two():
    F2 = PiecewiseCdf([0.2, 0.6], [0.5, 1.0])
    F3 = PiecewiseCdf([0.4, 0.8], [0.25, 1.0])
    prod = product_staircase([uniform_cdf(), F2, F3], 1)
    assert prod.eval(0.3) == pytest.approx(0.5 * 0.0)
    assert prod.eval(0.5) == pytest.approx(0.5 * 0.25)
    assert prod.eval(0.7) == pytest.approx(1.0 * 0.25)
    assert prod.eval(0.9) == pytest.approx(1.0)


def test_empirical_utility_matches_product():
    F2 = PiecewiseCdf([0.5], [1.0])
    fhats = [uniform_cdf(), F2]
    assert empirical_utility(fhats, 1, 0.8, 0.5) == pytest.approx(0.3 * 1.0)
    assert empirical_utility(fhats, 1, 0.8, 0.4) == 0.0


def test_best_response_calculus_oracle():
    # k=2, other bidder ~ uniform staircase: utility (v-b)*b maximized at v/2
    fhats = [fine_uniform_staircase(), fine_uniform_staircase()]
    for v in (0.3, 0.5, 0.8, 1.0):
        b = best_response(fhats, 1, v)
        assert b == pytest.approx(v / 2, abs=1e-3)


def test_best_response_power_law_oracle():
    # other bidder F(b) = b^2: maximize (v-b)b^2 -> b = 2v/3
    grid = np.linspace(0, 1, 4001)
    F2 = PiecewiseCdf(grid, grid ** 2, interpolation="step", is_full_cdf=True)
    fhats = [fine_uniform_staircase(), F2]
    for v in (0.4, 0.7, 1.0):
        assert best_response(fhats, 1, v) == pytest.approx(2 * v / 3, abs=1e-3)


def test_best_response_tie_goes_to_smallest_bid():
    # flat product: any b gives (v-b)*c decreasing in b -> picks the interval's low end
    F2 = PiecewiseCdf([0.0], [1.0])
    assert best_response([fine_uniform_staircase(), F2], 1, 0.5, lo=0.1) == 0.1


def test_value_estimation_recovers_uniform_values():
    # symmetric uniform values, equilibrium bids beta(v) = v/2, so bids are
    # uniform on [0, 0.5]
    half = PiecewiseCdf([0.0, 0.5], [0.0, 1.0], interpolation="linear")
    m = AuctionModel(bid_dists=[half, half])
    s = simulate_fp(m, 100000, 17)
    cfg = ValueEstimatorConfig(p=0.2, gamma=0.04, eps=0.1, zeta=1.0, lipschitz=1.0)
    cdfs, diag = estimate_value_cdf_effective(s, cfg)
    err = kolmogorov(cdfs[0], uniform_cdf(), 0.3, 1.0)
    assert err <= 0.05
    assert diag["eps0_used"] > 0
    assert len(diag["isotonic_repairs"]) == 2


def test_value_estimates_are_monotone_staircases():
    half = PiecewiseCdf([0.0, 0.5], [0.0, 1.0], interpolation="linear")
    m = AuctionModel(bid_dists=[half, half])
    s = simulate_fp(m, 20000, 23)
    cfg = ValueEstimatorConfig(p=0.2, gamma=0.04, eps=0.1, zeta=1.0)
    cdfs, _ = estimate_value_cdf_effective(s, cfg)
    for F in cdfs:
        assert np.all(np.diff(F.values) >= 0)
        assert F.breakpoints[0] == pytest.approx(0.2)


def test_full_support_value_general_case_parameters():
    half = PiecewiseCdf([0.0, 0.5], [0.0, 1.0], interpolation="linear")
    m = AuctionModel(bid_dists=[half, half])
    s = simulate_fp(m, 5000, 29)
    cdfs, diag = estimate_value_cdf_full(s, lam=1.0, eps=0.4, zeta=1.0)
    assert len(cdfs) == 2
    # general case: eps1 equals the interior margin d = 3*eta/11
    assert diag["eps1_used"] == pytest.approx(3 * 0.2 / 11)


def test_lipschitz_estimate_exact_on_linear():
    # linear CDF with slope 2 on [0, 0.5]: secant at any separation is 2
    grid = np.linspace(0, 0.5, 1001)
    F = PiecewiseCdf(grid, 2 * grid, interpolation="step", is_full_cdf=True)
    Lhat = lipschitz_estimate(F, eps0=0.1, eps=0.0)
    assert Lhat == pytest.approx(2.0, abs=0.02)


def test_lipschitz_estimate_dominates_with_noise_allowance():
    F = fine_uniform_staircase()
    Lhat = lipschitz_estimate(F, eps0=0.05, eps=0.01)
    assert Lhat >= 1.0
    assert Lhat == pytest.approx(1.0 + 2 * 0.01 / 0.05, abs=0.02)


def test_lipschitz_estimate_rejects_bad_eps0():
    with pytest.raises(ValidationError):
        lipschitz_estimate(fine_uniform_staircase(), eps0=0.0, eps=0.1)
