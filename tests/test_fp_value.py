import hashlib
import json

import numpy as np
import pytest

from auctionmetrics.auction_sim import AuctionModel, simulate_fp
from auctionmetrics.dist_core import PiecewiseCdf, kolmogorov, uniform_cdf
from auctionmetrics.errors import ValidationError
from auctionmetrics.fp_value import (
    ValueEstimatorConfig,
    best_response,
    calibration_constants,
    estimate_value_cdf_effective,
    estimate_value_cdf_full,
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


def test_best_response_calculus_oracle():
    # k=2, other bidder ~ uniform staircase: utility (v-b)*b maximized at v/2
    prod = fine_uniform_staircase()
    vs = (0.3, 0.5, 0.8, 1.0)
    for v in vs:
        b = best_response(prod, v)
        assert b == pytest.approx(v / 2, abs=1e-3)
    # an array of values gives the scalar answers, bit for bit
    assert best_response(prod, np.array(vs)).tolist() == [best_response(prod, v) for v in vs]


def test_best_response_power_law_oracle():
    # other bidder F(b) = b^2: maximize (v-b)b^2 -> b = 2v/3
    grid = np.linspace(0, 1, 4001)
    F2 = PiecewiseCdf(grid, grid ** 2, interpolation="step", is_full_cdf=True)
    for v in (0.4, 0.7, 1.0):
        assert best_response(F2, v) == pytest.approx(2 * v / 3, abs=1e-3)


def test_best_response_tie_goes_to_smallest_bid():
    # flat product: any b gives (v-b)*c decreasing in b -> picks the interval's low end
    F2 = PiecewiseCdf([0.0], [1.0])
    assert best_response(F2, 0.5, lo=0.1) == 0.1


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


def estimate_digest(cdfs, diagnostics):
    blob = json.dumps({"cdfs": [F.to_dict() for F in cdfs],
                       "diagnostics": diagnostics}, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def test_value_estimates_are_pinned_per_seed():
    # digests of the CDFs and diagnostics, taken before the estimator ran
    # its best responses through best_response; a change that moves any
    # candidate bid, tie, grid point, isotonic repair or rounding changes the
    # hash. Uniform values give bids uniform on [0, (k-1)/k].
    half = PiecewiseCdf([0.0, 0.5], [0.0, 1.0], interpolation="linear")
    two3 = PiecewiseCdf([0.0, 2 / 3], [0.0, 1.0], interpolation="linear")
    s = simulate_fp(AuctionModel(bid_dists=[half, half]), 20000, 31)
    lipschitz = ValueEstimatorConfig(p=0.2, gamma=0.04, eps=0.1, zeta=1.0, lipschitz=1.0)
    assert estimate_digest(*estimate_value_cdf_effective(s, lipschitz)) == (
        "a8c3ddd04ee467449dc52d893a33fe6822f71d5646d2d5dc1a2b1ccf6b763207")
    general = ValueEstimatorConfig(p=0.2, gamma=0.04, eps=0.1, zeta=1.0)
    assert estimate_digest(*estimate_value_cdf_effective(s, general)) == (
        "644d10bc7960265c05bbf3a8fee85e57b9406d2bf796e6288f76a20770fd1a77")
    s = simulate_fp(AuctionModel(bid_dists=[half, half]), 20000, 37)
    assert estimate_digest(*estimate_value_cdf_full(s, lam=1.0, eps=0.4, zeta=1.0)) == (
        "ad34138306ae8d79d7038bf4833b3c23cf7e9a58eac189d8a5e4f7f764a5d555")
    s = simulate_fp(AuctionModel(bid_dists=[two3] * 3), 20000, 41)
    k3 = ValueEstimatorConfig(p=0.3, gamma=0.05, eps=0.1, zeta=1.0, lipschitz=1.0)
    assert estimate_digest(*estimate_value_cdf_effective(s, k3)) == (
        "d61665128ea46b2a33bd1c8d268bf30277232b7a4d5b41a187604dde96165a86")


def test_full_support_value_general_case_parameters():
    half = PiecewiseCdf([0.0, 0.5], [0.0, 1.0], interpolation="linear")
    m = AuctionModel(bid_dists=[half, half])
    s = simulate_fp(m, 5000, 29)
    cdfs, diag = estimate_value_cdf_full(s, lam=1.0, eps=0.4, zeta=1.0)
    assert len(cdfs) == 2
    # general case: eps1 equals the interior margin d = 3*eta/11
    assert diag["eps1_used"] == pytest.approx(3 * 0.2 / 11)
