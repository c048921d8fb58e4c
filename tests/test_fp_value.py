import hashlib
import json
import math

import numpy as np
import pytest

from auctionmetrics.auction_sim import AuctionModel, simulate_fp
from auctionmetrics.dist_core import PiecewiseCdf, kolmogorov, uniform_cdf
from auctionmetrics.errors import ValidationError
from auctionmetrics.fp_value import (
    ValueEstimatorConfig,
    best_response,
    estimate_value_cdf_effective,
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


@pytest.mark.parametrize("key, value", [("zeta", math.nan), ("zeta", math.inf),
                                        ("lipschitz", math.inf)])
def test_config_rejects_a_zeta_or_lipschitz_that_is_not_finite_and_positive(key, value):
    # the registry refuses these at the CLI; the config refuses them for
    # Python callers
    args = {"p": 0.2, "gamma": 0.1, "eps": 0.1, "zeta": 1.0, key: value}
    with pytest.raises(ValidationError, match=key):
        ValueEstimatorConfig(**args)


@pytest.mark.parametrize("key", ["p", "gamma", "eps", "zeta", "lipschitz"])
def test_config_rejects_a_field_that_is_not_a_number(key):
    # a bare TypeError from the range comparisons before
    args = {"p": 0.2, "gamma": 0.1, "eps": 0.1, "zeta": 1.0, key: "1"}
    with pytest.raises(ValidationError, match=f"{key} must be a number, not str"):
        ValueEstimatorConfig(**args)
    if key != "lipschitz":
        with pytest.raises(ValidationError, match=f"{key} must be a number, not NoneType"):
            ValueEstimatorConfig(**{**args, key: None})


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
    # lipschitz moves nothing: the two configs give one digest
    lipschitz = ValueEstimatorConfig(p=0.2, gamma=0.04, eps=0.1, zeta=1.0, lipschitz=1.0)
    assert estimate_digest(*estimate_value_cdf_effective(s, lipschitz)) == (
        "ef36dfe3345cac7c2dd3743a300e421f26db8e2f10a017bc73618ce0d1b8adad")
    general = ValueEstimatorConfig(p=0.2, gamma=0.04, eps=0.1, zeta=1.0)
    assert estimate_digest(*estimate_value_cdf_effective(s, general)) == (
        "ef36dfe3345cac7c2dd3743a300e421f26db8e2f10a017bc73618ce0d1b8adad")
    # the full-support reduction's general case at lambda 1, eps 0.4 (eta 0.2):
    # p = 8*eta/11 and gamma = p^k
    s = simulate_fp(AuctionModel(bid_dists=[half, half]), 20000, 37)
    p = 8.0 * 0.2 / 11.0
    full = ValueEstimatorConfig(p=p, gamma=p ** 2, eps=0.4, zeta=1.0)
    assert estimate_digest(*estimate_value_cdf_effective(s, full)) == (
        "a14a6aecf31123b63a6285e45d7f94ce0802404bfeea5b6fed8fa698f089e225")
    s = simulate_fp(AuctionModel(bid_dists=[two3] * 3), 20000, 41)
    k3 = ValueEstimatorConfig(p=0.3, gamma=0.05, eps=0.1, zeta=1.0, lipschitz=1.0)
    assert estimate_digest(*estimate_value_cdf_effective(s, k3)) == (
        "30b1d7a626829b45f1bf062f4b048e7bad98a53e100812962c3b407e7f472af4")
