import hashlib
import json
import math

import numpy as np
import pytest

from auctionmetrics import fp_value
from auctionmetrics.auction_sim import AuctionModel, SampleSet, simulate_fp
from auctionmetrics.dist_core import BoundedDensityModel, PiecewiseCdf, kolmogorov, uniform_cdf
from auctionmetrics.errors import ValidationError
from auctionmetrics.fp_value import best_response, estimate_value_cdf_effective


def fine_uniform_staircase(m=2001):
    grid = np.linspace(0, 1, m)
    return PiecewiseCdf(grid, grid, interpolation="step", is_full_cdf=True)


def small_log():
    half = PiecewiseCdf([0.0, 0.5], [0.0, 1.0], interpolation="linear")
    return simulate_fp(AuctionModel(bid_dists=[half, half]), 200, 1)


def test_config_validation():
    with pytest.raises(ValidationError):
        estimate_value_cdf_effective(small_log(), p=0.2, gamma=0.0, eps=0.1, zeta=1.0)
    with pytest.raises(ValidationError):
        estimate_value_cdf_effective(small_log(), p=0.2, gamma=0.1, eps=0.1, zeta=-1.0)
    for eps, step in ((0.1, 0.005), (0.01, 0.0025)):
        _, diag = estimate_value_cdf_effective(small_log(), p=0.2, gamma=0.1, eps=eps, zeta=1.0)
        assert diag["grid_step"] == step


@pytest.mark.parametrize("key, value", [("zeta", math.nan), ("zeta", math.inf),
                                        ("lipschitz", math.inf)])
def test_config_rejects_a_zeta_or_lipschitz_that_is_not_finite_and_positive(key, value):
    # the registry refuses these at the CLI; the estimator refuses them for
    # Python callers
    args = {"p": 0.2, "gamma": 0.1, "eps": 0.1, "zeta": 1.0, key: value}
    with pytest.raises(ValidationError, match=key):
        estimate_value_cdf_effective(small_log(), **args)


@pytest.mark.parametrize("key", ["p", "gamma", "eps", "zeta", "lipschitz"])
def test_config_rejects_a_field_that_is_not_a_number(key):
    # a bare TypeError from the range comparisons before; a lipschitz of
    # None is the general case
    args = {"p": 0.2, "gamma": 0.1, "eps": 0.1, "zeta": 1.0, key: "1"}
    with pytest.raises(ValidationError, match=f"{key} must be a number, not str"):
        estimate_value_cdf_effective(small_log(), **args)
    if key != "lipschitz":
        with pytest.raises(ValidationError, match=f"{key} must be a number, not NoneType"):
            estimate_value_cdf_effective(small_log(), **{**args, key: None})


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


def reference_best_response(prod, v, lo=0.0, hi=1.0):
    """The per-value scan ``best_response`` replaced: for each value x in
    turn, the first argmax of (x - b) * prod(b) over every candidate."""
    bp = prod.breakpoints
    cand = np.union1d(bp[(bp >= lo) & (bp <= hi)], [lo, hi])
    pv = prod.eval(cand)
    v = np.asarray(v, dtype=np.float64)
    out = cand[[int(np.argmax((x - cand) * pv)) for x in np.atleast_1d(v)]]
    return float(out[0]) if v.ndim == 0 else out


def tied_values(prod, v, lo, hi):
    """How many of the values ``v`` have a utility maximum that two candidates share."""
    bp = prod.breakpoints
    cand = np.union1d(bp[(bp >= lo) & (bp <= hi)], [lo, hi])
    utility = (np.asarray(v)[:, None] - cand) * prod.eval(cand)
    return int(np.sum((utility == utility.max(axis=1, keepdims=True)).sum(axis=1) > 1))


def assert_same_bids(prod, v, lo=0.0, hi=1.0):
    got, want = best_response(prod, v, lo, hi), reference_best_response(prod, v, lo, hi)
    assert type(got) is type(want)
    assert np.shape(got) == np.shape(want)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def test_best_response_matches_the_per_value_scan_on_tied_staircases():
    # breakpoints on a grid of 1/20, values on one of 1/8 and values v on one
    # of 1/40, unsorted and with repeats, so that many utilities tie exactly
    rng = np.random.default_rng(3)
    ties = 0
    for trial in range(300):
        bp = np.unique(rng.integers(0, 21, size=rng.integers(1, 12))) / 20.0
        vals = np.sort(rng.integers(1, 9, size=bp.size)) / 8.0
        prod = PiecewiseCdf(bp, vals, interpolation="step", is_full_cdf=False)
        lo, hi = (0.0, 1.0) if trial % 2 else tuple(np.sort(rng.integers(0, 21, 2)) / 20.0)
        v = rng.integers(0, 41, size=rng.integers(1, 60)) / 40.0
        assert_same_bids(prod, v, lo, hi)
        assert_same_bids(prod, float(v[0]), lo, hi)
        ties += tied_values(prod, v, lo, hi)
    assert ties >= 300


def test_best_response_matches_the_per_value_scan_on_random_staircases():
    rng = np.random.default_rng(4)
    for _ in range(100):
        m = int(rng.integers(1, 500))
        bp = np.unique(rng.random(m))
        prod = PiecewiseCdf(bp, np.sort(rng.random(bp.size)), is_full_cdf=False)
        v = rng.random(int(rng.integers(1, 200)))
        v = np.concatenate([v, v[: v.size // 3], bp[:5]])  # repeats, values at breakpoints
        lo = float(rng.random() * 0.5)
        assert_same_bids(prod, v)
        assert_same_bids(prod, v, lo, lo + 0.4)
        assert_same_bids(prod, v, lo, lo)  # a one-point window
        assert_same_bids(prod, float(v[-1]))
    assert_same_bids(prod, np.array([]))


def test_best_response_names_a_value_that_is_not_a_finite_number():
    # NaN gave bid 0.0 silently, inf bid 0.0 with a RuntimeWarning, and a
    # string a bare ValueError; a NaN would also break the sorted search
    prod = fine_uniform_staircase()
    for v in (math.nan, math.inf, -math.inf, "a", [0.3, math.nan], [[0.3], [0.5, 0.7]]):
        with pytest.raises(ValidationError, match="^v must be finite numbers"):
            best_response(prod, v)


def value_models():
    """(model, estimator arguments) of the benchmark's fp-value model half2 and of its
    4097-knot bounded3 model."""
    half = PiecewiseCdf([0.0, 0.5], [0.0, 1.0], interpolation="linear")
    rising = BoundedDensityModel(knots=[0.0, 1.0], density=[0.75, 1.25],
                                 alpha_lo=0.5, eta_hi=2.0).to_cdf()
    falling = BoundedDensityModel(knots=[0.0, 1.0], density=[1.25, 0.75],
                                  alpha_lo=0.5, eta_hi=2.0).to_cdf()
    return {
        "half2": (AuctionModel(bid_dists=[half, half]),
                  {"p": 0.2, "gamma": 0.04, "eps": 0.1, "zeta": 1.0, "lipschitz": 1.0}),
        "bounded3": (AuctionModel(bid_dists=[rising, falling, rising]),
                     {"p": 0.4, "gamma": 0.05, "eps": 0.1, "zeta": 1.0}),
    }


@pytest.mark.parametrize("name", ["half2", "bounded3"])
def test_value_cdfs_equal_those_of_the_per_value_scan(name, monkeypatch):
    # 25 logs per model, n from 50 to 2e4: the same CDF and diagnostics bytes
    model, args = value_models()[name]
    for seed in range(25):
        s = simulate_fp(model, (50, 200, 2000, 20000)[seed % 4], seed)
        fast = estimate_digest(*estimate_value_cdf_effective(s, **args))
        with monkeypatch.context() as patched:
            patched.setattr(fp_value, "best_response", reference_best_response)
            assert estimate_digest(*estimate_value_cdf_effective(s, **args)) == fast


def test_k2_products_are_the_other_bidders_estimates(monkeypatch):
    # for k = 2 the relabelled "rest" of bidder i is bidder 3 - i, so the
    # estimator hands its F-hat to the best response as the product: the
    # same arrays as the relabelled tail sum's, on logs with and without
    # tied prices (a 200-point price grid), n from 50 to 2e4
    from auctionmetrics.fp_estimator import _ghat_to_cdf, _tail_sum

    model, args = value_models()["half2"]
    floor = args["gamma"] / 2.0
    seen = []
    compose = fp_value._compose_value_cdf
    monkeypatch.setattr(fp_value, "_compose_value_cdf",
                        lambda fhat, prod, p, dv: seen.append(prod) or compose(fhat, prod, p, dv))
    for seed in range(12):
        s = simulate_fp(model, (50, 200, 2000, 20000)[seed % 4], seed)
        if seed % 3 == 0:
            s = SampleSet(y=np.round(s.y * 200.0) / 200.0, z=s.z, k=2, auction=s.auction)
        seen.clear()
        estimate_value_cdf_effective(s, **args)
        for i, prod in enumerate(seen, start=1):
            want = _ghat_to_cdf(_tail_sum(s, s.ranked[1] != i, floor))
            assert prod.breakpoints.tobytes() == want.breakpoints.tobytes()
            assert prod.values.tobytes() == want.values.tobytes()
            assert (prod.interpolation, prod.is_full_cdf) == (want.interpolation,
                                                              want.is_full_cdf)
        assert len(seen) == 2


def test_value_estimation_recovers_uniform_values():
    # symmetric uniform values, equilibrium bids beta(v) = v/2, so bids are
    # uniform on [0, 0.5]
    half = PiecewiseCdf([0.0, 0.5], [0.0, 1.0], interpolation="linear")
    m = AuctionModel(bid_dists=[half, half])
    s = simulate_fp(m, 100000, 17)
    cdfs, diag = estimate_value_cdf_effective(s, p=0.2, gamma=0.04, eps=0.1, zeta=1.0,
                                              lipschitz=1.0)
    err = kolmogorov(cdfs[0], uniform_cdf(), 0.3, 1.0)
    assert err <= 0.05
    assert len(diag["isotonic_repairs"]) == 2


def test_value_estimates_are_monotone_staircases():
    half = PiecewiseCdf([0.0, 0.5], [0.0, 1.0], interpolation="linear")
    m = AuctionModel(bid_dists=[half, half])
    s = simulate_fp(m, 20000, 23)
    cdfs, _ = estimate_value_cdf_effective(s, p=0.2, gamma=0.04, eps=0.1, zeta=1.0)
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
    # lipschitz moves nothing: the two calls give one digest
    general = {"p": 0.2, "gamma": 0.04, "eps": 0.1, "zeta": 1.0}
    assert estimate_digest(*estimate_value_cdf_effective(s, **general, lipschitz=1.0)) == (
        "ef36dfe3345cac7c2dd3743a300e421f26db8e2f10a017bc73618ce0d1b8adad")
    assert estimate_digest(*estimate_value_cdf_effective(s, **general)) == (
        "ef36dfe3345cac7c2dd3743a300e421f26db8e2f10a017bc73618ce0d1b8adad")
    # the full-support reduction's general case at lambda 1, eps 0.4 (eta 0.2):
    # p = 8*eta/11 and gamma = p^k
    s = simulate_fp(AuctionModel(bid_dists=[half, half]), 20000, 37)
    p = 8.0 * 0.2 / 11.0
    assert estimate_digest(*estimate_value_cdf_effective(s, p, p ** 2, 0.4, 1.0)) == (
        "a14a6aecf31123b63a6285e45d7f94ce0802404bfeea5b6fed8fa698f089e225")
    s = simulate_fp(AuctionModel(bid_dists=[two3] * 3), 20000, 41)
    assert estimate_digest(*estimate_value_cdf_effective(
            s, p=0.3, gamma=0.05, eps=0.1, zeta=1.0, lipschitz=1.0)) == (
        "30b1d7a626829b45f1bf062f4b048e7bad98a53e100812962c3b407e7f472af4")
