import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from auctionmetrics import fp_estimator
from auctionmetrics.auction_sim import (
    FORMAT_FP,
    AuctionModel,
    SampleSet,
    make_fp_partial_oracle,
    simulate_fp,
    simulate_sp,
)
from auctionmetrics.dist_core import (
    STEP,
    PiecewiseCdf,
    empirical_cdf,
    kolmogorov,
    uniform_cdf,
    wasserstein1,
)
from auctionmetrics.errors import ValidationError
from auctionmetrics.fp_estimator import (
    DensityEstimate,
    FpEstimatorConfig,
    _ghat_to_cdf,
    _OracleBudget,
    _tail_sum,
    _zero_below,
    estimate_bid_cdf_effective,
    estimate_bid_cdf_full,
    estimate_density,
    estimate_ghat,
    fp_partial_estimate,
    full_support_params,
    noisy_quantile_search,
)
from auctionmetrics.sp_estimator import empirical_G_sp
from reference import population_bid_cdf


def uniform_model(k=2):
    return AuctionModel(bid_dists=[uniform_cdf()] * k)


# -- identification identity ---------------------------------------------------


def test_identification_recovers_uniform():
    # k=2 uniforms: H(x) = x^2, winner-1 sub-density h_1(x) = x, so
    # exp(-int_x^1 z/z^2 dz) = x
    for x in np.arange(0.1, 0.95, 0.1):
        val = population_bid_cdf(lambda z: z * z, lambda z: z, x)
        assert val == pytest.approx(x, abs=1e-6)


def test_identification_recovers_power_law():
    # F_1(x) = x^2, F_2(x) = x: H = x^3, h_1 = 2x*x = 2x^2
    for x in (0.2, 0.5, 0.8):
        val = population_bid_cdf(lambda z: z ** 3, lambda z: 2 * z * z, x)
        assert val == pytest.approx(x * x, abs=1e-6)


# -- config ---------------------------------------------------------------------


def test_config_eps_range():
    FpEstimatorConfig(p=0.3, gamma=0.09, eps=0.045)
    with pytest.raises(ValidationError):
        FpEstimatorConfig(p=0.3, gamma=0.09, eps=0.05)  # above gamma/2
    with pytest.raises(ValidationError):
        FpEstimatorConfig(p=0.3, gamma=1.2, eps=0.1)


@pytest.mark.parametrize("key", ["p", "gamma", "eps"])
def test_config_rejects_a_field_that_is_not_a_number(key):
    # a bare TypeError from the range comparisons before
    args = {"p": 0.3, "gamma": 0.09, "eps": 0.045}
    for value, kind in ((None, "NoneType"), ("0.3", "str"), (True, "bool")):
        with pytest.raises(ValidationError, match=f"{key} must be a number, not {kind}"):
            FpEstimatorConfig(**{**args, key: value})


def test_config_default_floor_is_half_gamma():
    assert FpEstimatorConfig(p=0.3, gamma=0.2, eps=0.1).floor == 0.1
    # the floor is gamma/2, not a setting
    with pytest.raises(TypeError):
        FpEstimatorConfig(p=0.3, gamma=0.2, eps=0.1, h_floor=0.05)


# -- empirical pieces ------------------------------------------------------------


def hand_sample():
    # y sorted: 0.2(z=1), 0.4(z=2), 0.6(z=1), 0.8(z=1)
    return SampleSet(y=np.array([0.6, 0.2, 0.8, 0.4]),
                     z=np.array([1, 1, 1, 2]), k=2, auction=FORMAT_FP)


def test_empirical_H_hand_values():
    H = empirical_cdf(hand_sample().y)
    assert H.eval(0.1) == 0.0
    assert H.eval(0.4) == 0.5
    assert H.eval(0.8) == 1.0


def test_empirical_Hi_is_sub_cdf():
    Hi = empirical_G_sp(hand_sample(), 1)
    assert Hi.eval(1.0) == pytest.approx(0.75)
    H2 = empirical_G_sp(hand_sample(), 2)
    assert H2.eval(1.0) == pytest.approx(0.25)
    # the winner sub-CDFs partition H
    for x in (0.3, 0.5, 0.9):
        assert Hi.eval(x) + H2.eval(x) == pytest.approx(empirical_cdf(hand_sample().y).eval(x))


def test_ghat_hand_computed_oracle():
    # frozen oracle: with floor = 0.1, weights are 1/(n * Hhat(Y_j)) with
    # Hhat(0.2, 0.4, 0.6, 0.8) = (0.25, 0.5, 0.75, 1.0)
    cfg = FpEstimatorConfig(p=0.2, gamma=0.2, eps=0.1)
    g = estimate_ghat(hand_sample(), 1, cfg)
    w = 1.0 / (4 * np.array([0.25, 0.75, 1.0]))  # bidder-1 prices 0.2, 0.6, 0.8
    assert g.eval_left(0.0) == pytest.approx(w.sum())
    assert g.eval_left(0.2) == pytest.approx(w.sum())        # includes equality
    assert g.eval_left(0.3) == pytest.approx(w[1] + w[2])
    assert g.eval_left(0.7) == pytest.approx(w[2])
    assert g.eval_left(0.9) == 0.0
    # eval is right-continuous, the weight strictly above x, so not G-hat
    assert g.eval(0.2) == pytest.approx(w[1] + w[2])
    assert g.eval(0.2) != g.eval_left(0.2)


def test_ghat_floor_clips_small_denominators():
    cfg = FpEstimatorConfig(p=0.2, gamma=0.8, eps=0.4)  # floor = 0.4
    g = estimate_ghat(hand_sample(), 1, cfg)
    w = 1.0 / (4 * np.array([0.4, 0.75, 1.0]))
    assert g.eval_left(0.0) == pytest.approx(w.sum())


def test_ghat_to_cdf_staircase_properties():
    cfg = FpEstimatorConfig(p=0.2, gamma=0.2, eps=0.1)
    F = _ghat_to_cdf(estimate_ghat(hand_sample(), 1, cfg))
    assert F.is_full_cdf
    assert F.eval(1.0) == 1.0
    assert np.all(np.diff(F.values) >= 0)
    # value on [0, 0.2) is exp(-total weight)
    w = 1.0 / (4 * np.array([0.25, 0.75, 1.0]))
    assert F.eval(0.1) == pytest.approx(math.exp(-w.sum()))
    assert F.eval(0.2) == pytest.approx(math.exp(-(w[1] + w[2])))


def reference_ghat(samples, i, floor):
    """(ys, suffix) of the removed GHat, as the old estimate_ghat built them."""
    n = samples.n
    order = np.sort(samples.y)
    weights = 1.0 / (n * np.maximum(np.searchsorted(order, samples.y, side="right") / n, floor))
    mask = samples.z == i
    srt = np.argsort(samples.y[mask], kind="stable")
    ys, w = samples.y[mask][srt], weights[mask][srt]
    uniq, start = np.unique(ys, return_index=True)
    sums = np.add.reduceat(w, start) if w.size else w
    return uniq, (np.cumsum(sums[::-1])[::-1] if sums.size else sums)


def reference_ghat_eval(ys, suffix, x):
    """The removed GHat.eval: the summed weight of prices >= x."""
    idx = np.searchsorted(ys, np.atleast_1d(x), side="left")
    return np.concatenate([suffix, [0.0]])[idx]


@settings(max_examples=100, deadline=None)
@given(prices=st.lists(st.integers(0, 20), min_size=1, max_size=40),
       winners=st.lists(st.integers(1, 3), min_size=40, max_size=40),
       extra=st.lists(st.floats(-0.5, 1.5), max_size=10))
def test_ghat_left_limit_matches_the_old_tail_sum(prices, winners, extra):
    # a 20-point price grid gives tied prices; a bidder may never win
    y = np.asarray(prices, dtype=np.float64) / 20.0
    s = SampleSet(y=y, z=winners[:y.size], k=3, auction=FORMAT_FP)
    cfg = FpEstimatorConfig(p=0.2, gamma=0.2, eps=0.1)
    x = np.concatenate([y, np.nextafter(y, -1.0), np.nextafter(y, 2.0), [-0.5, 0.0, 1.0, 1.5],
                        extra])
    for i in (1, 2, 3):
        ys, suffix = reference_ghat(s, i, cfg.floor)
        want = reference_ghat_eval(ys, suffix, x)
        assert estimate_ghat(s, i, cfg).eval_left(x).tobytes() == want.tobytes()
        # the rest sum of fp_value, against G-hat_2 of the old relabelled
        # two-agent set, in which agent 2 wins where bidder i does not
        rest = SampleSet(y=s.y, z=np.where(s.z == i, 1, 2), k=2, auction=FORMAT_FP)
        want = reference_ghat_eval(*reference_ghat(rest, 2, cfg.floor), x)
        got = _tail_sum(s, s.ranked[1] != i, cfg.floor).eval_left(x)
        assert got.tobytes() == want.tobytes()


def test_estimate_ghat_rejects_a_second_price_sample_set():
    cfg = FpEstimatorConfig(p=0.2, gamma=0.2, eps=0.1)
    with pytest.raises(ValidationError, match="'fp' sample set"):
        estimate_ghat(simulate_sp(uniform_model(), 50, 1), 1, cfg)


def test_effective_estimator_converges_to_uniform():
    m = uniform_model()
    cfg = FpEstimatorConfig(p=0.3, gamma=0.09, eps=0.045)
    errs = []
    for n in (2000, 32000):
        s = simulate_fp(m, n, 11)
        cdfs, _ = estimate_bid_cdf_effective(s, cfg)
        errs.append(max(kolmogorov(F, uniform_cdf(), 0.3, 1.0) for F in cdfs))
    assert errs[1] < errs[0]
    assert errs[1] < 0.03


def test_effective_estimator_asymmetric_model():
    sq = np.linspace(0, 1, 2049)
    F2 = uniform_cdf()
    F1 = type(F2)(sq, sq ** 2, interpolation="linear")
    m = AuctionModel(bid_dists=[F1, F2])
    s = simulate_fp(m, 100000, 3)
    cfg = FpEstimatorConfig(p=0.4, gamma=0.1, eps=0.05)
    cdfs, _ = estimate_bid_cdf_effective(s, cfg)
    grid = np.linspace(0.4, 1.0, 200)
    assert np.max(np.abs(cdfs[0].eval(grid) - grid ** 2)) < 0.03
    assert np.max(np.abs(cdfs[1].eval(grid) - grid)) < 0.03


# -- full support ---------------------------------------------------------------


def test_full_support_params_values():
    eta, p, gamma = full_support_params(2, 1.0, 0.2)
    assert eta == p == 0.1
    assert gamma == pytest.approx(0.01)


def test_full_support_params_underflow():
    with pytest.raises(ValidationError):
        full_support_params(500, 0.1, 0.01)


def test_full_estimator_zeroes_below_eta():
    s = simulate_fp(uniform_model(), 50000, 1)
    cdfs, _ = estimate_bid_cdf_full(s, 1.0, 0.2)
    for F in cdfs:
        assert F.eval(0.05) == 0.0  # below eta = 0.1
        assert wasserstein1(F, uniform_cdf()) < 0.05


def keep_first_zero_below(F, cut):
    """The construction ``_zero_below`` replaced: a keep-first ``np.unique``
    of the cut and the breakpoints at or above it."""
    keep = F.breakpoints >= cut
    bp = np.concatenate([[cut], F.breakpoints[keep]])
    vals = np.concatenate([[F.eval(cut)], F.values[keep]])
    bp, idx = np.unique(bp, return_index=True)
    return PiecewiseCdf(bp, vals[idx], interpolation=STEP, is_full_cdf=F.is_full_cdf)


def test_zero_below_matches_the_keep_first_construction():
    # full staircases on breakpoints that may start at -0.0 or 1e-12 below 0
    # (one that ends 1e-12 above 1 is refused), cut in [0, 1] (the estimator
    # cuts at eta in (0, 1/2)) or at -0.0: at a breakpoint, between two, below
    # the first and at 1; and the estimator's own staircases
    rng = np.random.default_rng(21)
    cases = []
    for _ in range(1000):
        bp = np.unique(np.round(rng.random(int(rng.integers(1, 15))), 2))
        bp[0] = rng.choice([bp[0], -0.0, -1e-12])
        if rng.random() < 0.3:
            bp[-1] = 1.0 + 1e-12
        vals = np.sort(rng.random(bp.size))
        vals[-1] = 1.0
        if bp[-1] > 1.0:
            with pytest.raises(ValidationError, match="must not exceed 1"):
                PiecewiseCdf(bp, vals, interpolation=STEP)
            continue
        F = PiecewiseCdf(bp, vals, interpolation=STEP)
        inside = bp[(bp >= 0.0) & (bp <= 1.0)]
        cut = rng.choice([*inside, float(np.round(rng.random(), 2)), 0.0, -0.0, 1.0])
        cases.append((F, float(cut)))
    s = simulate_fp(uniform_model(3), 3000, 4)
    cdfs, _ = estimate_bid_cdf_effective(s, FpEstimatorConfig(*full_support_params(3, 1.0, 0.3)))
    cases += [(F, 0.15) for F in cdfs] + [(F, float(F.breakpoints[3])) for F in cdfs]
    for F, cut in cases:
        got, want = _zero_below(F, cut), keep_first_zero_below(F, cut)
        assert np.array_equal(got.breakpoints, want.breakpoints)
        assert np.array_equal(got.values, want.values)
        assert (got.interpolation, got.is_full_cdf) == (STEP, True)


# -- density ----------------------------------------------------------------------


def test_density_forward_difference_exact():
    F = uniform_cdf()
    d = estimate_density(F, 0.1)
    xs = np.linspace(0.2, 0.9, 50)
    np.testing.assert_allclose(d.eval(xs), 1.0, atol=1e-12)


def test_density_quadratic_cdf():
    grid = np.linspace(0, 1, 4097)
    F = type(uniform_cdf())(grid, grid ** 2, interpolation="linear")
    d = estimate_density(F, 0.02)
    # (F(x+h)-F(x))/h = 2x + h exactly for F = x^2
    for x in (0.1, 0.5, 0.9):
        assert d.eval(x) == pytest.approx(2 * x + 0.02, abs=1e-4)


def test_density_rejects_nonpositive_bandwidth():
    with pytest.raises(ValidationError):
        estimate_density(uniform_cdf(), 0.0)


# -- noisy binary search ------------------------------------------------------------


def identity_reading(xs):
    return xs[:, None]


def test_quantile_search_exact_oracle():
    # noiseless monotone oracle: lands within half the final cell of the root
    target = 0.62
    found, = noisy_quantile_search(identity_reading, np.array([target]), [0], T=30, eps1=1e-9)
    assert found == pytest.approx(target, abs=1e-8)


def test_quantile_search_early_termination_band():
    calls = []

    def read(xs):
        calls.append(xs)
        return xs[:, None]

    found, = noisy_quantile_search(read, np.array([0.5]), [0], T=50, eps1=0.2)
    assert abs(found - 0.5) <= 0.1
    assert len(calls) < 10  # stopped early inside the band


def test_quantile_search_respects_bounds():
    found, = noisy_quantile_search(identity_reading, np.array([0.9]), [0], T=12, eps1=1e-6,
                                   lo=0.5, hi=1.0)
    assert 0.5 <= found <= 1.0
    assert found == pytest.approx(0.9, abs=1e-3)


def reference_search(estimate, target, T, eps1, lo=0.0, hi=1.0):
    """The scalar search as it was before it was vectorised."""
    mid = 0.5 * (lo + hi)
    for _ in range(T):
        mid = 0.5 * (lo + hi)
        val = estimate(mid)
        if abs(val - target) <= eps1 / 2.0:
            return mid
        if val > target:
            hi = mid
        else:
            lo = mid
    return mid


def staircase_reading(x):
    # deterministic monotone readings on a coarse staircase: many targets
    # land inside the stop band early, others run all T steps
    return np.floor(np.asarray(x) * 37.0) / 37.0


@pytest.mark.parametrize("T,eps1,lo", [(13, 0.02, 0.0), (6, 1e-9, 0.0), (1, 0.5, 0.0),
                                       (9, 0.01, 0.5), (40, 1e-12, 0.1)])
def test_vectorised_search_equals_the_scalar_search_per_target(T, eps1, lo):
    targets = np.concatenate([np.linspace(0.0, 1.0, 97), [0.5, 1.0 - 1e-9]])
    sizes = []

    def batched(xs):
        sizes.append(xs.size)
        return staircase_reading(xs)[:, None]

    got = noisy_quantile_search(batched, targets, np.zeros(targets.size, int), T, eps1, lo=lo)

    def scalar_run(search, target):
        args = []

        def scalar(x):
            args.append(float(np.squeeze(x)))
            return staircase_reading(x)

        found = np.concatenate([np.atleast_1d(search(scalar, target(u), T, eps1, lo=lo))
                                for u in targets])
        return found, args

    def one_column(scalar, u, *args, **kwargs):
        return noisy_quantile_search(lambda xs: scalar(xs)[:, None], u, [0], *args, **kwargs)

    ref, ref_args = scalar_run(reference_search, float)
    found, args = scalar_run(one_column, lambda u: np.array([u]))
    assert got.tobytes() == ref.tobytes() == found.tobytes()
    # a one-target search makes the old call sequence; the vectorised search
    # makes one call per step with the midpoints of the targets still
    # searching
    assert args == ref_args
    assert sizes[0] == targets.size and len(sizes) <= T
    assert sum(sizes) == len(args)
    if T == 13:
        assert sizes[-1] < targets.size  # some targets stopped early


def three_readings(xs):
    # three monotone columns that stop their targets after different steps
    return np.stack([staircase_reading(xs), xs * xs, np.floor(np.sqrt(xs) * 11.0) / 11.0],
                    axis=1)


@pytest.mark.parametrize("T,eps1,lo", [(13, 0.02, 0.0), (9, 0.01, 0.5), (40, 1e-12, 0.1)])
def test_three_column_search_equals_three_one_column_searches(T, eps1, lo):
    targets = [np.linspace(0.05, 0.95, 41), np.linspace(0.3, 1.0, 17), np.linspace(0.0, 1.0, 29)]
    columns = np.repeat([0, 1, 2], [u.size for u in targets])
    steps = []

    def read(xs):
        steps.append(xs.copy())
        return three_readings(xs)

    got = noisy_quantile_search(read, np.concatenate(targets), columns, T, eps1, lo=lo)
    alone = []
    for c, u in enumerate(targets):
        calls = []

        def read_one(xs, c=c, calls=calls):
            calls.append(xs.copy())
            return three_readings(xs)[:, c:c + 1]

        alone.append((noisy_quantile_search(read_one, u, np.zeros(u.size, int), T, eps1,
                                            lo=lo), calls))
    assert got.tobytes() == np.concatenate([found for found, _ in alone]).tobytes()
    # one read per step, with the midpoints of every column's active targets
    # in target order
    assert len(steps) == max(len(calls) for _, calls in alone)
    for m, xs in enumerate(steps):
        want = np.concatenate([calls[m] for _, calls in alone if m < len(calls)])
        assert xs.tobytes() == want.tobytes()


# -- reserve-price probes -------------------------------------------------------


def estimate_digest(cdfs, diagnostics):
    blob = json.dumps({"cdfs": [F.to_dict() for F in cdfs],
                       "diagnostics": diagnostics}, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def test_win_frequencies_equal_the_means_bit_for_bit():
    # one reserve, an odd probe count: count / n is the mean of the winners'
    # indicators, since both divide the same exact integer by n
    # (re-pinned when the oracle moved to the exact law: same law, other draws)
    oracle = make_fp_partial_oracle(uniform_model(3))
    freq = _OracleBudget(oracle, np.random.default_rng(3)).frequencies([0.6], 30001)
    counts = oracle([0.6], 30001, np.random.default_rng(3))[0]
    winners = np.repeat(np.arange(5), counts)
    assert freq.shape == (1, 5) and winners.size == 30001
    for i in range(5):
        assert freq[0, i] == (winners == i).mean()


def test_batched_frequencies_equal_per_row_bincounts():
    # every reserve of a reading shares one oracle call, from the budget's
    # Generator (re-pinned with the exact law: same law, other draws)
    n = 7001
    xs = [0.2, 0.6, 0.9]
    oracle = make_fp_partial_oracle(uniform_model(3))
    budget = _OracleBudget(oracle, np.random.default_rng(3))
    freq = budget.frequencies(xs, n)
    assert budget.batches == 1
    counts = oracle(xs, 3 * n, np.random.default_rng(3))
    assert freq.shape == (3, 5)
    assert freq.tobytes() == (counts / n).tobytes()


def test_budget_batches_reserves_in_order_under_the_column_cap():
    # no column cap: a reading of any size is one oracle call over its
    # reserves in order, and consecutive readings draw from the budget's one
    # Generator in turn (re-pinned with the exact law: same law, other draws)
    model = uniform_model()
    oracle = make_fp_partial_oracle(model)
    xs = np.array([0.1, 0.3, 0.5, 0.7, 0.9])
    n = 1 << 15
    budget = _OracleBudget(oracle, np.random.default_rng(4))
    freq = budget.frequencies(xs, n)
    again = budget.frequencies(xs[::-1], n)
    assert (budget.calls, budget.batches) == (10 * n, 2)
    rng = np.random.default_rng(4)
    assert freq.tobytes() == (oracle(xs, 5 * n, rng) / n).tobytes()
    assert again.tobytes() == (oracle(xs[::-1], 5 * n, rng) / n).tobytes()


@pytest.mark.parametrize("size", ["n_search", "n_point", "n_base"])
def test_fp_partial_estimate_rejects_empty_probe_batches(size):
    oracle = make_fp_partial_oracle(uniform_model())
    with pytest.raises(ValidationError, match="must be >= 1"):
        fp_partial_estimate(oracle, p=0.5, gamma=0.5, eps=0.2, **{size: 0})


@pytest.mark.parametrize("lipschitz", [0.0, -1.0])
def test_fp_partial_estimate_rejects_a_nonpositive_lipschitz_constant(lipschitz):
    oracle = make_fp_partial_oracle(uniform_model())
    with pytest.raises(ValidationError, match="lipschitz"):
        fp_partial_estimate(oracle, p=0.5, gamma=0.5, eps=0.2, lipschitz=lipschitz)


def exact_power_oracle(powers):
    """A probe oracle whose counts are n times the population win shares.

    Bidder j has F_j(x) = x**a_j, so with A = sum(a) the top bid has
    H(x) = x**A and bidder i's winner sub-CDF is H_i(x) = (a_i / A) x**A.
    At reserve x bidder i wins a share H_i(1) - H_i(x), and the planted bid
    H(x). Every call is logged as (reserves, probes).
    """
    a = np.asarray(powers, dtype=np.float64)
    total = a.sum()

    def oracle(reserves, n, rng):
        reserves = np.asarray(reserves, dtype=np.float64)
        oracle.log.append((reserves.copy(), n))
        h = reserves ** total
        shares = np.zeros((reserves.size, a.size + 2))
        shares[:, 1:-1] = (a / total)[None, :] * (1.0 - h)[:, None]
        shares[:, -1] = h
        return np.rint(shares * (n // reserves.size)).astype(np.int64)

    oracle.k = a.size
    oracle.log = []
    return oracle


def per_bidder_point_loop(oracle, p, gamma, eps, seed, n_search, n_point, n_base):
    """The estimator before the merged grid and the joint search: scalar
    searches one level at a time, H's first and then each bidder's, and
    point probes on each bidder's own grid. Returns the staircases."""
    k = oracle.k
    budget = _OracleBudget(oracle, np.random.default_rng(seed))
    delta_grid = gamma * gamma * eps / 6.0
    eps1 = gamma * gamma * eps / 24.0
    T = max(1, math.ceil(math.log2(max(2.0 / eps1, 2.0))))
    levels = np.unique(np.append(np.arange(gamma, 1.0, delta_grid), 1.0))
    base_freq = budget.frequencies([0.0], n_base)[0]

    def search(column, u):
        return reference_search(lambda x: column(budget.frequencies([x], n_search)[0]),
                                u, T, eps1)

    vhat = [search(lambda f: f[k + 1], u) for u in levels]
    cdfs = []
    for i in range(1, k + 1):
        # the ceiling rule: a level that the reading base_freq[i] sends
        # upward without stopping lands where that search ends
        c = base_freq[i]
        what = [1.0 - 2.0 ** -T if not abs(c - u) <= eps1 / 2.0 and not c > u
                else search(lambda f, i=i: c - f[i], u) for u in levels]
        xs = np.unique(np.concatenate([vhat, what]))
        xs = xs[(xs >= p - 1e-12) & (xs <= 1.0)]
        freq = budget.frequencies(xs, n_point)
        h_vals = freq[:, k + 1]
        hi_vals = np.maximum.accumulate(base_freq[i] - freq[:, i])
        increments = np.diff(hi_vals)
        denom = np.maximum(h_vals[:-1], gamma / 2.0)
        tail = np.concatenate([np.cumsum((increments / denom)[::-1])[::-1], [0.0]])
        fvals = np.maximum.accumulate(np.clip(np.exp(-tail), 0.0, 1.0))
        bp = np.concatenate([[min(p, xs[0])], xs]) if xs[0] > p else xs
        vals = np.concatenate([[fvals[0]], fvals]) if xs[0] > p else fvals
        bp, idx = np.unique(bp, return_index=True)
        vals = vals[idx]
        vals[-1] = max(vals[-1], 1.0) if xs[-1] >= 1.0 - 1e-9 else vals[-1]
        cdfs.append(PiecewiseCdf(bp, np.clip(vals, 0.0, 1.0), interpolation=STEP,
                                 is_full_cdf=bool(vals[-1] >= 1.0 - 1e-12)))
    return cdfs


def draws_at(oracle, n):
    """Probes the logged oracle calls drew at n probes per reserve."""
    return sum(m for r, m in oracle.log if m == n * r.size)


@pytest.mark.parametrize("powers, p", [((1.0, 2.0), 0.7), ((1.0, 1.5, 2.0), 0.8)])
def test_merged_point_grid_matches_the_per_bidder_loop(powers, p):
    # an exact oracle reads the same value at a reserve whichever pass or
    # search step probes it, so one search over every (column, level) target
    # and one pass over the union of the grids must give the per-level,
    # per-bidder loop's staircases and search draws bit for bit
    args = dict(p=p, gamma=0.3, eps=0.2, seed=5, n_search=200, n_point=3000, n_base=20000)
    oracle = exact_power_oracle(powers)
    cdfs, diag = fp_partial_estimate(oracle, **args)
    ref_oracle = exact_power_oracle(powers)
    ref = per_bidder_point_loop(ref_oracle, **args)
    assert len(cdfs) == len(ref) == len(powers)
    for got, want in zip(cdfs, ref):
        assert got.breakpoints.tobytes() == want.breakpoints.tobytes()
        assert got.values.tobytes() == want.values.tobytes()
        assert got.is_full_cdf == want.is_full_cdf
    assert draws_at(oracle, args["n_search"]) == draws_at(ref_oracle, args["n_search"])
    # one oracle call per reading: the base probe, each of the T search
    # steps and the point pass
    assert diag["oracle_batches"] == diag["T"] + 2 == 14
    # the point phase is the calls at n_point probes per reserve: it draws
    # n_point probes at each reserve of the merged grid, each reserve once
    point = [(r, n) for r, n in oracle.log if n == args["n_point"] * r.size]
    reserves = np.concatenate([r for r, _ in point])
    assert sum(n for _, n in point) == args["n_point"] * diag["point_reserves"]
    assert np.unique(reserves).size == reserves.size == diag["point_reserves"]
    assert diag["oracle_calls"] == sum(n for _, n in oracle.log)


def test_pruned_levels_are_never_probed_and_land_at_the_top_midpoint(monkeypatch):
    # no reading of H_i exceeds base_freq[i] = a_i / A: a level that this
    # ceiling sends upward without stopping is no search target, and lands
    # where the search under the constant ceiling reading ends, 1 - 2^-T
    powers = (1.0, 2.0)
    args = dict(p=0.7, gamma=0.3, eps=0.2, seed=5, n_search=200, n_point=3000, n_base=20000)
    searches, sizes = [], []
    search = fp_estimator.noisy_quantile_search

    def spy(read, targets, columns, T, eps1):
        searches.append((targets, columns))
        return search(lambda xs: sizes.append(xs.size) or read(xs), targets, columns, T, eps1)

    monkeypatch.setattr(fp_estimator, "noisy_quantile_search", spy)
    oracle = exact_power_oracle(powers)
    cdfs, diag = fp_partial_estimate(oracle, **args)
    (targets, columns), = searches  # one search per estimate
    T, eps1 = diag["T"], diag["eps1"]
    levels = np.unique(np.append(np.arange(args["gamma"], 1.0, diag["delta_grid"]), 1.0))
    base = exact_power_oracle(powers)([0.0], args["n_base"], None)[0] / args["n_base"]
    assert targets[columns == 0].tolist() == levels.tolist()  # H is never pruned
    pruned = 0
    for i, F in enumerate(cdfs, start=1):
        c = base[i]
        blind = [u for u in levels if not abs(c - u) <= eps1 / 2.0 and not c > u]
        assert targets[columns == i].tolist() == [u for u in levels if u not in blind]
        assert {reference_search(lambda x: c, u, T, eps1) for u in blind} == {1.0 - 2.0 ** -T}
        assert 1.0 - 2.0 ** -T in F.breakpoints.tolist()
        pruned += len(blind)
    assert diag["pruned_levels"] == pruned > levels.size
    assert draws_at(oracle, args["n_search"]) == args["n_search"] * sum(sizes)


@pytest.mark.parametrize("ulps,offset", [(0, 0.0), (-1, 0.0), (1, 0.0), (0, 2.3e-4)])
def test_search_below_prunes_only_what_the_ceiling_decides(ulps, offset, monkeypatch):
    # H_1 readings capped at the ceiling H_1(0): the estimate's pruned search
    # must equal the plain per-target search exactly, also with the ceiling on
    # the lower edge of a level's stop band, where rounding decides whether
    # the level can stop
    args = dict(p=0.0, gamma=0.25, eps=0.15, seed=0, n_search=2, n_point=3, n_base=5)
    gamma, eps = args["gamma"], args["eps"]
    eps1 = gamma * gamma * eps / 24.0
    levels = np.unique(np.append(np.arange(gamma, 1.0, gamma * gamma * eps / 6.0), 1.0))
    ceiling = float(levels[161] - eps1 / 2.0) + offset
    for _ in range(abs(ulps)):
        ceiling = float(np.nextafter(ceiling, ulps))
    probed = []

    class CappedBudget:
        # win shares of one bidder: H(x) = x, and H_1(x) = min(x, ceiling)
        # read as H_1(0) less the share won at reserve x
        def __init__(self, oracle, rng):
            self.calls = self.batches = 0

        def frequencies(self, xs, n):
            xs = np.asarray(xs, dtype=np.float64)
            probed.append((xs.size, n))
            out = np.zeros((xs.size, 3))
            out[:, 1] = ceiling if n == args["n_base"] else ceiling - np.minimum(xs, ceiling)
            out[:, 2] = xs
            self.calls += xs.size * n
            self.batches += 1
            return out

    searches = []
    search = fp_estimator.noisy_quantile_search

    def spy(read, targets, columns, T, eps1):
        found = search(read, targets, columns, T, eps1)
        searches.append((targets, columns, found))
        return found

    monkeypatch.setattr(fp_estimator, "_OracleBudget", CappedBudget)
    monkeypatch.setattr(fp_estimator, "noisy_quantile_search", spy)
    # one bidder; the capped budget answers in place of this oracle
    (F,), diag = fp_partial_estimate(exact_power_oracle((1.0,)), **args)
    T = diag["T"]
    assert (T, diag["eps1"], diag["levels"]) == (13, eps1, levels.size)

    def capped(x):
        return ceiling - (ceiling - min(x, ceiling))

    ref_h = [reference_search(lambda x: x, u, T, eps1) for u in levels]
    ref = [reference_search(capped, u, T, eps1) for u in levels]
    blind = [u for u in levels if not abs(ceiling - u) <= eps1 / 2.0 and not ceiling > u]
    pruned = len(blind)
    assert diag["pruned_levels"] == pruned > 300
    # pruned levels are never probed: the first step reads every H level and
    # the H_1 levels the ceiling leaves open
    assert probed[1] == (2 * levels.size - pruned, args["n_search"])
    (targets, columns, found), = searches
    assert targets[columns == 1].tolist() == levels[:levels.size - pruned].tolist()
    assert found[columns == 0].tobytes() == np.array(ref_h).tobytes()
    assert found[columns == 1].tobytes() == np.array(ref[:levels.size - pruned]).tobytes()
    # a pruned level's value is the plain search's, which ends at 1 - 2^-T
    assert ref[levels.size - pruned:] == [1.0 - 2.0 ** -T] * pruned
    grid = np.unique(np.concatenate([ref_h, ref]))
    assert F.breakpoints.tobytes() == np.concatenate([[0.0], grid]).tobytes()


def test_fp_partial_estimate_is_pinned_per_seed():
    # re-pinned when the level searches were batched: the probes of many
    # reserves now share one oracle call (one spawn(k) per call), so each
    # probe draws from a different child stream than before, and the H_i
    # levels above base_freq[i] are no longer probed (602200 draws before,
    # 351600 after; beta left the diagnostics). Re-pinned again when the
    # point probes moved to one pass over the union of the bidders' grids
    # after all searches: the searches of later bidders now draw before any
    # point probe, and a reserve shared by several grids is probed once
    # (351600 draws before, 247800 now; point_reserves joined the
    # diagnostics). Re-pinned again when H and every H_i moved into one
    # search: the readings of all columns now share the oracle calls of a
    # step, so the probes draw from other child streams, but each level
    # still takes one fresh reading per step and the law is unchanged
    # (247800 draws, 23 batches, 52 point reserves and digest 40fc6de8...
    # before; 249400, 13 and 53 after). Re-pinned again when the oracle
    # moved to the exact multinomial law of the counts, one call per
    # reading: same law, other draws (249400 draws, 13 batches, 120 pruned
    # levels, 53 point reserves and digest 9c5423ee... before). A change
    # that moves any draw, call boundary or rounding changes the hash.
    oracle = make_fp_partial_oracle(uniform_model())
    cdfs, diag = fp_partial_estimate(oracle, p=0.5, gamma=0.5, eps=0.2, seed=1,
                                     n_search=200, n_point=2000, n_base=20000)
    assert diag["oracle_calls"] == 255000
    assert (diag["oracle_batches"], diag["pruned_levels"]) == (12, 121)
    assert diag["point_reserves"] == 57
    assert "beta" not in diag
    assert estimate_digest(cdfs, diag) == (
        "b9e2ff68c70e005acd7aab4cc18b5693f8944078cb8ca0a4ea644760d7e55835")
