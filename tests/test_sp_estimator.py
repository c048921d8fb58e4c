import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from auctionmetrics import sp_estimator
from auctionmetrics.auction_sim import (
    FORMAT_SP,
    AuctionModel,
    SampleSet,
    make_sp_partial_oracle,
    simulate_fp,
    simulate_sp,
)
from auctionmetrics.dist_core import (
    BoundedDensityModel,
    PiecewiseCdf,
    kolmogorov,
    uniform_cdf,
)
from auctionmetrics.errors import EstimationError, ValidationError
from auctionmetrics.fp_estimator import _OracleBudget, noisy_quantile_search
from auctionmetrics.sp_estimator import (
    CONTRACTIVITY_CAP,
    SpGrid,
    SpParams,
    _build_grid,
    _h_clip_bounds,
    _jacobian_rowsum,
    _power_product,
    coarse_U,
    empirical_G_sp,
    estimate_sp,
    recover_F,
    run_fixed_point,
    run_pipeline,
    sample_contraction,
    sp_partial_estimate,
    sp_partial_pointwise,
)
from reference import CallableEval


def uniform_model(k=2):
    return AuctionModel(bid_dists=[uniform_cdf()] * k)


def hand_sample():
    # prices 0.2 (z=1), 0.5 (z=2), 0.5 (z=1), 0.9 (z=2)
    return SampleSet(y=np.array([0.2, 0.5, 0.5, 0.9]),
                     z=np.array([1, 2, 1, 2]), k=2, auction=FORMAT_SP)


# -- parameters ---------------------------------------------------------------


def test_params_validation():
    with pytest.raises(ValidationError):
        SpParams(alpha=2.0, eta=1.0, eps=0.1, theta=0.05, nu=0.02,
                 micro_delta=1e-3, fp_iters=5)
    with pytest.raises(ValidationError):
        SpParams(alpha=1.0, eta=1.0, eps=0.1, theta=0.05, nu=0.96,
                 micro_delta=1e-3, fp_iters=5)
    with pytest.raises(ValidationError):
        SpParams(alpha=1.0, eta=1.0, eps=0.1, theta=0.05, nu=0.02,
                 micro_delta=0.05, fp_iters=5)


def test_desk_defaults_are_admissible():
    p = SpParams.desk(0.5, 2.0, 0.1, n=100000)
    assert 0 < p.micro_delta < p.nu
    # adaptive width keeps a single cell near 1-theta inside the budget
    assert p.micro_delta <= 0.25 * 0.5 ** 2 * p.theta / (2 * 2.0 ** 2) + 1e-12
    # delta <= min(1e-3, theta/8) stays under nu = min(0.05, theta/2) for
    # every accuracy and size desk accepts
    for alpha, eta in ((0.1, 10.0), (0.5, 2.0), (1.0, 1.0)):
        for eps in (1e-3, 0.1, 0.999):
            for n in (int(100.0 / alpha ** 2), 10 ** 9):
                p = SpParams.desk(alpha, eta, eps, n=n)
                assert p.micro_delta <= min(1e-3, p.theta / 8.0) < p.nu


# -- empirical pieces -----------------------------------------------------------


def test_empirical_G_sp_hand_values():
    G1 = empirical_G_sp(hand_sample(), 1)
    assert G1.eval(0.1) == 0.0
    assert G1.eval(0.2) == pytest.approx(0.25)
    assert G1.eval(0.6) == pytest.approx(0.5)
    G2 = empirical_G_sp(hand_sample(), 2)
    assert G2.eval(1.0) == pytest.approx(0.5)
    # sub-CDFs of the winners partition the price CDF
    for x in (0.3, 0.7, 1.0):
        assert G1.eval(x) + G2.eval(x) == pytest.approx(
            np.mean(hand_sample().y <= x))


def test_coarse_U_hand_values():
    # weights 1/(n*(1-y)) with floor theta/8 on the denominator
    c = coarse_U(hand_sample(), 1, theta=0.2)
    assert c.eval(0.1) == 0.0
    assert c.eval(0.2) == pytest.approx(1 / (4 * 0.8))
    assert c.eval(0.6) == pytest.approx(1 / (4 * 0.8) + 1 / (4 * 0.5))


def test_coarse_U_floors_denominator():
    s = SampleSet(y=np.array([0.999, 0.1]), z=np.array([1, 1]), k=2, auction=FORMAT_SP)
    c = coarse_U(s, 1, theta=0.2)
    # 1 - 0.999 = 0.001 < theta/8 = 0.025, so the floor applies
    assert c.eval(1.0) == pytest.approx(1 / (2 * 0.9) + 1 / (2 * 0.025))


def test_coarse_U_rejects_a_bidder_index_out_of_range():
    # an index past k used to give an empty step function that reads 0;
    # empirical_G_sp already raised
    s = hand_sample()
    for i in (0, 3, 5):
        with pytest.raises(ValidationError, match="bidder index out of range"):
            coarse_U(s, i, 0.2)
        with pytest.raises(ValidationError, match="bidder index out of range"):
            empirical_G_sp(s, i)


def test_power_product_k2_swaps_rows():
    U = np.array([[0.2, 0.4], [0.3, 0.9]])
    out = _power_product(U, 2)
    np.testing.assert_allclose(out, U[::-1])


def test_power_product_k3_closed_form():
    # H_i = prod_{j != i} U_j^{1/2} / U_i^{1/2}
    U = np.array([[0.2], [0.3], [0.4]])
    out = _power_product(U, 3)
    assert out[0, 0] == pytest.approx(np.sqrt(0.3 * 0.4 / 0.2))
    assert out[2, 0] == pytest.approx(np.sqrt(0.2 * 0.3 / 0.4))


# -- grid construction ----------------------------------------------------------


def sample_pieces(s, params):
    """The G-hat and coarse-U lists that ``estimate_sp`` builds from s."""
    ghat = [empirical_G_sp(s, i) for i in range(1, s.k + 1)]
    coarse = [coarse_U(s, i, params.theta) for i in range(1, s.k + 1)]
    return ghat, coarse


def test_grid_postconditions():
    s = simulate_sp(uniform_model(), 40000, 31)
    params = SpParams.desk(1.0, 1.0, 0.1, n=s.n)
    grid, _ = _build_grid(*sample_pieces(s, params), params)
    ends = grid.endpoints
    assert ends[0] == params.nu
    assert ends[-1] == pytest.approx(1.0 - params.theta, abs=params.micro_delta)
    # doubling cap: each endpoint at most min(2 * previous, 1 - theta/2)
    for prev, nxt in zip(ends[:-1], ends[1:]):
        assert nxt <= min(2 * prev, 1.0 - params.theta / 2.0) + 1e-12
    assert all(c >= 1 for c in grid.micro_counts)


def test_grid_budget_below_cap():
    s = simulate_sp(uniform_model(), 40000, 37)
    params = SpParams.desk(1.0, 1.0, 0.1, n=s.n)
    _, gammas = _build_grid(*sample_pieces(s, params), params)
    assert max(gammas) <= CONTRACTIVITY_CAP + 1e-12


def test_grid_micro_points_cover_interval():
    s = simulate_sp(uniform_model(), 20000, 41)
    params = SpParams.desk(1.0, 1.0, 0.1, n=s.n)
    grid, _ = _build_grid(*sample_pieces(s, params), params)
    pts = np.concatenate([cell.xs for cell in grid.cells])
    assert np.all(np.diff(pts) > 0)
    assert pts[0] == pytest.approx(params.nu + params.micro_delta)
    assert pts[-1] == pytest.approx(grid.endpoints[-1])


def windowed_build_grid(ghat_list, coarse_list, params):
    """The grid build before the lattice: every macro-interval evaluated G-hat
    and the coarse U on its own candidate window, from a running-sum start, and
    kept the first l columns, or the first one alone if its budget is below 1;
    no cell ends the grid past 1 - theta.
    Returns (endpoints, cell xs, gammas, lone (x, budget) pairs), or the
    stall's (message, endpoints)."""
    delta = params.micro_delta
    x_prev = params.nu
    endpoints, xs_kept, gammas, lone = [x_prev], [], [], []
    while x_prev < 1.0 - params.theta - 1e-12:
        cap = min(2.0 * x_prev, 1.0 - params.theta / 2.0)
        l_max = int(math.floor((cap - x_prev) / delta + 1e-9))
        xs = x_prev + delta * np.arange(1, l_max + 1)
        prev = np.concatenate([[x_prev], xs[:-1]])
        deltas = np.maximum(np.vstack([g.eval(xs) - g.eval(prev) for g in ghat_list]), 0.0)
        coarse = np.vstack([c.eval(xs) for c in coarse_list])
        _, h_hi = _h_clip_bounds(params, xs)
        box_lo = coarse / (2.0 * params.eta)
        rows = _jacobian_rowsum(h_hi, box_lo, coarse * (2.0 / params.alpha))
        budget = np.cumsum(deltas * rows / (1.0 - h_hi)[None, :] ** 2, axis=1).max(axis=0)
        ok = np.nonzero(budget <= CONTRACTIVITY_CAP)[0]
        if ok.size:
            l = int(ok[-1] + 1)
        elif xs_kept and xs[0] > 1.0 - params.theta + 1e-12:
            break
        elif budget[0] < 1.0:
            l = 1
            lone.append([xs[0], budget[0]])
        else:
            return f"no admissible micro cell at x={x_prev:.6g}", endpoints
        xs_kept.append(xs[:l])
        x_prev = x_prev + l * delta
        endpoints.append(x_prev)
        gammas.append(float(budget[l - 1]))
    return np.asarray(endpoints), xs_kept, gammas, lone


@pytest.mark.parametrize("case", ["uniform2", "bounded2", "uniform3", "bounded3-stall"])
def test_lattice_grid_matches_the_windowed_build(case):
    # lattice points are nu + m*delta, not a running sum, so they move by ulps;
    # the cuts, and hence T and the micro counts, stay those of the windows.
    # uniform3 takes 7 one-cell intervals from x = 0.950 on; bounded3 stalls
    # where a single cell's own budget is 1.05
    model, n, seed, alpha, eta = {
        "uniform2": (uniform_model(), 40000, 31, 1.0, 1.0),
        "bounded2": (bounded2_model(), 200000, 0, 0.5, 2.0),
        "uniform3": (uniform_model(3), 20000, 1, 1.0, 1.0),
        "bounded3-stall": (bounded3_model(), 20000, 0, 0.5, 2.0),
    }[case]
    s = simulate_sp(model, n, seed)
    params = SpParams.desk(alpha, eta, 0.1, n=s.n)
    pieces = sample_pieces(s, params)
    ref = windowed_build_grid(*pieces, params)
    ulps = 8 * np.finfo(float).eps
    if case.endswith("stall"):
        assert ref[0].startswith("no admissible micro cell")
        with pytest.raises(EstimationError, match="no admissible micro cell") as info:
            _build_grid(*pieces, params)
        # the last endpoint is the x the construction stalled at; over its
        # ~900 intervals the windows' running sum drifts by up to an ulp each
        ends = info.value.diagnostics["endpoints"]
        np.testing.assert_allclose(ends, ref[1], rtol=0, atol=len(ends) * np.finfo(float).eps)
        assert ends[-1] == pytest.approx(ref[1][-1], rel=1e-12) and ends[-1] > 0.9
        return
    ends, xs, gammas, lone = ref
    grid, got_gammas = _build_grid(*pieces, params)
    assert len(grid.lone_cells) == len(lone) == (7 if case == "uniform3" else 0)
    if lone:
        np.testing.assert_allclose(grid.lone_cells, lone, rtol=1e-12, atol=ulps)
    assert grid.T == len(xs) > 1
    assert grid.micro_counts == [x.size for x in xs]
    np.testing.assert_allclose(grid.endpoints, ends, rtol=0, atol=ulps)
    for cell, want in zip(grid.cells, xs):
        np.testing.assert_allclose(cell.xs, want, rtol=0, atol=ulps)
    np.testing.assert_allclose(got_gammas, gammas, rtol=1e-12)


# -- fixed point -----------------------------------------------------------------


def population_pieces(k=2):
    # symmetric uniform bids: G_i(x) = (x - x^2/2)/k * k / k ... for k=2 each
    # winner sub-CDF is (x - x^2/2) / 1 restricted per bidder: Pr(W=i, Y<=x)
    # = (1/k) * Pr(second-highest <= x) -- for k=2, Pr = 2x - x^2, halved.
    ghat = [CallableEval(lambda x: (2 * x - x ** 2) / 2.0) for _ in range(k)]
    coarse = [CallableEval(lambda x: np.asarray(x, dtype=float) + 0.0 * x)
              for _ in range(k)]
    return ghat, coarse


def late_bidder_log(n=20000, seed=0):
    """Bidder 1 bids uniformly on [0.2, 1], bidder 2 on [0, 1]: bidder 2 wins
    no price below 0.2, a valid log on which the state box is empty."""
    late = PiecewiseCdf([0.2, 1.0], [0.0, 1.0], interpolation="linear")
    return simulate_sp(AuctionModel(bid_dists=[late, uniform_cdf()]), n, seed)


def test_estimate_sp_names_a_bidder_that_wins_no_low_price():
    # a valid log the fixed point cannot start from is an estimator failure,
    # not bad input, and the message names the bidder
    with pytest.raises(EstimationError, match=r"bidder 2 wins no price up to x=0\.19") as info:
        estimate_sp(late_bidder_log(), 0.5, 2.0, 0.1)
    assert info.value.diagnostics["bidder"] == 2
    assert 0.19 < info.value.diagnostics["x"] < 0.2


def test_fixed_point_output_stays_in_box_and_monotone():
    s = simulate_sp(uniform_model(), 20000, 47)
    params = SpParams.desk(1.0, 1.0, 0.1, n=s.n)
    _, diag = estimate_sp(s, 1.0, 1.0, 0.1)
    assert diag["box_violations"] == 0
    assert max(diag["fp_gaps"]) < 1e-6


def interval_contractions(s, alpha, eta, eps, pairs, seed):
    """(sampled ratio, budget) per macro-interval of ``estimate_sp`` on s: the
    map of every interval sampled on ``pairs`` state pairs, in order, from one
    generator seeded ``seed``, at the left boundary the fixed point gave it."""
    params = SpParams.desk(alpha, eta, eps, n=s.n)
    grid, gammas = _build_grid(*sample_pieces(s, params), params)
    U, _ = run_fixed_point(grid, params)
    lefts = [grid.v0] + [U[:, end - 1] for end in np.cumsum(grid.micro_counts)[:-1]]
    rng = np.random.default_rng(seed)
    return [(sample_contraction(cell, V, pairs, rng), gamma)
            for cell, V, gamma in zip(grid.cells, lefts, gammas)]


def test_measured_contraction_below_cap():
    s = simulate_sp(uniform_model(), 20000, 53)
    ratios = interval_contractions(s, 1.0, 1.0, 0.1, pairs=5, seed=7)
    assert max(ratio for ratio, _ in ratios) <= 0.25


def test_population_pipeline_recovers_uniform():
    # exact population inputs: the recovered CDFs should match F(x) = x
    ghat, coarse = population_pieces()
    params = SpParams(alpha=1.0, eta=1.0, eps=0.02, theta=0.05, nu=0.025,
                      micro_delta=1e-3, fp_iters=20)
    cdfs, diag = run_pipeline(ghat, coarse, params)
    err = max(kolmogorov(F, uniform_cdf(), 0.05, 0.95) for F in cdfs)
    assert err <= 0.02
    assert diag["box_violations"] == 0


def test_recover_F_pins_outside_window():
    ghat, coarse = population_pieces()
    params = SpParams(alpha=1.0, eta=1.0, eps=0.05, theta=0.05, nu=0.025,
                      micro_delta=1e-3, fp_iters=15)
    cdfs, _ = run_pipeline(ghat, coarse, params)
    for F in cdfs:
        assert F.eval(0.01) == 0.0            # strictly below theta
        assert F.eval(0.9999) == 1.0          # strictly above 1 - theta
        assert F.eval(1.0) == 1.0
        assert F.is_full_cdf


def keep_first_recover_F(xs, U, params):
    """The construction ``recover_F`` replaced: a keep-first ``np.unique`` of
    the breakpoints, then a running maximum of each bidder's values."""
    keep = (xs >= params.theta - 1e-12) & (xs <= 1.0 - params.theta + 1e-12)
    ratios = np.clip(_power_product(np.maximum(U, 1e-300), U.shape[0]), 0.0, 1.0)
    top = max(1.0 - params.theta, float(xs[keep][-1]))
    bp = np.concatenate([[params.theta], xs[keep], [np.nextafter(top, 1.0)]])
    bp, idx = np.unique(bp, return_index=True)
    cdfs, repairs = [], []
    for vals in ratios[:, keep]:
        fitted, adjustment = sp_estimator.pav_nondecreasing(vals)
        repairs.append(adjustment)
        fitted = np.clip(fitted, 0.0, 1.0)
        fv = np.concatenate([[fitted[0]], fitted, [1.0]])
        cdfs.append(PiecewiseCdf(bp, np.maximum.accumulate(fv[idx]),
                                 interpolation="step", is_full_cdf=True))
    return cdfs, {"isotonic_repairs": repairs, "isotonic_repair_total": max(repairs)}


def test_recover_F_matches_the_keep_first_construction():
    # micro points that start at theta, within 1e-12 below it, or off it, and
    # end inside, at, within 1e-12 past or well past 1 - theta; states with
    # zeros and with ratios above 1
    rng = np.random.default_rng(31)
    for _ in range(400):
        theta = float(rng.choice([0.05, 0.1, 0.2]))
        params = SpParams(alpha=0.5, eta=2.0, eps=0.1, theta=theta, nu=theta / 2.0,
                          micro_delta=1e-3, fp_iters=5)
        first = theta + float(rng.choice([0.0, -5e-13, -1e-12, 1e-3, -1e-3]))
        last = float(rng.choice([0.5, 1.0 - theta, 1.0 - theta + 1e-12, 1.0 - theta / 2.0]))
        xs = np.unique(np.concatenate([[first, last], rng.uniform(first, last, 20)]))
        U = rng.uniform(0.0, 2.0, (int(rng.integers(2, 5)), xs.size))
        U[rng.random(U.shape) < 0.1] = 0.0
        got, got_diag = recover_F(xs, U, params)
        want, want_diag = keep_first_recover_F(xs, U, params)
        assert got_diag == want_diag
        for F, G in zip(got, want, strict=True):
            assert np.array_equal(F.breakpoints, G.breakpoints)
            assert np.array_equal(F.values, G.values)
            assert (F.interpolation, F.is_full_cdf) == ("step", True)


def loop_jacobian_rowsum(hbar, box_lo, box_hi):
    """The double loop over (i, j) that ``_jacobian_rowsum`` replaced."""
    k = box_lo.shape[0]
    box_lo = np.maximum(box_lo, 1e-12)
    box_hi = np.maximum(box_hi, box_lo)
    log_lo = np.log(box_lo)
    log_hi = np.log(box_hi)
    hi_sum = log_hi.sum(axis=0)
    rows = np.empty_like(box_lo)
    for i in range(k):
        total = np.zeros(hbar.size)
        for j in range(k):
            if j == i:
                continue
            log_b = ((hi_sum - log_hi[i] - log_hi[j]) / (k - 1.0)
                     + (2.0 - k) / (k - 1.0) * log_lo[j]
                     - (k - 2.0) / (k - 1.0) * log_lo[i])
            total += np.minimum(np.exp(log_b), hbar / box_lo[j]) / (k - 1.0)
        if k > 2:
            log_bii = ((hi_sum - log_hi[i]) / (k - 1.0)
                       - ((k - 2.0) / (k - 1.0) + 1.0) * log_lo[i])
            total += ((k - 2.0) / (k - 1.0)
                      * np.minimum(np.exp(log_bii), hbar / box_lo[i]))
        rows[i] = total
    return rows


def test_jacobian_rowsum_equals_the_double_loop_bit_for_bit():
    # random boxes for k = 2..6 over 1 to 40 points, with zero lower bounds
    # and upper bounds below the lower ones, which both floor and lift
    rng = np.random.default_rng(32)
    for trial in range(1500):
        k, m = 2 + trial % 5, int(rng.integers(1, 41))
        box_lo = rng.random((k, m)) * 10.0 ** rng.uniform(-13.0, 0.0, (k, 1))
        box_lo[rng.random((k, m)) < 0.2] = 0.0
        box_hi = box_lo * rng.uniform(0.5, 40.0, (k, m))
        hbar = rng.random(m)
        got = _jacobian_rowsum(hbar, box_lo, box_hi)
        assert got.tobytes() == loop_jacobian_rowsum(hbar, box_lo, box_hi).tobytes()


class CountingEval:
    """An eval-able that counts the calls made on the piece it wraps."""

    def __init__(self, piece):
        self.piece = piece
        self.calls = 0

    def eval(self, x):
        self.calls += 1
        return self.piece.eval(x)


def test_pipeline_evaluates_each_input_once_per_point():
    # the grid build is the only reader, with one call per piece on the whole
    # lattice: G-hat at nu and every micro point, the coarse U at the micro
    # points; the fixed point and the recovery read the cells. No interval
    # needs a lone cell here, so no contraction is sampled
    ghat, coarse = population_pieces()
    ghat = [CountingEval(g) for g in ghat]
    coarse = [CountingEval(c) for c in coarse]
    params = SpParams(alpha=1.0, eta=1.0, eps=0.02, theta=0.05, nu=0.025,
                      micro_delta=1e-3, fp_iters=20)
    _, diag = run_pipeline(ghat, coarse, params)
    assert diag["T"] > 1
    assert "lone_cells" not in diag and "contraction_samples" not in diag
    assert [g.calls for g in ghat] == [1] * 2
    assert [c.calls for c in coarse] == [1] * 2


def bounded2_model():
    # the density pair of bounded3_model as 4097-knot CDFs, as in test_09
    rising, falling = bounded3_model().bid_dists[:2]
    return AuctionModel(bid_dists=[rising.to_cdf(), falling.to_cdf()])


def test_estimate_sp_is_pinned_per_seed():
    # digests of the CDFs and diagnostics; a change that moves any micro
    # point, iterate or rounding changes the hash. Uniform k=2 and the
    # bounded-density pair run the desk defaults. Re-pinned when the grid
    # build moved onto one lattice: micro points are nu + m*delta, not a
    # running sum, so they, the endpoints, the budgets and the CDFs move by
    # ulps (T and every micro count stay), and the unread eps_g left the
    # params diagnostics. The digests
    # before were 6b286a24... and 7304e1f4... Re-pinned when the always-0
    # degenerate_lower_clips key left the diagnostics (an empty state box now
    # raises before the fixed point); the CDF-only digests held, and the
    # digests before were a3ebdad6... and 9aae8ef9... Re-pinned when the
    # contraction sample moved onto the lone cells: neither log has one, so
    # contraction_samples left the diagnostics; each digest is the one before
    # (056bcd43... and 46c1bc84...) taken with that key popped
    cdfs, diag = estimate_sp(simulate_sp(uniform_model(), 100000, 59), 1.0, 1.0, 0.1)
    assert estimate_digest(cdfs, {}) == (
        "2e2885649c8f7a1312b47d5130912f6e374d669c7e4659860b676ed0240491ea")
    assert estimate_digest(cdfs, diag) == (
        "54ae081b0b6be7b702e53f64cac76c6198a3ba0065d33605e6ac5dc5133e3d3b")
    cdfs, diag = estimate_sp(simulate_sp(bounded2_model(), 200000, 0), 0.5, 2.0, 0.1)
    assert estimate_digest(cdfs, {}) == (
        "98344d708419f48b12cb58f2d673286e24cc3c830a728f63940f1279359e8f6c")
    assert estimate_digest(cdfs, diag) == (
        "513817c80d3e61f0824b49a5e7b1d11df66d45de3fe4d9b2804aff2bc72a39d0")


def test_estimate_sp_converges_to_uniform():
    s = simulate_sp(uniform_model(), 100000, 59)
    cdfs, diag = estimate_sp(s, 1.0, 1.0, 0.1)
    theta = diag["params"]["theta"]
    err = max(kolmogorov(F, uniform_cdf(), theta, 1.0 - theta) for F in cdfs)
    assert err <= 0.05
    assert diag["isotonic_repair_total"] < 0.05


@pytest.mark.parametrize("n", [2000, 5000, 20000])
def test_estimate_sp_answers_below_the_fixed_trim(n):
    # at the fixed trim 0.02 one price of weight 1/n near 1 - theta broke the
    # contraction cap and every seed stalled; theta now grows as 4/(alpha*sqrt(n))
    model = bounded2_model()
    for seed in range(4):
        cdfs, diag = estimate_sp(simulate_sp(model, n, seed), 0.5, 2.0, 0.1)
        theta = diag["params"]["theta"]
        assert theta == pytest.approx(4.0 / (0.5 * math.sqrt(n)))
        for i, F in enumerate(cdfs, start=1):
            assert kolmogorov(F, model.bid_cdf(i), theta, 1.0 - theta) <= 0.1


@pytest.mark.parametrize("n, seed", [(2000, 891507451), (5000, 1867821177)])
def test_estimate_sp_answers_when_only_cells_past_the_trim_are_inadmissible(n, seed):
    # these logs find no admissible micro cell at a start whose cell lies
    # beyond 1 - theta, where recover_F reads nothing; the grid ends there
    model = bounded2_model()
    s = simulate_sp(model, n, seed)
    params = SpParams.desk(0.5, 2.0, 0.1, n=n)
    grid, _ = _build_grid(*sample_pieces(s, params), params)
    assert params.theta < 1.0 - grid.endpoints[-1] < params.theta + params.micro_delta
    cdfs, diag = estimate_sp(s, 0.5, 2.0, 0.1)
    theta = diag["params"]["theta"]
    for i, F in enumerate(cdfs, start=1):
        assert kolmogorov(F, model.bid_cdf(i), theta, 1.0 - theta) <= 0.1


ONE_CELL_LOGS = [(2000, 2270173015), (5000, 1760764637), (20000, 647311919)]


@pytest.mark.parametrize("n, seed", ONE_CELL_LOGS)
def test_estimate_sp_answers_with_a_one_cell_interval_above_the_cap(n, seed):
    # at one start inside [theta, 1 - theta] no cell fits under the 1/4 cap;
    # that cell alone has a budget below 1, so it is still a contraction and
    # becomes a one-cell interval, which the diagnostics list
    model = bounded2_model()
    cdfs, diag = estimate_sp(simulate_sp(model, n, seed), 0.5, 2.0, 0.1)
    theta = diag["params"]["theta"]
    [(x, budget)] = diag["lone_cells"]
    assert theta < x < 1.0 - theta and CONTRACTIVITY_CAP < budget < 1.0
    assert budget in diag["gamma_per_interval"]
    for i, F in enumerate(cdfs, start=1):
        assert kolmogorov(F, model.bid_cdf(i), theta, 1.0 - theta) <= 0.1


@pytest.mark.parametrize("n, seed", ONE_CELL_LOGS)
def test_estimate_sp_samples_the_contraction_of_each_lone_cell(n, seed):
    # no budget below the cap certifies a lone cell, so its map is sampled;
    # the sampled ratio is a lower estimate of a Lipschitz constant that the
    # cell's own budget bounds
    _, diag = estimate_sp(simulate_sp(bounded2_model(), n, seed), 0.5, 2.0, 0.1)
    assert len(diag["contraction_samples"]) == len(diag["lone_cells"])
    for ratio, (_, budget) in zip(diag["contraction_samples"], diag["lone_cells"]):
        assert 0.0 < ratio <= budget


def reference_fixed_point_map(U, V, cell):
    """``fixed_point_map`` as it was, clipping through ``np.clip``."""
    H = np.clip(_power_product(U, U.shape[0]), cell.h_lo[None, :], cell.h_hi[None, :])
    integ = np.cumsum(cell.deltas / (1.0 - H), axis=1)
    return np.clip(V[:, None] + integ, cell.box_lo, cell.box_hi)


def reference_fixed_point(grid, params):
    """(U, fp_gaps, clip_rates, box_violations, contraction_samples) of the
    per-interval loop ``run_fixed_point`` replaced: a gap at every iteration,
    and each interval's diagnostics on its own state and box."""
    lone = {x for x, _ in grid.lone_cells}
    rng = np.random.default_rng(0)
    V, all_U, gaps, clip_rates, box_violations, contraction = grid.v0, [], [], [], 0, []
    for cell in grid.cells:
        U = np.maximum.accumulate(np.clip(cell.coarse, cell.box_lo, cell.box_hi), axis=1)
        gap = 0.0
        for _ in range(params.fp_iters):
            new = reference_fixed_point_map(U, V, cell)
            gap = float(np.max(np.abs(new - U)))
            U = new
        gaps.append(gap)
        at_bound = (np.isclose(U, cell.box_lo) | np.isclose(U, cell.box_hi))
        clip_rates.append(float(at_bound.mean()))
        box_violations += int(np.sum((U < cell.box_lo - 1e-9) | (U > cell.box_hi + 1e-9)))
        box_violations += int(np.sum(np.diff(U, axis=1) < -1e-9))
        if cell.xs[0] in lone:
            contraction.append(sample_contraction(cell, V, 5, rng))
        all_U.append(U)
        V = U[:, -1].copy()
    return np.hstack(all_U), gaps, clip_rates, box_violations, contraction


def assert_fixed_point_matches_the_reference(grid, params, monkeypatch):
    U, diag = run_fixed_point(grid, params)
    with monkeypatch.context() as patched:  # the contraction sample maps through it too
        patched.setattr(sp_estimator, "fixed_point_map", reference_fixed_point_map)
        want_U, *want = reference_fixed_point(grid, params)
    assert U.tobytes() == want_U.tobytes()
    assert [diag["fp_gaps"], diag["clip_rates"], diag["box_violations"],
            diag.get("contraction_samples", [])] == want
    return diag


def log_grid(model, n, seed, alpha, eta):
    s = simulate_sp(model, n, seed)
    params = SpParams.desk(alpha, eta, 0.1, n=s.n)
    return _build_grid(*sample_pieces(s, params), params)[0], params


@pytest.mark.parametrize("case", ["bounded2", "uniform2", "one-cell"])
def test_fixed_point_diagnostics_equal_the_per_interval_loop(case, monkeypatch):
    logs = {"bounded2": [(bounded2_model(), n, seed, 0.5, 2.0)
                         for n in (2000, 20000) for seed in range(3)],
            "uniform2": [(uniform_model(), n, seed, 1.0, 1.0)
                         for n in (2000, 20000) for seed in range(3)],
            "one-cell": [(bounded2_model(), n, seed, 0.5, 2.0) for n, seed in ONE_CELL_LOGS]}
    for log in logs[case]:
        grid, params = log_grid(*log)
        diag = assert_fixed_point_matches_the_reference(grid, params, monkeypatch)
        assert ("contraction_samples" in diag) == (case == "one-cell")
        # no iteration: every gap is 0.0
        idle = dataclasses.replace(params, fp_iters=0)
        diag = assert_fixed_point_matches_the_reference(grid, idle, monkeypatch)
        assert diag["fp_gaps"] == [0.0] * grid.T


def test_fixed_point_diagnostics_equal_the_per_interval_loop_on_broken_boxes(monkeypatch):
    # boxes that the state cannot respect: a column whose upper bound lies
    # below its lower one (outside the box, and a fall inside the interval)
    # and an interval lowered below its left neighbour (a fall between
    # intervals, which is not a violation)
    grid, params = log_grid(bounded2_model(), 20000, 1, 0.5, 2.0)
    cells = []
    for tau, cell in enumerate(grid.cells):
        box_lo, box_hi = cell.box_lo.copy(), cell.box_hi.copy()
        mid = box_hi.shape[1] // 2
        if tau % 3 == 0 and mid > 0:
            box_hi[:, mid] = 0.5 * box_lo[:, mid]
        elif tau % 3 == 1:
            box_lo *= 0.5
            box_hi = 1.01 * box_lo
        cells.append(dataclasses.replace(cell, box_lo=box_lo, box_hi=box_hi))
    broken = SpGrid(grid.endpoints, cells, grid.v0, grid.lone_cells)
    diag = assert_fixed_point_matches_the_reference(broken, params, monkeypatch)
    assert diag["box_violations"] > 0 and max(diag["clip_rates"]) == 1.0


@pytest.mark.parametrize("n, seed", [(20000, 0), ONE_CELL_LOGS[0]])
def test_fixed_point_maps_T_times_fp_iters_plus_the_lone_samples(n, seed, monkeypatch):
    calls = []
    inner = sp_estimator.fixed_point_map
    monkeypatch.setattr(sp_estimator, "fixed_point_map",
                        lambda *args: calls.append(1) or inner(*args))
    _, diag = estimate_sp(simulate_sp(bounded2_model(), n, seed), 0.5, 2.0, 0.1)
    # each lone cell maps both states of each of its 5 pairs
    lone = len(diag.get("lone_cells", []))
    assert len(calls) == diag["T"] * diag["params"]["fp_iters"] + 2 * 5 * lone
    assert lone == (seed != 0)


def test_desk_refuses_what_the_trim_cannot_cover():
    # bounds that the trims would divide by are rejected before they do
    for alpha, eta in ((0.0, 1.0), (0.5, 0.0)):
        with pytest.raises(ValidationError, match="need 0 < alpha <= eta"):
            SpParams.desk(alpha, eta, 0.1, n=2000)
    # at n <= 64/alpha^2 the trim 4/(alpha*sqrt(n)) leaves no interval
    with pytest.raises(EstimationError, match="n = 256 is too small: trim"):
        estimate_sp(simulate_sp(bounded2_model(), 256, 0), 0.5, 2.0, 0.1)


def test_estimate_sp_refuses_a_lattice_above_the_size_cap():
    # at eta = 1e6 and n = 2000 desk's micro_delta = alpha^2 theta/(8 eta^2)
    # is 5.6e-15: a lattice of 1.5e14 points, about 1.2e15 bytes
    message = (r"the lattice of nu = 0\.05, theta = 0\.178885 and micro_delta = "
               r"5\.59017e-15 would hold 1\.54e\+14 points, more than the 10,000,000")
    with pytest.raises(ValidationError, match=message):
        estimate_sp(simulate_sp(bounded2_model(), 2000, 0), 0.5, 1e6, 0.1)
    with pytest.raises(ValidationError, match=message):
        SpParams.desk(0.5, 1e6, 0.1, n=2000)


def reference_G_sp(samples, i):
    """(breakpoints, values) that the old empirical_G_sp built."""
    ys = np.sort(samples.y[samples.z == i])
    if ys.size == 0:
        return np.array([0.0]), np.array([0.0])
    uniq, counts = np.unique(ys, return_counts=True)
    return uniq, np.cumsum(counts) / samples.n


def reference_coarse_eval(samples, i, theta, x):
    """The removed CoarseU.eval on the arrays the old coarse_U built."""
    ys = samples.y[samples.z == i]
    weights = 1.0 / (samples.n * np.maximum(1.0 - ys, theta / 8.0))
    srt = np.argsort(ys, kind="stable")
    idx = np.searchsorted(ys[srt], np.atleast_1d(x), side="right")
    return np.concatenate([[0.0], np.cumsum(weights[srt])])[idx]


@settings(max_examples=100, deadline=None)
@given(prices=st.lists(st.integers(0, 20), min_size=1, max_size=40),
       winners=st.lists(st.integers(1, 3), min_size=40, max_size=40),
       extra=st.lists(st.floats(-0.5, 1.5), max_size=10))
def test_coarse_U_matches_the_old_step_function(prices, winners, extra):
    # a 20-point price grid gives tied prices; a bidder may never win
    y = np.asarray(prices, dtype=np.float64) / 20.0
    s = SampleSet(y=y, z=winners[:y.size], k=3, auction=FORMAT_SP)
    x = np.concatenate([y, np.nextafter(y, -1.0), np.nextafter(y, 2.0), [-0.5, 0.0, 1.0, 1.5],
                        extra])
    for i in (1, 2, 3):
        want = reference_coarse_eval(s, i, 0.2, x)
        assert coarse_U(s, i, theta=0.2).eval(x).tobytes() == want.tobytes()
        G = empirical_G_sp(s, i)
        bp, vals = reference_G_sp(s, i)
        assert (G.breakpoints.tobytes(), G.values.tobytes()) == (bp.tobytes(), vals.tobytes())


def test_estimate_sp_rejects_a_first_price_sample_set():
    with pytest.raises(ValidationError, match="'sp' sample set"):
        estimate_sp(simulate_fp(uniform_model(), 200, 1), 1.0, 1.0, 0.1)


def test_estimate_sp_rejects_empty_sample():
    with pytest.raises(ValidationError):
        empirical_G_sp(SampleSet(y=np.empty(0), z=np.empty(0, dtype=int), k=2,
                                 auction=FORMAT_SP), 1)


# -- reserve-price probes ---------------------------------------------------------


def pointwise_at(oracle, x, n, rng):
    """``sp_partial_pointwise`` of n probes at reserve x, with the shares
    read as the estimator reads them."""
    return sp_partial_pointwise(_OracleBudget(oracle, rng).frequencies([x], n))


def test_sp_partial_pointwise_identity():
    # k=2 uniforms: each Z_j mean is F_other(x) = x, and the power-product
    # inverts back to x
    oracle = make_sp_partial_oracle(uniform_model())
    rng = np.random.default_rng(11)
    fhat, means = pointwise_at(oracle, 0.6, 50000, rng)
    np.testing.assert_allclose(means, 0.6, atol=0.01)
    np.testing.assert_allclose(fhat, 0.6, atol=0.02)


def test_sp_partial_pointwise_k3():
    oracle = make_sp_partial_oracle(uniform_model(3))
    rng = np.random.default_rng(13)
    fhat, means = pointwise_at(oracle, 0.7, 80000, rng)
    np.testing.assert_allclose(means, 0.49, atol=0.01)  # prod of two uniforms
    np.testing.assert_allclose(fhat, 0.7, atol=0.02)


def test_sp_partial_pointwise_degenerate_raises():
    oracle = make_sp_partial_oracle(uniform_model())
    rng = np.random.default_rng(17)
    with pytest.raises(EstimationError):
        pointwise_at(oracle, 0.0, 200, rng)


def test_sp_partial_estimate_uniform():
    oracle = make_sp_partial_oracle(uniform_model())
    cdfs, diag = sp_partial_estimate(oracle, p=0.2, gamma=0.2, eps=0.1,
                                     seed=3, n_point=20000)
    grid = np.linspace(0.25, 0.99, 120)
    for F in cdfs:
        assert np.max(np.abs(F.eval(grid) - grid)) <= 0.1
        assert np.all(np.diff(F.values) >= 0)
    assert diag["oracle_calls"] > 0
    assert diag["oracle_calls"] % diag["n_point"] == 0


def test_sp_partial_estimate_validates_inputs():
    oracle = make_sp_partial_oracle(uniform_model())
    with pytest.raises(ValidationError):
        sp_partial_estimate(oracle, p=0.2, gamma=0.0, eps=0.1)
    with pytest.raises(ValidationError):
        sp_partial_estimate(oracle, p=0.2, gamma=0.2, eps=1.5)
    # a non-positive Lipschitz constant made the search one step long, and an
    # infinite one its length an OverflowError
    for lipschitz in (-1.0, math.inf):
        with pytest.raises(ValidationError, match="lipschitz"):
            sp_partial_estimate(oracle, p=0.2, gamma=0.2, eps=0.1, lipschitz=lipschitz)
    with pytest.raises(ValidationError, match="n_point must be >= 1"):
        sp_partial_estimate(oracle, p=0.2, gamma=0.2, eps=0.1, n_point=0)


def estimate_digest(cdfs, diagnostics):
    blob = json.dumps({"cdfs": [F.to_dict() for F in cdfs],
                       "diagnostics": diagnostics}, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def test_sp_partial_pointwise_means_are_exact_counts():
    # Z_j's mean is the sum of two exact count shares: bidder j's bound wins
    # and the reserve's wins, each the mean of its indicator bit for bit
    # (re-pinned when the oracle moved to the exact law: same law, other draws)
    oracle = make_sp_partial_oracle(uniform_model(3))
    _, means = pointwise_at(oracle, 0.7, 30001, np.random.default_rng(2))
    counts = oracle([0.7], 30001, np.random.default_rng(2))[0]
    # one outcome per probe: 1..3 a bound win, 4 the reserve's, 0 not counted
    winners = np.repeat(np.arange(5), counts)
    winners = np.append(winners, np.zeros(30001 - winners.size, dtype=int))
    for j in range(1, 4):
        ref = np.mean(winners == j) + np.mean(winners == 4)
        assert means[0, j - 1] == ref


def test_sp_partial_estimate_is_pinned_per_seed():
    # re-pinned when the estimator moved onto the count oracle and the
    # level-parallel searches: one probe at p starts each staircase at
    # F-hat_j(p), levels at or below it are not searched, and the probes of
    # many reserves share one oracle call (one spawn(k) per call), so each
    # probe draws from a different child stream than before. The digests
    # before were 73db44bd... (132000 draws) and 32bcde9e... (348000 draws).
    # Re-pinned again when every bidder's levels moved into one search: the
    # readings of all columns now share the oracle calls of a step, so the
    # probes draw from other child streams, but each level still takes one
    # fresh reading per step and the law is unchanged. The digests before
    # were d261353f... (130000 draws, 11 batches) and 28d01d4a... (214000
    # draws, 16 batches). Re-pinned again when the oracle moved to the
    # exact multinomial law of the counts, one call per reading: same law,
    # other draws. The digests before were a8f8a8d4... (130000 draws, 6
    # calls) and 3f51aa47... (206000 draws, 8 calls). A change that moves
    # any draw, call boundary or rounding changes the hash. Uniform k=2 reads
    # linear tables, the k=3 density model its piecewise-quadratic CDFs.
    cdfs, diag = sp_partial_estimate(make_sp_partial_oracle(uniform_model()),
                                     p=0.5, gamma=0.5, eps=0.1, seed=1, n_point=2000)
    assert (diag["oracle_calls"], diag["oracle_batches"], diag["searched_levels"]) == (
        136000, 7, 21)
    assert estimate_digest(cdfs, diag) == (
        "28fc744b9e6963af769fdbc9460f520253565fb92e514e1082297e9530076465")
    cdfs, diag = sp_partial_estimate(make_sp_partial_oracle(bounded3_model()),
                                     p=0.5, gamma=0.3, eps=0.1, seed=2, n_point=2000)
    assert (diag["oracle_calls"], diag["oracle_batches"], diag["searched_levels"]) == (
        206000, 6, 33)
    assert estimate_digest(cdfs, diag) == (
        "616f78e2ea83d064eb34a42d5213c24a4317eb2c1bdaee17c2392721f0d5434a")


@pytest.mark.parametrize("seed, budget, digest", [
    (0, (2060000, 6, 33), "4634b33d8d843dcfd8846c3d7549d7431e73b0c0055b52ab8e356123f8c45ae8"),
    (1, (2040000, 6, 33), "d3b1b098aae65c9b4ae97005835814c5c61198af62333ba2d223944b81a73a15"),
    (2, (2080000, 6, 33), "ff3b0ab95118e640a2f12458afa62f8a64504a55a2167f12a747b37139867421"),
], ids=["seed0", "seed1", "seed2"])
def test_sp_partial_estimate_at_the_default_probe_count_is_pinned_per_seed(seed, budget,
                                                                          digest):
    # at the default n_point = 20000 each reading is still one oracle call.
    # Re-pinned when the oracle moved to the exact multinomial law: same
    # law, other draws. Before, a call held three reserves, a reading spanned
    # several calls (37, 40 and 36 per estimate) and the digests were
    # 0fba4141..., 2dd12274... and d5df7b3d...
    cdfs, diag = sp_partial_estimate(make_sp_partial_oracle(bounded3_model()),
                                     p=0.5, gamma=0.3, eps=0.1, seed=seed)
    assert (diag["oracle_calls"], diag["oracle_batches"], diag["searched_levels"]) == budget
    assert estimate_digest(cdfs, diag) == digest


def bounded3_model():
    rising = BoundedDensityModel(knots=[0.0, 1.0], density=[0.75, 1.25],
                                 alpha_lo=0.5, eta_hi=2.0)
    falling = BoundedDensityModel(knots=[0.0, 1.0], density=[1.25, 0.75],
                                  alpha_lo=0.5, eta_hi=2.0)
    return AuctionModel(bid_dists=[rising, falling, rising])


@pytest.mark.parametrize("seed", range(5))
def test_sp_partial_estimate_meets_eps_on_bounded3(seed):
    # F_1(0.5) = F_3(0.5) = 0.4375 and F_2(0.5) = 0.5625 differ from gamma:
    # a staircase that starts at gamma on [p, z_0) misses eps at x = p
    model = bounded3_model()
    cdfs, diag = sp_partial_estimate(make_sp_partial_oracle(model),
                                     p=0.5, gamma=0.3, eps=0.1, seed=seed)
    errors = [kolmogorov(F, model.bid_cdf(j), 0.5, 1.0) for j, F in enumerate(cdfs, 1)]
    assert max(errors) <= 0.1, errors
    assert diag["searched_levels"] < 3 * diag["levels"]  # levels below F_j(p) dropped


def test_sp_partial_estimate_starts_at_one_when_p_is_above_every_bid():
    # bids in [0, 1/2]: the reserve wins every probe at p = 0.6, so F-hat_j(p)
    # is 1, every level is dropped, and the one probe at p is the whole budget
    half = PiecewiseCdf([0.0, 0.5], [0.0, 1.0], interpolation="linear")
    for k in (2, 3):
        cdfs, diag = sp_partial_estimate(make_sp_partial_oracle(AuctionModel([half] * k)),
                                         p=0.6, gamma=0.3, eps=0.1, seed=4)
        assert len(cdfs) == k
        for F in cdfs:
            assert F.breakpoints.tolist() == [0.6] and F.values.tolist() == [1.0]
        assert diag["oracle_calls"] == diag["n_point"] == 20000
        assert (diag["oracle_batches"], diag["searched_levels"]) == (1, 0)


def exact_sp_oracle(powers):
    """A second-price probe oracle whose counts are n times the population
    shares. Bidder j has F_j(x) = x**a_j; with A = sum(a), at reserve r
    bidder j wins with the price bound by r a share (1 - r**a_j) r**(A - a_j),
    and the reserve wins a share r**A. Every call is logged as (reserves,
    probes)."""
    a = np.asarray(powers, dtype=np.float64)
    total = a.sum()

    def oracle(reserves, n, rng):
        r = np.asarray(reserves, dtype=np.float64)[:, None]
        oracle.log.append((r.ravel().copy(), n))
        shares = np.zeros((r.size, a.size + 2))
        shares[:, 1:-1] = (1.0 - r ** a) * r ** (total - a)
        shares[:, -1] = r[:, 0] ** total
        return np.rint(shares * (n // r.size)).astype(np.int64)

    oracle.k = a.size
    oracle.log = []
    return oracle


def per_bidder_sp_searches(oracle, p, gamma, eps, seed, n_point):
    """The estimator before the joint search: one search per bidder, each
    over that bidder's levels above F-hat_j(p). Returns the staircases."""
    budget = _OracleBudget(oracle, np.random.default_rng(seed))
    levels = np.unique(np.append(np.arange(gamma, 1.0, eps / 2.0), 1.0))
    T = max(1, math.ceil(math.log2(max(4.0 / eps, 2.0))))

    def f_hat(xs):
        return sp_partial_pointwise(budget.frequencies(xs, n_point))[0]

    cdfs = []
    for j, f_p in enumerate(f_hat([p])[0]):
        above = levels[levels > f_p]
        zs = noisy_quantile_search(lambda xs, j=j: f_hat(xs)[:, j:j + 1], above,
                                   np.zeros(above.size, int), T, eps / 2.0, lo=p, hi=1.0)
        bp = np.concatenate([[p], np.maximum.accumulate(zs)])
        vals = np.concatenate([[f_p], above])
        uniq, idx = np.unique(bp[::-1], return_index=True)
        cdfs.append(PiecewiseCdf(uniq, np.maximum.accumulate(vals[::-1][idx]),
                                 interpolation="step", is_full_cdf=True))
    return cdfs


@pytest.mark.parametrize("powers, p", [((1.0, 2.0), 0.5), ((1.0, 1.5, 2.0), 0.6)])
def test_sp_partial_estimate_matches_the_per_bidder_searches(powers, p):
    # an exact oracle reads the same value at a reserve whichever search step
    # probes it, so one search over every bidder's levels must give the
    # per-bidder searches' staircases and draws bit for bit
    args = dict(p=p, gamma=0.2, eps=0.1, seed=5, n_point=2000)
    oracle = exact_sp_oracle(powers)
    cdfs, diag = sp_partial_estimate(oracle, **args)
    ref_oracle = exact_sp_oracle(powers)
    ref = per_bidder_sp_searches(ref_oracle, **args)
    assert len(cdfs) == len(ref) == len(powers)
    for got, want in zip(cdfs, ref):
        assert got.breakpoints.tobytes() == want.breakpoints.tobytes()
        assert got.values.tobytes() == want.values.tobytes()
    assert diag["oracle_calls"] == sum(n for _, n in ref_oracle.log)
    # one search step reads every bidder's column in one oracle call
    assert (diag["oracle_batches"], len(ref_oracle.log)) == {2: (7, 12), 3: (6, 15)}[len(powers)]
