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
from auctionmetrics.harness import ESTIMATORS
from auctionmetrics.sp_estimator import (
    FP_MAX_STEPS,
    FP_TOL,
    WINDOW_CELLS,
    SpParams,
    _build_grid,
    _power_product,
    coarse_U,
    empirical_G_sp,
    estimate_sp,
    recover_F,
    run_fixed_point,
    run_pipeline,
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
                 micro_delta=1e-3)
    with pytest.raises(ValidationError):
        SpParams(alpha=1.0, eta=1.0, eps=0.1, theta=0.05, nu=0.96,
                 micro_delta=1e-3)
    with pytest.raises(ValidationError):
        SpParams(alpha=1.0, eta=1.0, eps=0.1, theta=0.05, nu=0.02,
                 micro_delta=0.05)


@pytest.mark.parametrize("alpha, eta", [(1.5, 2.0), (2.0, 3.0), (0.5, 0.8), (0.2, 0.5)])
def test_bounds_that_no_density_meets_are_refused(alpha, eta):
    # a bid density on [0, 1] integrates to 1, so its bounds satisfy
    # alpha <= 1 <= eta. On uniform k = 2 at n = 2e4, seed 0, alpha 1.5 and
    # eta 2 gave CDFs 0.51 and 0.39 off on [theta, 1 - theta] with 393 state
    # entries outside their box, and alpha 0.5 and eta 0.8 gave 0.21 off,
    # both without an error
    message = "need 0 < alpha <= 1 <= eta"
    with pytest.raises(ValidationError, match=message):
        SpParams(alpha=alpha, eta=eta, eps=0.1, theta=0.05, nu=0.025, micro_delta=1e-3)
    with pytest.raises(ValidationError, match=message):
        SpParams.desk(alpha, eta, 0.1, n=20000)
    s = simulate_sp(uniform_model(), 20000, 0)
    with pytest.raises(ValidationError, match=message):
        estimate_sp(s, alpha, eta, 0.1)
    with pytest.raises(ValidationError, match=message):
        ESTIMATORS["sp"].run(s, {"alpha": alpha, "eta": eta, "eps": 0.1}, 0)


def test_bounds_at_one_are_accepted():
    # alpha = 1 = eta is the uniform density; alpha = 1 < eta and
    # alpha < 1 = eta bound others
    for alpha, eta in ((1.0, 1.0), (1.0, 2.0), (0.5, 1.0)):
        assert SpParams.desk(alpha, eta, 0.1, n=20000).alpha == alpha


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
    grid, xs = _build_grid(*sample_pieces(s, params), params)
    ends = grid.lattice[grid.cuts]
    assert ends[0] == params.nu
    assert ends[-1] == pytest.approx(1.0 - params.theta, abs=params.micro_delta)
    # the first lattice point at or past 1 - theta closes the last window
    assert 1.0 - params.theta - 1e-12 <= ends[-1] < 1.0 - params.theta + params.micro_delta
    assert ends[-1] - params.micro_delta < 1.0 - params.theta - 1e-12
    # every window but the last holds WINDOW_CELLS lattice cells
    assert grid.T > 1
    assert grid.micro_counts[:-1] == [WINDOW_CELLS] * (grid.T - 1)
    assert 1 <= grid.micro_counts[-1] <= WINDOW_CELLS
    # the micro points are the lattice after nu, one column of each array apiece
    assert xs.tobytes() == grid.lattice[1:].tobytes()
    for name in ("deltas", "coarse"):
        assert getattr(grid, name).shape == (2, xs.size)
    assert grid.h_lo.shape == grid.h_hi.shape == xs.shape


def test_grid_budget_below_cap():
    # the budget a window spends is its Picard steps: each window settles,
    # its last step below FP_TOL, in fewer steps than the cap
    s = simulate_sp(uniform_model(), 40000, 37)
    _, diag = estimate_sp(s, 1.0, 1.0, 0.1)
    assert len(diag["fp_steps"]) == len(diag["fp_gaps"]) == diag["T"]
    assert max(diag["fp_steps"]) < FP_MAX_STEPS
    assert max(diag["fp_gaps"]) < FP_TOL


def test_grid_micro_points_cover_interval():
    s = simulate_sp(uniform_model(), 20000, 41)
    params = SpParams.desk(1.0, 1.0, 0.1, n=s.n)
    grid, pts = _build_grid(*sample_pieces(s, params), params)
    assert np.all(np.diff(pts) > 0)
    assert pts[0] == pytest.approx(params.nu + params.micro_delta)
    assert pts[-1] == grid.lattice[-1]


def windowed_build_grid(ghat_list, coarse_list, params):
    """The windows built one at a time: each evaluates G-hat and the coarse U
    on its own WINDOW_CELLS points from a running-sum start, until a window
    ends at or past 1 - theta, with the guard that once kept the upper H
    clip bound from falling below the lower one.
    Returns (endpoints, cells), each cell a dict of its arrays."""
    delta = params.micro_delta
    x_prev = params.nu
    endpoints, cells = [x_prev], []
    while x_prev < 1.0 - params.theta - 1e-12:
        l = min(WINDOW_CELLS, math.ceil((1.0 - params.theta - 1e-12 - x_prev) / delta))
        xs = x_prev + delta * np.arange(1, l + 1)
        prev = np.concatenate([[x_prev], xs[:-1]])
        deltas = np.maximum(np.vstack([g.eval(xs) - g.eval(prev) for g in ghat_list]), 0.0)
        coarse = np.vstack([c.eval(xs) for c in coarse_list])
        h_lo = params.alpha * xs
        h_hi = np.minimum(1.0 - params.alpha * (1.0 - xs), params.eta * xs)
        cells.append(dict(xs=xs, deltas=deltas, coarse=coarse, h_lo=h_lo,
                          h_hi=np.maximum(h_hi, h_lo)))
        x_prev = x_prev + l * delta
        endpoints.append(x_prev)
    return np.asarray(endpoints), cells


@pytest.mark.parametrize("case", ["uniform2", "bounded2", "uniform3", "bounded3-stall"])
def test_lattice_grid_matches_the_windowed_build(case):
    # lattice points are nu + m*delta, not a running sum, so they move by
    # ulps; the cuts, and hence T and the micro counts, are those of windows
    # built one at a time. bounded3-stall is the log on which the contraction
    # budget grid stalled at x = 0.910842, where one cell's own budget was 1.05
    model, n, seed, alpha, eta = {
        "uniform2": (uniform_model(), 40000, 31, 1.0, 1.0),
        "bounded2": (bounded2_model(), 200000, 0, 0.5, 2.0),
        "uniform3": (uniform_model(3), 20000, 1, 1.0, 1.0),
        "bounded3-stall": (bounded3_model(), 20000, 0, 0.5, 2.0),
    }[case]
    s = simulate_sp(model, n, seed)
    params = SpParams.desk(alpha, eta, 0.1, n=s.n)
    pieces = sample_pieces(s, params)
    ends, cells = windowed_build_grid(*pieces, params)
    ulps = 8 * np.finfo(float).eps
    grid, xs = _build_grid(*pieces, params)
    assert grid.T == len(cells) > 1
    assert grid.micro_counts == [cell["xs"].size for cell in cells]
    np.testing.assert_allclose(grid.lattice[grid.cuts], ends, rtol=0, atol=ulps)
    for start, want in zip(grid.cuts, cells):
        cols = slice(start, start + WINDOW_CELLS)
        np.testing.assert_allclose(xs[cols], want["xs"], rtol=0, atol=ulps)
        for name in ("h_lo", "h_hi"):
            np.testing.assert_allclose(getattr(grid, name)[cols], want[name], rtol=1e-12)
        # no point within ulps of a price reads the other side of it on these logs
        for name in ("deltas", "coarse"):
            assert np.array_equal(getattr(grid, name)[:, cols], want[name])
    if case == "bounded3-stall":
        _, diag = estimate_sp(s, alpha, eta, 0.1)
        assert max(diag["fp_gaps"]) < FP_TOL and diag["macro_endpoints"][-1] > 0.94


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
    no price below 0.2, a valid log on which its U is 0 below 0.2."""
    late = PiecewiseCdf([0.2, 1.0], [0.0, 1.0], interpolation="linear")
    return simulate_sp(AuctionModel(bid_dists=[late, uniform_cdf()]), n, seed)


def test_estimate_sp_names_a_bidder_that_wins_no_low_price():
    # a valid log the fixed point cannot start from is an estimator failure,
    # not bad input, and the message names the bidder
    with pytest.raises(EstimationError, match=r"bidder 2 wins no price up to x=0\.19") as info:
        estimate_sp(late_bidder_log(), 0.5, 2.0, 0.1)
    assert info.value.diagnostics["bidder"] == 2
    assert 0.19 < info.value.diagnostics["x"] < 0.2


def state_box(grid, params):
    """(coarse/(2*eta), 2*coarse/alpha): the state box the fixed point once
    clipped each iterate to, which no iterate left on any log tried."""
    return grid.coarse / (2.0 * params.eta), grid.coarse * (2.0 / params.alpha)


def assert_state_in_box_and_monotone(grid, params):
    """``run_fixed_point``'s U lies in its state box and never decreases,
    within a window and across its seams; returns the diagnostics."""
    U, diag = run_fixed_point(grid)
    box_lo, box_hi = state_box(grid, params)
    assert np.all(box_lo <= U) and np.all(U <= box_hi)
    assert np.all(np.diff(U, axis=1) >= 0.0)
    return diag


@pytest.mark.parametrize("case", ["bounded2", "bounded3"])
def test_fixed_point_output_stays_in_box_and_monotone(case):
    # at alpha = eta = 1 the H clip is [x, x] and the state is never read;
    # these logs, at alpha 0.5 and eta 2, iterate it over several windows,
    # and the unclipped iterates never leave the box
    model = {"bounded2": bounded2_model(), "bounded3": bounded3_model()}[case]
    for n, seed in ((5000, 1), (20000, 0), (200000, 2)):
        diag = assert_state_in_box_and_monotone(*log_grid(model, n, seed, 0.5, 2.0))
        assert diag["T"] > 1 and max(diag["fp_steps"]) > 2
        assert max(diag["fp_gaps"]) < FP_TOL


def column_contractions(s, alpha, eta, eps, pairs, seed):
    """(micro points, ratios) of ``estimate_sp`` on s: per micro point m, the
    largest sup-norm ratio |phi_m(a) - phi_m(b)| / |a - b| over ``pairs``
    random state pairs of its state box of column m's own map
    u -> S_{m-1} + Delta_m / (1 - H(u)), the step the implicit scan solves,
    where S_{m-1} is the running sum before m at the solved state.
    All columns draw their pairs together from one generator seeded ``seed``."""
    params = SpParams.desk(alpha, eta, eps, n=s.n)
    grid, xs = _build_grid(*sample_pieces(s, params), params)
    U, _ = run_fixed_point(grid)
    box_lo, box_hi = state_box(grid, params)

    def terms(state):
        H = np.clip(_power_product(state, state.shape[0]), grid.h_lo, grid.h_hi)
        return grid.deltas / (1.0 - H)

    S_prev, V = np.empty_like(U), grid.v0
    for start, stop in zip(grid.cuts[:-1], grid.cuts[1:]):
        t = terms(U)[:, start:stop]
        S_prev[:, start:stop] = V[:, None] + (np.cumsum(t, axis=1) - t)
        V = U[:, stop - 1]
    rng = np.random.default_rng(seed)
    ratios = np.zeros(xs.size)
    for _ in range(pairs):
        a, b = (box_lo + rng.random(U.shape) * (box_hi - box_lo) for _ in range(2))
        fa, fb = (S_prev + terms(state) for state in (a, b))
        dist = np.max(np.abs(a - b), axis=0)
        moved = dist >= 1e-12
        ratio = np.max(np.abs(fa - fb), axis=0)[moved] / dist[moved]
        ratios[moved] = np.maximum(ratios[moved], ratio)
    return xs, ratios


def test_measured_contraction_below_cap():
    # each window converges because each column's own map contracts (the map
    # is a Volterra operator); sampled, every column's ratio is below 1/4
    s = simulate_sp(uniform_model(), 20000, 53)
    _, ratios = column_contractions(s, 1.0, 1.0, 0.1, pairs=5, seed=7)
    assert ratios.max() <= 0.25


def test_population_pipeline_recovers_uniform():
    # exact population inputs: the recovered CDFs should match F(x) = x
    ghat, coarse = population_pieces()
    params = SpParams(alpha=1.0, eta=1.0, eps=0.02, theta=0.05, nu=0.025,
                      micro_delta=1e-3)
    cdfs, _ = run_pipeline(ghat, coarse, params)
    err = max(kolmogorov(F, uniform_cdf(), 0.05, 0.95) for F in cdfs)
    assert err <= 0.02


def test_recover_F_pins_outside_window():
    ghat, coarse = population_pieces()
    params = SpParams(alpha=1.0, eta=1.0, eps=0.05, theta=0.05, nu=0.025,
                      micro_delta=1e-3)
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
                          micro_delta=1e-3)
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
    # points; the fixed point and the recovery read the cells
    ghat, coarse = population_pieces()
    ghat = [CountingEval(g) for g in ghat]
    coarse = [CountingEval(c) for c in coarse]
    params = SpParams(alpha=1.0, eta=1.0, eps=0.02, theta=0.05, nu=0.025,
                      micro_delta=1e-3)
    _, diag = run_pipeline(ghat, coarse, params)
    assert diag["T"] > 1
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
    # (056bcd43... and 46c1bc84...) taken with that key popped. Re-pinned
    # when fixed windows solved to their fixed point replaced the contraction
    # budget grid: the budget grid stopped after 4-5 Picard steps per
    # interval, so the CDFs move by up to about 2e-6 on bounded-density logs
    # and 1e-15 on uniform ones, toward the fixed point (the budget grid run
    # with 80 steps is within 3e-14), and the diagnostics list windows, not
    # intervals. The digests before were 2e288564.../54ae081b... (uniform)
    # and 98344d70.../513817c8... (bounded). Re-pinned when the always-0
    # box_violations key left the diagnostics; the CDF-only digests held, and
    # each digest is the one before (bea26a38... and f903b423...) taken with
    # that key popped. Re-pinned when the state box left the fixed point: it
    # never bound, the CDF-only digests held, and each digest is the one
    # before (30a177f2... and f159b597...) taken with clip_rates popped
    cdfs, diag = estimate_sp(simulate_sp(uniform_model(), 100000, 59), 1.0, 1.0, 0.1)
    assert estimate_digest(cdfs, {}) == (
        "a1dfb8d431c00de5ee74438090726b58849648b838d091101d32c9593cc88cbe")
    assert estimate_digest(cdfs, diag) == (
        "43615efc7d9dd1c837779f59ef38d201bb453e4046385de3bad1c87fa22a4db6")
    cdfs, diag = estimate_sp(simulate_sp(bounded2_model(), 200000, 0), 0.5, 2.0, 0.1)
    assert estimate_digest(cdfs, {}) == (
        "d5ddf2422236f827d8569330978e825558d0345963ff34638c2d465c72379628")
    assert estimate_digest(cdfs, diag) == (
        "41b67bf877865cbdbc7bf6d596c1c80b9c08a30871aab0da89e27bc7de038a21")


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
    # on these logs the contraction budget grid found no admissible micro
    # cell at a start whose cell lay beyond 1 - theta, where recover_F reads
    # nothing, and ended there; the windows end at the first lattice point at
    # or past 1 - theta
    model = bounded2_model()
    s = simulate_sp(model, n, seed)
    params = SpParams.desk(0.5, 2.0, 0.1, n=n)
    grid, _ = _build_grid(*sample_pieces(s, params), params)
    assert params.theta - params.micro_delta < 1.0 - grid.lattice[-1] <= params.theta + 1e-12
    cdfs, diag = estimate_sp(s, 0.5, 2.0, 0.1)
    theta = diag["params"]["theta"]
    for i, F in enumerate(cdfs, start=1):
        assert kolmogorov(F, model.bid_cdf(i), theta, 1.0 - theta) <= 0.1


ONE_CELL_LOGS = [(2000, 2270173015), (5000, 1760764637), (20000, 647311919)]
# seed: (x, budget) of the one micro cell of each log that no cell under the
# 1/4 cap covered, so that the contraction budget grid gave it an interval alone
LONE_CELLS = {2270173015: (0.8180000000000001, 0.3018959062915045),
              1760764637: (0.8852698852766093, 0.30388211165221435),
              647311919: (0.9378003685486587, 0.2584784717240426)}


@pytest.mark.parametrize("n, seed", ONE_CELL_LOGS)
def test_estimate_sp_answers_with_a_one_cell_interval_above_the_cap(n, seed):
    # the windows need no cut at the cell the budget grid made an interval
    # alone: the window that holds it settles like every other
    model = bounded2_model()
    cdfs, diag = estimate_sp(simulate_sp(model, n, seed), 0.5, 2.0, 0.1)
    theta = diag["params"]["theta"]
    x, _ = LONE_CELLS[seed]
    assert theta < x < 1.0 - theta
    tau = int(np.searchsorted(diag["macro_endpoints"], x)) - 1  # the window holding x
    assert diag["fp_gaps"][tau] < FP_TOL and diag["fp_steps"][tau] < FP_MAX_STEPS
    for i, F in enumerate(cdfs, start=1):
        assert kolmogorov(F, model.bid_cdf(i), theta, 1.0 - theta) <= 0.1


@pytest.mark.parametrize("n, seed", ONE_CELL_LOGS)
def test_estimate_sp_samples_the_contraction_of_each_lone_cell(n, seed):
    # the column of each lone cell contracts: its sampled ratio is a lower
    # estimate of a Lipschitz constant that the cell's own budget bounds
    xs, ratios = column_contractions(simulate_sp(bounded2_model(), n, seed), 0.5, 2.0, 0.1,
                                     pairs=5, seed=0)
    x, budget = LONE_CELLS[seed]
    [m] = np.flatnonzero(np.abs(xs - x) < 1e-12)
    assert 0.0 < ratios[m] <= budget


def reference_fixed_point_map(U, V, cell):
    """``fixed_point_map`` as it was, clipping H and the state box through
    ``np.clip``."""
    H = np.clip(_power_product(U, U.shape[0]), cell["h_lo"][None, :], cell["h_hi"][None, :])
    integ = np.cumsum(cell["deltas"] / (1.0 - H), axis=1)
    return np.clip(V[:, None] + integ, cell["box_lo"], cell["box_hi"])


def reference_fixed_point(grid, params):
    """(U, fp_steps, fp_gaps) of a per-window loop on copies of each window's
    arrays and state box: the start clipped to the box and made monotone,
    every iterate clipped to it, and a gap at every step until it is below
    FP_TOL."""
    box_lo, box_hi = state_box(grid, params)
    V, all_U, steps, gaps = grid.v0, [], [], []
    for start, stop in zip(grid.cuts[:-1], grid.cuts[1:]):
        cell = {name: getattr(grid, name)[..., start:stop].copy()
                for name in ("deltas", "coarse", "h_lo", "h_hi")}
        cell.update(box_lo=box_lo[:, start:stop].copy(), box_hi=box_hi[:, start:stop].copy())
        U = np.maximum.accumulate(np.clip(cell["coarse"], cell["box_lo"], cell["box_hi"]),
                                  axis=1)
        step, gap = 0, math.inf
        while gap >= FP_TOL:
            new = reference_fixed_point_map(U, V, cell)
            gap = float(np.max(np.abs(new - U)))
            U = new
            step += 1
            assert step <= FP_MAX_STEPS
        steps.append(step)
        gaps.append(gap)
        all_U.append(U)
        V = U[:, -1].copy()
    return np.hstack(all_U), steps, gaps


def assert_fixed_point_matches_the_reference(grid, params):
    # equal bytes: the clips the reference keeps bind nowhere on the log
    U, diag = run_fixed_point(grid)
    want_U, *want = reference_fixed_point(grid, params)
    assert U.tobytes() == want_U.tobytes()
    assert [diag["fp_steps"], diag["fp_gaps"]] == want
    return diag


def log_grid(model, n, seed, alpha, eta):
    s = simulate_sp(model, n, seed)
    params = SpParams.desk(alpha, eta, 0.1, n=s.n)
    return _build_grid(*sample_pieces(s, params), params)[0], params


@pytest.mark.parametrize("case", ["bounded2", "uniform2", "one-cell"])
def test_fixed_point_diagnostics_equal_the_per_interval_loop(case):
    logs = {"bounded2": [(bounded2_model(), n, seed, 0.5, 2.0)
                         for n in (2000, 20000) for seed in range(3)],
            "uniform2": [(uniform_model(), n, seed, 1.0, 1.0)
                         for n in (2000, 20000) for seed in range(3)],
            "one-cell": [(bounded2_model(), n, seed, 0.5, 2.0) for n, seed in ONE_CELL_LOGS]}
    for log in logs[case]:
        diag = assert_fixed_point_matches_the_reference(*log_grid(*log))
        assert min(diag["fp_steps"]) >= 1


@pytest.mark.parametrize("n, seed", [(20000, 0), ONE_CELL_LOGS[0]])
def test_fixed_point_maps_once_per_picard_step(n, seed, monkeypatch):
    calls = []
    inner = sp_estimator.fixed_point_map
    monkeypatch.setattr(sp_estimator, "fixed_point_map",
                        lambda *args: calls.append(1) or inner(*args))
    _, diag = estimate_sp(simulate_sp(bounded2_model(), n, seed), 0.5, 2.0, 0.1)
    assert len(calls) == sum(diag["fp_steps"]) > diag["T"]


def test_fixed_point_raises_naming_x_when_a_window_does_not_settle(monkeypatch):
    # the micro point named is the one with the largest last step
    monkeypatch.setattr(sp_estimator, "FP_MAX_STEPS", 3)
    s = simulate_sp(bounded2_model(), 20000, 0)
    with pytest.raises(EstimationError, match=r"did not settle within 3 steps at x=0\.") as info:
        estimate_sp(s, 0.5, 2.0, 0.1)
    assert info.value.diagnostics["fp_gap"] >= FP_TOL
    params = SpParams.desk(0.5, 2.0, 0.1, n=s.n)
    _, xs = _build_grid(*sample_pieces(s, params), params)
    assert info.value.diagnostics["x"] in xs[:WINDOW_CELLS]


def column_scan(grid, params):
    """U of the implicit scan U_m = clip(S_{m-1} + Delta_m / (1 - H(U_m))),
    S_m = S_{m-1} + Delta_m / (1 - H(U_m)), the clip to the state box, solved
    one column at a time by iterating that column's own map until it repeats
    (at most 200 times)."""
    box_lo, box_hi = state_box(grid, params)
    V, out = grid.v0, []
    for start, stop in zip(grid.cuts[:-1], grid.cuts[1:]):
        S = V.copy()
        for m in range(start, stop):

            def step(u, m=m):
                H = np.clip(_power_product(u[:, None], u.size)[:, 0],
                            grid.h_lo[m], grid.h_hi[m])
                return grid.deltas[:, m] / (1.0 - H)

            u = np.clip(grid.coarse[:, m], box_lo[:, m], box_hi[:, m])
            for _ in range(200):
                new = np.clip(S + step(u), box_lo[:, m], box_hi[:, m])
                if np.array_equal(new, u):
                    break
                u = new
            S = S + step(u)
            out.append(u)
        V = out[-1]
    return np.column_stack(out)


@pytest.mark.parametrize("case", ["bounded2", "bounded3", "uniform3"])
def test_windows_equal_the_column_by_column_scan(case):
    grid, params = log_grid(*{"bounded2": (bounded2_model(), 5000, 1, 0.5, 2.0),
                              "bounded3": (bounded3_model(), 20000, 0, 0.5, 2.0),
                              "uniform3": (uniform_model(3), 20000, 2, 1.0, 1.0)}[case])
    U, diag = run_fixed_point(grid)
    assert diag["T"] > 1
    np.testing.assert_allclose(U, column_scan(grid, params), rtol=0, atol=1e-12)


@pytest.mark.parametrize("n", [2000, 20000])
def test_estimate_sp_answers_bounded3(n):
    # three bidders: the contraction budget grid raised at n = 2e4 on every
    # seed (one cell's own budget reached 1); the windows answer each one
    # within eps. At n = 2e3 a bidder may win no low price (seeds 2 and 4)
    model = bounded3_model()
    seeds = [seed for seed in range(12) if n > 2000 or seed not in (2, 4)]
    for seed in seeds[:10]:
        cdfs, diag = estimate_sp(simulate_sp(model, n, seed), 0.5, 2.0, 0.1)
        theta = diag["params"]["theta"]
        assert max(diag["fp_gaps"]) < FP_TOL
        for i, F in enumerate(cdfs, start=1):
            assert kolmogorov(F, model.bid_cdf(i), theta, 1.0 - theta) <= 0.1


def test_desk_refuses_what_the_trim_cannot_cover():
    # bounds that the trims would divide by are rejected before they do
    for alpha, eta in ((0.0, 1.0), (0.5, 0.0)):
        with pytest.raises(ValidationError, match="need 0 < alpha <= 1 <= eta"):
            SpParams.desk(alpha, eta, 0.1, n=2000)
    # at n <= 64/alpha^2 the trim 4/(alpha*sqrt(n)) leaves no interval
    with pytest.raises(EstimationError, match="n = 256 is too small: trim"):
        estimate_sp(simulate_sp(bounded2_model(), 256, 0), 0.5, 2.0, 0.1)


def test_estimate_sp_refuses_a_lattice_above_the_size_cap():
    # at eta = 1e6 and n = 2000 desk's micro_delta = alpha^2 theta/(8 eta^2)
    # is 5.6e-15: a lattice of 1.4e14 points up to 1 - theta, about 1.1e15
    # bytes (counted to 1 - theta/2 it was 1.54e+14 points)
    message = (r"the lattice of nu = 0\.05, theta = 0\.178885 and micro_delta = "
               r"5\.59017e-15 would hold 1\.38e\+14 points, more than the 10,000,000")
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
