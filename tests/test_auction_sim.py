import hashlib
import math

import numpy as np
import pytest

from auctionmetrics import auction_sim
from auctionmetrics.auction_sim import (
    FORMAT_FP,
    FORMAT_SP,
    AuctionModel,
    SampleSet,
    _bid_matrix,
    _fast_scalar_cdf_pdf,
    equilibrium_residual,
    lower_bound_fixture,
    make_fp_partial_oracle,
    make_sp_partial_oracle,
    simulate_fp,
    simulate_sp,
    solve_asymmetric_equilibrium,
)
from auctionmetrics.dist_core import (
    LINEAR,
    STEP,
    BoundedDensityModel,
    PiecewiseCdf,
    dkw_band,
    empirical_cdf,
    uniform_cdf,
)
from auctionmetrics.errors import EstimationError, ValidationError
from auctionmetrics.fp_estimator import fp_partial_estimate
from auctionmetrics.sp_estimator import sp_partial_estimate
from reference import partial_counts, quad_fp_win_chance, reference_outcomes

UNI_DENSITY = BoundedDensityModel(knots=[0.0, 1.0], density=[1.0, 1.0],
                                  alpha_lo=1.0, eta_hi=1.0)


def uniform_model(k=2):
    return AuctionModel(bid_dists=[uniform_cdf()] * k)


# -- model construction -------------------------------------------------------


def test_model_requires_two_bidders():
    with pytest.raises(ValidationError):
        AuctionModel(bid_dists=[uniform_cdf()])


def test_model_value_dists_length_checked():
    with pytest.raises(ValidationError):
        AuctionModel(bid_dists=[uniform_cdf()] * 2, value_dists=[UNI_DENSITY])


def test_model_value_dists_must_be_density_models():
    # a CDF value distribution used to pass here, then break the round trip
    # (KeyError 'knots') and the value-estimator sweeps (no to_cdf)
    linear = PiecewiseCdf([0.0, 1.0], [0.0, 1.0], interpolation=LINEAR)
    with pytest.raises(ValidationError, match="value_dists entries must be density models"):
        AuctionModel(bid_dists=[uniform_cdf()] * 2, value_dists=[UNI_DENSITY, linear])


def test_model_round_trip():
    m = AuctionModel(bid_dists=[uniform_cdf(), uniform_cdf()])
    m2 = AuctionModel.from_dict(m.to_dict())
    assert m2.k == 2
    xs = np.linspace(0, 1, 11)
    np.testing.assert_allclose(m2.bid_cdf(1).eval(xs), xs)


def test_sample_set_validation():
    with pytest.raises(ValidationError):
        SampleSet(y=np.array([0.5]), z=np.array([3]), k=2, auction=FORMAT_FP)
    with pytest.raises(ValidationError):
        SampleSet(y=np.array([1.5]), z=np.array([1]), k=2, auction=FORMAT_SP)


def test_sample_set_rejects_nan_prices():
    # NaN passes a check written as min < 0 or max > 1: both compare False
    for y in ([math.nan, 0.5], [0.5, math.nan]):
        with pytest.raises(ValidationError, match="prices must lie in"):
            SampleSet(y=np.array(y), z=np.array([1, 2]), k=2, auction=FORMAT_SP)


@pytest.mark.parametrize("tied", [False, True])
def test_ranked_is_the_stable_order_byte_for_byte(tied):
    # without ties the default sort's order is the only one; with a tie
    # (-0.0 and 0.0 compare equal) ranked falls back to the stable sort
    rng = np.random.default_rng(7)
    y = rng.random(5000)
    if tied:
        y[:2000] = np.round(y[:2000], 2)
        y[[10, 20, 30]] = [0.0, -0.0, 0.0]
    z = rng.integers(1, 4, y.size)
    ys, zs = SampleSet(y=y, z=z, k=3, auction=FORMAT_SP).ranked
    order = np.argsort(y, kind="stable")
    assert ys.tobytes() == y[order].tobytes()
    assert zs.tobytes() == z[order].tobytes()


@pytest.mark.parametrize("n", [0, 1, 7, 5000])
def test_at_or_below_is_the_searchsorted_rank_of_each_price(n):
    # the tail sums' H-hat(Y_j) counts, on prices rounded to 2 digits (ties),
    # with -0.0 and 0.0 and a price of 1 among them
    rng = np.random.default_rng(n)
    y = np.round(rng.random(n), 2)
    y[: min(n, 3)] = [0.0, -0.0, 1.0][: min(n, 3)]
    s = SampleSet(y=y, z=rng.integers(1, 3, n), k=2, auction=FORMAT_FP)
    prices = s.ranked[0]
    want = np.searchsorted(prices, prices, side="right")
    assert s.at_or_below.dtype == want.dtype and np.array_equal(s.at_or_below, want)


def test_sample_set_needs_two_bidders():
    with pytest.raises(ValidationError, match="k >= 2 bidders"):
        SampleSet(y=np.array([0.5]), z=np.array([1]), k=1, auction=FORMAT_FP)


# -- simulation ---------------------------------------------------------------


def test_simulate_fp_max_distribution():
    # winning bid of two independent uniforms has CDF x^2
    m = uniform_model()
    s = simulate_fp(m, 40000, 123)
    emp = empirical_cdf(s.y)
    grid = np.linspace(0, 1, 201)
    assert np.max(np.abs(emp.eval(grid) - grid ** 2)) <= dkw_band(s.n, 1e-4)


def test_simulate_fp_winner_frequencies():
    s = simulate_fp(uniform_model(3), 30000, 5)
    freqs = np.bincount(s.z, minlength=4)[1:] / s.n
    np.testing.assert_allclose(freqs, 1 / 3, atol=0.02)


def test_simulate_sp_second_highest_distribution():
    # for k=2 the price is the minimum: CDF 1-(1-x)^2
    s = simulate_sp(uniform_model(), 40000, 7)
    emp = empirical_cdf(s.y)
    grid = np.linspace(0, 1, 201)
    truth = 1 - (1 - grid) ** 2
    assert np.max(np.abs(emp.eval(grid) - truth)) <= dkw_band(s.n, 1e-4)


def test_simulation_is_deterministic_per_seed():
    m = uniform_model()
    a = simulate_fp(m, 100, 42)
    b = simulate_fp(m, 100, 42)
    np.testing.assert_array_equal(a.y, b.y)
    np.testing.assert_array_equal(a.z, b.z)
    c = simulate_fp(m, 100, 43)
    assert not np.array_equal(a.y, c.y)


def test_fp_and_sp_same_seed_share_bids():
    m = uniform_model()
    fp = simulate_fp(m, 500, 9)
    sp = simulate_sp(m, 500, 9)
    np.testing.assert_array_equal(fp.z, sp.z)  # same winner draw
    assert np.all(sp.y <= fp.y)  # price is below the winning bid


@pytest.mark.parametrize("simulate, seed, digest", [
    (simulate_fp, 3, "bdbf3df323a3f15d111c493a63895afec52fcb0fa079ca61057a8a38553ad7e0"),
    (simulate_sp, 4, "ffba753e2102db05878317e1fbfa52eecffe3e94f4ceef5a80d32814b8f4349b"),
])
def test_draws_from_4097_knot_tables_are_pinned_per_seed(simulate, seed, digest):
    # the bounded2 pair as to_cdf() tables, the tables the benchmark draws
    # from; digests of the price and winner bytes, taken while ppf still
    # found each level's segment by plain searchsorted
    d1 = BoundedDensityModel(knots=[0.0, 1.0], density=[0.75, 1.25], alpha_lo=0.5, eta_hi=2.0)
    d2 = BoundedDensityModel(knots=[0.0, 1.0], density=[1.25, 0.75], alpha_lo=0.5, eta_hi=2.0)
    s = simulate(AuctionModel([d1.to_cdf(), d2.to_cdf()]), 50000, seed)
    assert hashlib.sha256(s.y.tobytes() + s.z.tobytes()).hexdigest() == digest


def test_simulate_rejects_bad_n():
    with pytest.raises(ValidationError):
        simulate_fp(uniform_model(), 0, 1)


@pytest.mark.parametrize("seed, kind", [(np.random.default_rng(0), "Generator"),
                                        (1.5, "float"), (True, "bool"), ("3", "str")])
def test_seed_must_be_a_non_negative_integer(seed, kind):
    # a seed alone fixes every draw; any other seed is a validation error
    m = uniform_model()
    calls = [
        lambda: simulate_fp(m, 50, seed),
        lambda: simulate_sp(m, 50, seed),
        lambda: fp_partial_estimate(make_fp_partial_oracle(m), p=0.5, gamma=0.5, eps=0.2,
                                    seed=seed),
        lambda: sp_partial_estimate(make_sp_partial_oracle(m), p=0.5, gamma=0.5, eps=0.2,
                                    seed=seed),
    ]
    for call in calls:
        with pytest.raises(ValidationError,
                           match=f"seed must be an integer, not {kind}$"):
            call()
    # a numpy integer is an integer
    assert simulate_fp(m, 50, np.int64(3)).y.tobytes() == simulate_fp(m, 50, 3).y.tobytes()


# -- partial-observation oracles ----------------------------------------------


def test_fp_partial_reserve_win_probability():
    # planted reserve wins exactly when it beats all bids: prob r^k
    m = uniform_model(3)
    oracle = make_fp_partial_oracle(m)
    counts = oracle([0.7], 60000, np.random.default_rng(2))[0]
    assert counts[4] / 60000 == pytest.approx(0.7 ** 3, abs=0.01)
    assert counts[1] / 60000 == pytest.approx((1 - 0.7 ** 3) / 3, abs=0.01)
    np.testing.assert_allclose(oracle.pvals(np.array([0.7]))[0, 1:],
                               [(1 - 0.7 ** 3) / 3] * 3 + [0.7 ** 3, 0.0], atol=1e-15)


def test_fp_partial_reserve_zero_never_wins():
    counts = make_fp_partial_oracle(uniform_model())([0.0], 1000, np.random.default_rng(3))
    assert counts[0, 3] == 0 and counts[0].sum() == 1000


def test_sp_partial_flag_probability():
    # the counted probes are those where the second-highest of k bids is
    # <= r; for k=2 uniforms that is Pr(min <= r) = 1-(1-r)^2
    counts = make_sp_partial_oracle(uniform_model())([0.6], 60000, np.random.default_rng(4))
    assert counts[0].sum() / 60000 == pytest.approx(1 - 0.16, abs=0.01)


def test_sp_partial_reserve_win_implies_flag():
    # every reserve win binds the price, so it is counted, and the counted
    # probes are exactly those where the second-highest bid is <= r: for
    # k=2 uniforms at r=1/2 the reserve wins 1/4 and 3/4 are counted
    oracle = make_sp_partial_oracle(uniform_model())
    law = oracle.pvals(np.array([0.5]))[0]
    assert law[3] == 0.25 and law[:4].sum() == 0.75 and law[4] == 0.25
    counts = oracle([0.5], 20000, np.random.default_rng(5))[0]
    assert_law(law, counts, 20000)


def atom_model(k):
    # step CDFs with atoms at 0.2, 0.5 and 0.8: ties between bidders are
    # common, and a reserve of 0.5 sits exactly on an atom
    atoms = PiecewiseCdf([0.2, 0.5, 0.8], [0.3, 0.7, 1.0], interpolation=STEP)
    other = PiecewiseCdf([0.0, 0.5, 1.0], [0.0, 0.6, 1.0], interpolation=LINEAR)
    dens = BoundedDensityModel(knots=[0.0, 1.0], density=[0.75, 1.25],
                               alpha_lo=0.5, eta_hi=2.0)
    return AuctionModel(bid_dists=([atoms, atoms, other, dens] * 2)[:k])


@pytest.mark.parametrize("k", [2, 3, 4])
def test_winner_scan_matches_naive_reference(k):
    m = atom_model(k)
    n = 5000
    x = _bid_matrix(m, n, 17)
    top, _, second = reference_outcomes(x, 0.0)
    # the case the scan must get right does occur in this sample
    assert np.any(second == top)  # a tie for the top bid
    fp, sp = simulate_fp(m, n, 17), simulate_sp(m, n, 17)
    assert fp.y.tobytes() == top.tobytes()
    assert sp.y.tobytes() == second.tobytes()
    np.testing.assert_array_equal(fp.z, np.argmax(x, axis=0) + 1)
    np.testing.assert_array_equal(sp.z, fp.z)


# -- the exact probe law against the bid-matrix sampler ------------------------


def assert_law(pvals, counts, n, bound=5.0):
    """Each count column is binomial(n, its chance): |z| < bound, and a
    chance of 0 or 1 gives a count of 0 or n exactly."""
    p = pvals[..., :counts.shape[-1]]
    sure = (p == 0.0) | (p == 1.0)
    np.testing.assert_array_equal(counts[sure], n * p[sure])
    z = (counts[~sure] - n * p[~sure]) / np.sqrt(n * p[~sure] * (1.0 - p[~sure]))
    assert np.all(np.abs(z) < bound), z


def check_law(model, auction, reserves, n, seed):
    """The law's chances against the sampler's counts and the handle's own,
    n probes at each reserve, and the count-row contract."""
    rs = np.asarray(reserves, dtype=np.float64)
    make = make_fp_partial_oracle if auction == FORMAT_FP else make_sp_partial_oracle
    oracle = make(model)
    law = oracle.pvals(rs)
    assert law.shape == (rs.size, model.k + 3) and np.all(law >= 0.0)
    np.testing.assert_allclose(law.sum(axis=1), 1.0, rtol=0, atol=1e-12)
    assert np.all(law[:, 0] == 0.0)
    if auction == FORMAT_FP:  # every probe is won by a bidder or the reserve
        assert np.all(law[:, -1] <= 1e-12)
    assert_law(law, partial_counts(model, auction, rs, rs.size * n, seed), n)
    counts = oracle(rs, rs.size * n, np.random.default_rng(seed))
    assert counts.shape == (rs.size, model.k + 2) and counts.dtype == np.int64
    assert_law(law, counts, n)
    return law


@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("reserves, n", [
    ([0.5], 5000),  # one reserve, on an atom
    ([0.2, 0.5, 0.8, 0.35], 1 << 14),  # atoms and a reserve between them
    ([0.0], 200000),  # the base call at reserve 0
])
def test_win_counts_equal_per_row_bincounts_of_the_winners(k, reserves, n):
    # first price on step CDFs with tied atoms, a linear table and a
    # density model: the per-row bincounts of the naive reading's winners
    # (the sampler) and the handle's counts are draws of the law's cells
    check_law(atom_model(k), FORMAT_FP, reserves, n, seed=k)


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("reserves, n", [
    ([0.5], 5000),  # one reserve, on an atom
    ([0.2, 0.5, 0.8, 0.35], 1 << 14),  # atoms and a reserve between them
])
def test_sp_counts_equal_per_row_masked_bincounts_of_the_outcomes(k, reserves, n):
    # second price: the sampler's bincounts of the winners where the reserve
    # bound the price, and the handle's counts, are draws of the law's cells
    check_law(atom_model(k), FORMAT_SP, reserves, n, seed=k)


def test_fp_law_of_a_table_that_starts_just_below_zero_is_pinned():
    # a linear table may start up to 1e-12 below 0: its first knot merges
    # into the knot at 0. The digest of the chances was taken when the knots
    # were clipped to [0, 1] rather than cut to it
    table = PiecewiseCdf([-1e-12, 0.3, 0.7, 1.0], [0.0, 0.2, 0.6, 1.0], interpolation=LINEAR)
    law = make_fp_partial_oracle(AuctionModel([table, uniform_cdf(), table]))
    assert law._knots.tolist() == [0.0, 0.3, 0.7, 1.0]
    pvals = law.pvals(np.linspace(0.0, 1.0, 101))
    assert hashlib.sha256(pvals.tobytes()).hexdigest() == (
        "d9096235f8d1e95b04a3ee240f9ab7a4063b66e2aac34a60218435e4bf42a65f")


def law_models():
    """The law test's models: the benchmark's k=2 and k=3 models, a model
    with atoms at 0 (a step table at 0, a linear table's first value) and
    one whose linear table starts with an atom above 0."""
    half = PiecewiseCdf([0.0, 0.5], [0.0, 1.0], interpolation=LINEAR)
    d1 = BoundedDensityModel(knots=[0.0, 1.0], density=[0.75, 1.25], alpha_lo=0.5, eta_hi=2.0)
    d2 = BoundedDensityModel(knots=[0.0, 1.0], density=[1.25, 0.75], alpha_lo=0.5, eta_hi=2.0)
    at_zero = PiecewiseCdf([0.0, 0.5, 1.0], [0.4, 0.7, 1.0], interpolation=STEP)
    lifted = PiecewiseCdf([0.0, 0.6, 1.0], [0.2, 0.5, 1.0], interpolation=LINEAR)
    return {
        "uniform2": uniform_model(),
        "half2": AuctionModel([half, half]),
        "bounded3": AuctionModel([d1.to_cdf(), d2.to_cdf(), d1.to_cdf()]),  # 4097 knots
        "bounded3-density": AuctionModel([d1, d2, d1]),
        "atoms-at-0": AuctionModel([at_zero, lifted]),
        "linear-atom": AuctionModel([PiecewiseCdf([0.3, 1.0], [0.2, 1.0], interpolation=LINEAR),
                                     uniform_cdf()]),
    }


@pytest.mark.parametrize("auction", [FORMAT_FP, FORMAT_SP])
@pytest.mark.parametrize("name", list(law_models()))
def test_probe_law_matches_the_bid_matrix_sampler(name, auction):
    rs = [0.0, 0.1, 0.3, 0.45, 0.5, 0.62, 0.8, 0.97, 1.0]
    law = check_law(law_models()[name], auction, rs, 40000, seed=11)
    # at reserve 1 the reserve wins every probe
    assert law[-1, -2] == 1.0
    if name == "atoms-at-0":
        # bids of 0 never beat a reserve of 0: the reserve wins when both bid 0
        assert law[0, -2] == pytest.approx(0.4 * 0.2, abs=1e-15)


@pytest.mark.parametrize("name", ["uniform2", "half2", "bounded3-density", "mixed3"])
def test_fp_law_matches_adaptive_quadrature(name):
    # int_r^1 prod_{i!=j} F_i dF_j by scipy's adaptive quadrature, from
    # each model's closed-form CDFs and densities
    half = PiecewiseCdf([0.0, 0.5], [0.0, 1.0], interpolation=LINEAR)
    peaked = BoundedDensityModel(knots=[0.0, 0.4, 1.0], density=[0.5, 1.5, 0.5],
                                 alpha_lo=0.5, eta_hi=2.0)
    model = {"mixed3": AuctionModel([uniform_cdf(), peaked, half])}.get(name) \
        or law_models()[name]
    closed = []
    for d in model.bid_dists:
        if isinstance(d, BoundedDensityModel):
            closed.append((d.cdf, d.pdf))
        else:  # a linear table from 0 to its last breakpoint b: slope 1/b
            b = float(d.breakpoints[-1])
            closed.append((lambda x, b=b: min(max(x / b, 0.0), 1.0),
                           lambda x, b=b: 1.0 / b if x < b else 0.0))
    rs = np.array([0.0, 0.05, 0.25, 0.5, 0.7, 0.99])
    law = make_fp_partial_oracle(model).pvals(rs)
    for row, r in zip(law, rs):
        for j in range(model.k):
            ref = quad_fp_win_chance(closed, j, r)
            assert row[j + 1] == pytest.approx(ref, abs=1e-10)


def test_win_counts_reject_bad_reserves():
    m = uniform_model()
    for bad in (np.nan, -0.1, 1.1):
        for make in (make_fp_partial_oracle, make_sp_partial_oracle):
            with pytest.raises(ValidationError, match="reserve must lie in"):
                make(m)(np.array([0.5, bad]), 200, np.random.default_rng(0))
            with pytest.raises(ValidationError, match="reserve must lie in"):
                make(m)(np.array([bad]), 100, np.random.default_rng(0))
    # a scalar reserve is rejected too: the oracles take arrays only
    for reserves, n in (([0.5, 0.6], 101), ([], 100), ([[0.5]], 100), (0.5, 100)):
        for make in (make_fp_partial_oracle, make_sp_partial_oracle):
            with pytest.raises(ValidationError, match="split evenly"):
                make(m)(reserves, n, np.random.default_rng(0))


@pytest.mark.parametrize("bad", [np.nan, -0.1, 1.1])
def test_reserve_array_rejects_bad_entries(bad):
    # one bad reserve among a hundred, in either format
    m = uniform_model()
    rs = np.full(100, 0.5)
    rs[37] = bad
    for make in (make_fp_partial_oracle, make_sp_partial_oracle):
        with pytest.raises(ValidationError, match="reserve must lie in"):
            make(m)(rs, 100, np.random.default_rng(0))


def test_bid_matrix_stream_contract():
    # one child stream per bidder per call, spawned from SeedSequence(seed)
    # and filled in bidder order
    m = atom_model(3)
    seeds = np.random.SeedSequence(8).spawn(3)
    ref = np.vstack([d.ppf(np.random.default_rng(s).random(700))
                     for d, s in zip(m.bid_dists, seeds)])
    assert _bid_matrix(m, 700, 8).tobytes() == ref.tobytes()


def test_oracle_handles_expose_k():
    m = uniform_model(3)
    assert make_fp_partial_oracle(m).k == 3
    assert make_sp_partial_oracle(m).k == 3


# -- equilibrium --------------------------------------------------------------


def symmetric_equilibrium_bid(value_cdf, k, v, quad_points=4097):
    """Symmetric first-price equilibrium bid for value v among k bidders,
    the exact oracle of the solver's symmetric cases.

    beta(v) = v - (integral_0^v F(x)^{k-1} dx) / F(v)^{k-1}, with beta(0)=0.
    """
    fv = float(value_cdf.eval(v))
    denom = fv ** (k - 1)
    if denom <= 0.0 or v == 0.0:
        return 0.0
    xs = np.linspace(0.0, v, quad_points)
    trapz = getattr(np, "trapezoid", None) or np.trapz
    integral = float(trapz(value_cdf.eval(xs) ** (k - 1), xs))
    return v - integral / denom


def test_symmetric_bid_uniform_closed_form():
    # beta(v) = v*(k-1)/k for uniform values
    for k in (2, 3, 5):
        for v in (0.2, 0.5, 0.9, 1.0):
            b = symmetric_equilibrium_bid(uniform_cdf(), k, v)
            assert b == pytest.approx(v * (k - 1) / k, abs=1e-6)


def test_symmetric_bid_zero_at_zero():
    assert symmetric_equilibrium_bid(uniform_cdf(), 2, 0.0) == 0.0


def test_symmetric_bid_power_law_values():
    # G(v) = v^2 (k=2): beta(v) = v - int v x^2 dx / v^2 = v - v/3 = 2v/3
    G = PiecewiseCdf(np.linspace(0, 1, 2049), np.linspace(0, 1, 2049) ** 2,
                     interpolation="linear")
    assert symmetric_equilibrium_bid(G, 2, 0.6) == pytest.approx(0.4, abs=1e-5)


def test_asymmetric_solver_recovers_symmetric_inverse():
    for k in (2, 3):
        m = AuctionModel(bid_dists=[uniform_cdf()] * k,
                         value_dists=[UNI_DENSITY] * k)
        prof = solve_asymmetric_equilibrium(m)
        assert prof.eta_eq == pytest.approx((k - 1) / k, abs=1e-4)
        bs = np.linspace(0.05, prof.eta_eq * 0.95, 25)
        for i in range(1, k + 1):
            alpha_i = np.interp(bs, prof.grid, prof.alphas[i - 1])
            np.testing.assert_allclose(alpha_i, k * bs / (k - 1), atol=1e-3)


def tilted2():
    tilted = BoundedDensityModel(knots=[0.0, 1.0], density=[0.6, 1.4],
                                 alpha_lo=0.5, eta_hi=2.0)
    return AuctionModel(bid_dists=[uniform_cdf()] * 2, value_dists=[UNI_DENSITY, tilted])


def count_integrations(monkeypatch, integrate):
    """Route the solver's integrations through ``integrate``; the list of their etas."""
    etas = []

    def counted(cdf_pdf, k, eta):
        etas.append(eta)
        return integrate(cdf_pdf, k, eta)

    monkeypatch.setattr(auction_sim, "_integrate_backward", counted)
    return etas


def test_asymmetric_solver_residual_small():
    m = tilted2()
    prof = solve_asymmetric_equilibrium(m)
    bs = np.linspace(0.1 * prof.eta_eq, 0.9 * prof.eta_eq, 15)
    for i in (1, 2):
        assert np.max(np.abs(equilibrium_residual(prof, m, i, bs))) <= 1e-2


def test_solver_returns_the_first_trajectory_within_its_tolerance(monkeypatch):
    etas = count_integrations(monkeypatch, auction_sim._integrate_backward)
    prof = solve_asymmetric_equilibrium(tilted2())
    # the 21st bisection step is the first that neither crashes nor misses _TOL
    assert len(etas) == 21
    assert prof.eta_eq == etas[-1] == 0.5321569352812766
    assert prof.defect <= auction_sim._TOL


def test_solver_raises_once_the_bracket_collapses(monkeypatch):
    def crash(cdf_pdf, k, eta):
        raise auction_sim._Crash

    etas = count_integrations(monkeypatch, crash)
    with pytest.raises(EstimationError, match="equilibrium shooting did not converge"):
        solve_asymmetric_equilibrium(tilted2())
    # every step halves the bracket (1e-6, 1] until it is below 1e-14
    assert len(etas) <= 48


def profile_digest(prof):
    h = hashlib.sha256()
    for a in (prof.grid, prof.alphas, np.float64(prof.eta_eq), np.float64(prof.defect)):
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()


# sha256 of (grid, alphas, eta_eq, defect) from the shooting loop on numpy
# scalars, before it stepped through Python floats
EQUILIBRIUM_PINS = {
    "tilted2": "ffaa7f1b4a10e9f6bf82a0e4f1cb246d47593959804289f86519cfa3f30a8bbc",
    "half2": "f863cf0af266b8565245144c7ea7b6225a151cd90d77ec7b5df8286968e5b852",
    "peaked2": "500cac932e89bd2b42481d55c171fb993893f05768bf185cab61ab87019aca41",
}


@pytest.mark.parametrize("name", sorted(EQUILIBRIUM_PINS))
def test_equilibrium_profiles_are_pinned(name):
    # half2 is the benchmark's uniform-value pair; peaked2 reads a 4-knot
    # density through the closures' slope table
    peaked = BoundedDensityModel(knots=[0.0, 0.3, 0.5, 1.0], density=[0.6, 1.2, 1.4, 0.48],
                                 alpha_lo=0.4, eta_hi=2.0)
    model = {"tilted2": tilted2(),
             "half2": AuctionModel(bid_dists=[uniform_cdf()] * 2,
                                   value_dists=[UNI_DENSITY] * 2),
             "peaked2": AuctionModel(bid_dists=[uniform_cdf()] * 2,
                                     value_dists=[UNI_DENSITY, peaked])}[name]
    assert profile_digest(solve_asymmetric_equilibrium(model)) == EQUILIBRIUM_PINS[name]


def test_solver_requires_value_distributions():
    with pytest.raises(ValidationError):
        solve_asymmetric_equilibrium(uniform_model())


# -- lower-bound fixture -------------------------------------------------------


def test_fixture_first_bidder_cdfs_exact():
    d, dp = lower_bound_fixture(k=3, eps=0.1, lam=0.2)
    f1 = d.bid_dists[0]
    # hidden mass (1-lam) at eps/4 on top of the lam-uniform part
    assert f1.eval(0.1 / 4) == pytest.approx(0.2 * 0.025 + 0.8)
    assert f1.eval(1.0) == 1.0
    f1p = dp.bid_dists[0]
    assert f1p.eval(3 * 0.1 / 4) == pytest.approx(0.2 * 0.075)
    assert f1p.eval(0.1) == pytest.approx(0.2 * 0.1 + 0.8)


def test_fixture_other_bidders_identical():
    d, dp = lower_bound_fixture(k=3, eps=0.1, lam=0.2)
    for j in (1, 2):
        np.testing.assert_array_equal(d.bid_dists[j].values,
                                      dp.bid_dists[j].values)
    base = d.bid_dists[1]
    assert base.eval(0.75) == pytest.approx(0.75 * 0.2)


def test_fixture_separation_at_least_half():
    from auctionmetrics.dist_core import kolmogorov

    d, dp = lower_bound_fixture(k=2, eps=0.1, lam=0.2)
    assert kolmogorov(d.bid_dists[0], dp.bid_dists[0]) >= 0.5


def test_fixture_rejects_bad_parameters():
    with pytest.raises(ValidationError):
        lower_bound_fixture(k=2, eps=0.6, lam=0.2)
    with pytest.raises(ValidationError):
        lower_bound_fixture(k=2, eps=0.1, lam=0.7)


def test_solver_scalar_closures_match_the_vectorised_distributions():
    # equilibrium_residual evaluates the vectorised CDFs, so it only checks
    # the solver if the solver's plain-float closures agree with them
    dists = [
        UNI_DENSITY,
        BoundedDensityModel(knots=[0.0, 1.0], density=[0.6, 1.4], alpha_lo=0.5, eta_hi=2.0),
        BoundedDensityModel(knots=[0.0, 1.0], density=[1.25, 0.75], alpha_lo=0.5, eta_hi=2.0),
        BoundedDensityModel(knots=[0.0, 0.25, 0.5, 1.0], density=[8 / 3, 0.0, 0.0, 8 / 3],
                            alpha_lo=0.0, eta_hi=3.0),
        BoundedDensityModel(knots=[0.0, 0.3, 0.7, 1.0],
                            density=np.array([0.5, 2.0, 0.4, 1.1]) / 1.08,
                            alpha_lo=0.2, eta_hi=3.0),
    ]
    for d in dists:
        cdf_pdf = _fast_scalar_cdf_pdf(d)
        xs = np.concatenate([np.linspace(-0.5, 1.5, 4001), d.knots,
                             np.nextafter(d.knots, -1.0), np.nextafter(d.knots, 2.0)])
        np.testing.assert_allclose([cdf_pdf(float(x))[0] for x in xs], d.cdf(xs),
                                   rtol=0, atol=1e-12)
        inner = np.linspace(0.0005, 0.9995, 400)
        np.testing.assert_allclose([cdf_pdf(float(x))[1] for x in inner], d.pdf(inner),
                                   rtol=0, atol=1e-12)
