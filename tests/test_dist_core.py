import json
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from auctionmetrics import dist_core
from auctionmetrics.auction_sim import AuctionModel
from auctionmetrics.dist_core import (
    _GUIDE_WIDTH,
    LINEAR,
    STEP,
    BoundedDensityModel,
    PiecewiseCdf,
    StepFunction,
    _guided_search,
    dkw_band,
    empirical_cdf,
    kolmogorov,
    levy,
    sub_cdf,
    uniform_cdf,
    wasserstein1,
    window_grid,
)
from auctionmetrics.errors import ValidationError


def staircase(bp, vals):
    return PiecewiseCdf(bp, vals, interpolation=STEP, is_full_cdf=False)


def random_staircase(rng, full=True):
    m = rng.integers(1, 8)
    bp = np.sort(rng.random(m))
    bp = np.unique(np.round(bp, 6))
    vals = np.sort(rng.random(bp.size))
    if full:
        vals[-1] = 1.0
    return PiecewiseCdf(bp, vals, interpolation=STEP, is_full_cdf=full)


# -- construction / validation ------------------------------------------------


def test_rejects_descending_breakpoints():
    with pytest.raises(ValidationError):
        PiecewiseCdf([0.5, 0.2], [0.1, 1.0])


def test_rejects_decreasing_values():
    with pytest.raises(ValidationError):
        PiecewiseCdf([0.1, 0.5], [0.9, 0.1])


def test_rejects_breakpoints_outside_unit_interval():
    with pytest.raises(ValidationError):
        PiecewiseCdf([0.0, 1.5], [0.0, 1.0])


def test_rejects_a_step_breakpoint_above_one():
    # read as flat at F(1) beyond 1, it would never reach 1 on [0, 1]: 0.8 at
    # 1.0, and a Kolmogorov distance of 0.2 from the same staircase ending at 1
    with pytest.raises(ValidationError, match=r"exceed 1, and the last is 1\.000000000001$"):
        PiecewiseCdf([0.3, 1 + 1e-12], [0.8, 1.0])
    # one check for every breakpoint above 1, however far
    with pytest.raises(ValidationError, match=r"^a step CDF's breakpoints must not exceed 1, "
                                              r"and the last is 1\.5$"):
        PiecewiseCdf([0, 1.5], [0, 1])
    with pytest.raises(ValidationError, match="must not exceed 1"):
        sub_cdf([0.3, 1 + 1e-12], [0.2, 0.5])
    assert PiecewiseCdf([0.3, 1.0], [0.8, 1.0]).eval(1.0) == 1.0


def test_rejects_a_linear_breakpoint_above_one():
    # read as flat at F(1) beyond 1, it never reached 1 either: 0.9999999999997142
    # at 1 and at 2
    for full in (True, False):
        with pytest.raises(ValidationError,
                           match=r"^a linear CDF's breakpoints must not exceed 1, and the last "
                                 r"is 1\.000000000001$"):
            PiecewiseCdf([0.3, 1 + 1e-12], [0.8, 1.0], interpolation=LINEAR, is_full_cdf=full)
    assert PiecewiseCdf([0.3, 1.0], [0.8, 1.0], interpolation=LINEAR).eval(2.0) == 1.0
    # a density model may end its knots up to 1e-12 past 1; its table ends at 1
    model = BoundedDensityModel(knots=[0.0, 0.5, 1.0 + 5e-13], density=[1.0, 1.0, 1.0],
                                alpha_lo=0.5, eta_hi=2.0)
    F = model.to_cdf()
    assert F.breakpoints[-1] == 1.0 and F.eval(1.0) == 1.0
    assert np.array_equal(F.breakpoints, np.linspace(0.0, 1.0, 4097))


def test_full_cdf_must_terminate_at_one():
    with pytest.raises(ValidationError):
        PiecewiseCdf([0.0, 1.0], [0.0, 0.7], is_full_cdf=True)
    # the same values are fine as a sub-CDF
    sub_cdf([0.0, 1.0], [0.0, 0.7])


def test_rejects_unknown_interpolation():
    with pytest.raises(ValidationError):
        PiecewiseCdf([0.0, 1.0], [0.0, 1.0], interpolation="cubic")


# -- evaluation ---------------------------------------------------------------


def test_step_eval_matches_hand_values():
    F = staircase([0.2, 0.5, 0.8], [0.1, 0.4, 1.0])
    assert F.eval(0.1) == 0.0
    assert F.eval(0.2) == 0.1
    assert F.eval(0.49999) == 0.1
    assert F.eval(0.5) == 0.4
    assert F.eval(0.8) == 1.0
    assert F.eval(2.0) == 1.0  # clamps above 1
    assert F.eval(-0.5) == 0.0


def test_step_left_limits():
    F = staircase([0.2, 0.5], [0.3, 1.0])
    assert F.eval_left(0.2) == 0.0
    assert F.eval_left(0.5) == 0.3
    assert F.eval_left(0.7) == 1.0
    # flat at F(1) beyond 1, so a jump at 1 is inside the left limit there
    assert PiecewiseCdf([0.5, 1.0], [0.5, 1.0]).eval_left(1.5) == 1.0
    # zero below its first breakpoint, so a linear table starting above 0
    # jumps there
    lifted = PiecewiseCdf([0.2, 1.0], [0.3, 1.0], interpolation=LINEAR)
    assert (lifted.eval_left(0.0), lifted.eval_left(0.2), lifted.eval(0.2)) == (0.0, 0.0, 0.3)


def test_linear_eval_interpolates():
    F = PiecewiseCdf([0.0, 0.5, 1.0], [0.0, 0.2, 1.0], interpolation=LINEAR)
    assert F.eval(0.25) == pytest.approx(0.1)
    assert F.eval(0.75) == pytest.approx(0.6)


def test_linear_table_above_zero_draws_the_law_it_evaluates():
    # a linear table is 0 below its first breakpoint, so a first value above
    # 0 is an atom at that breakpoint, where ppf draws it; eval used to read
    # 0.3 on [0, 0.2), which no draw reached
    F = PiecewiseCdf([0.2, 1.0], [0.3, 1.0], interpolation=LINEAR)
    assert (F.eval(0.1), F.eval(0.2), F.eval(0.6)) == (0.0, 0.3, pytest.approx(0.65))
    draws = F.ppf(np.random.default_rng(5).random(200000))
    assert np.mean(draws == 0.2) == pytest.approx(0.3, abs=0.005)
    assert kolmogorov(empirical_cdf(draws), F) <= dkw_band(draws.size, 1e-4)


def test_eval_is_vectorized():
    F = uniform_cdf()
    xs = np.linspace(0, 1, 11)
    np.testing.assert_allclose(F.eval(xs), xs)


# -- generalized inverse ------------------------------------------------------


def test_ppf_step_hand_values():
    F = staircase([0.2, 0.5, 0.8], [0.1, 0.4, 1.0])
    assert F.ppf(0.05) == 0.2
    assert F.ppf(0.1) == 0.2
    assert F.ppf(0.100001) == 0.5
    assert F.ppf(0.4) == 0.5
    assert F.ppf(1.0) == 0.8
    assert F.ppf(0.0) == 0.0


def test_ppf_linear_matches_bisection_oracle():
    F = PiecewiseCdf([0.0, 0.3, 1.0], [0.0, 0.6, 1.0], interpolation=LINEAR)

    def oracle(q):
        lo, hi = 0.0, 1.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if F.eval(mid) >= q:
                hi = mid
            else:
                lo = mid
        return hi

    for q in [0.05, 0.3, 0.6, 0.75, 0.99]:
        assert F.ppf(q) == pytest.approx(oracle(q), abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(0.0, 1.0))
def test_ppf_is_generalized_inverse(seed, q):
    F = random_staircase(np.random.default_rng(seed))
    x = F.ppf(q)
    # inf{x : F(x) >= q}: F at x reaches q (or q exceeds the terminal value
    # and x = 1), and F strictly before x stays below q
    if q <= F.values[-1]:
        assert F.eval(x) >= q - 1e-12
    else:
        assert x == 1.0
    if x > 0 and q > 0:
        assert F.eval_left(x) <= q + 1e-12


def test_ppf_rejects_levels_outside_unit_interval():
    with pytest.raises(ValidationError):
        uniform_cdf().ppf(1.5)


@pytest.mark.parametrize("dist", [
    # a NaN level used to come back as nan, or as 1.0 when values[0] > 0
    PiecewiseCdf([0.0, 0.5, 1.0], [0.2, 0.6, 1.0], interpolation=LINEAR),
    staircase([0.2, 0.5, 0.8], [0.1, 0.4, 1.0]),
    BoundedDensityModel(knots=[0.0, 1.0], density=[0.5, 1.5], alpha_lo=0.5, eta_hi=2.0),
], ids=["linear", "step", "density"])
def test_ppf_rejects_nan_levels(dist):
    for q in (math.nan, [math.nan], [0.3, math.nan, 0.7]):
        with pytest.raises(ValidationError, match=r"\[0,1\]"):
            dist.ppf(q)


def test_ppf_accepts_an_empty_level_array():
    density = BoundedDensityModel(knots=[0.0, 1.0], density=[0.5, 1.5],
                                  alpha_lo=0.5, eta_hi=2.0)
    for dist in (uniform_cdf(), staircase([0.5], [1.0]), density):
        assert dist.ppf(np.array([])).shape == (0,)


# The reference quantile functions; ``ppf`` must reproduce them bit for bit.


def reference_linear_ppf(F, q):
    qv = np.atleast_1d(np.asarray(q, dtype=np.float64))
    bp, vals = F.breakpoints, F.values
    idx = np.searchsorted(vals, qv, side="left")
    idx = np.clip(idx, 0, vals.size - 1)
    lo = np.maximum(idx - 1, 0)
    v0, v1 = vals[lo], vals[idx]
    x0, x1 = bp[lo], bp[idx]
    dv = v1 - v0
    t = np.where(dv > 0, (qv - v0) / np.where(dv > 0, dv, 1.0), 0.0)
    out = np.where(idx == 0, bp[0], x0 + np.clip(t, 0.0, 1.0) * (x1 - x0))
    out = np.where(qv > vals[-1] + 1e-12, 1.0, out)
    out = np.where(qv <= vals[0], bp[0] if vals[0] > 0 else 0.0, out)
    return np.where(qv <= 0.0, 0.0, out)


def reference_density_ppf(d, q):
    qv = np.atleast_1d(np.asarray(q, dtype=np.float64))
    idx = np.clip(np.searchsorted(d._cum, qv, side="right") - 1, 0, d.knots.size - 2)
    x0 = d.knots[idx]
    f0 = d.density[idx]
    slope = (d.density[idx + 1] - f0) / (d.knots[idx + 1] - x0)
    rem = qv - d._cum[idx]
    disc = np.maximum(f0 * f0 + 2.0 * slope * rem, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        t_quad = (np.sqrt(disc) - f0) / slope
        t_lin = rem / f0
    t = np.where(np.abs(slope) > 1e-14, t_quad, t_lin)
    out = x0 + t
    # changed from the original formula in two cases, each now read off the
    # definition inf{x : F(x) >= q}. A level below the total mass that F
    # takes at a knot is first reached at the first such knot (the formula
    # gave the right end of a zero-density plateau, and for level 0 the end
    # of a leading zero-density piece). The total mass on a trailing
    # zero-density piece, where the formula gave 0/0 = nan, is first reached
    # where the zero tail starts.
    cum = d._cum
    first = np.searchsorted(cum, qv, side="left")  # first knot with F >= q
    at_knot = (qv < cum[-1]) & (cum[np.minimum(first, cum.size - 1)] == qv)
    out[at_knot] = d.knots[first[at_knot]]
    gap = np.isnan(out)
    out[gap] = d.knots[first[gap]]
    return np.clip(out, 0.0, 1.0)


def assert_same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape
    assert np.array_equal(a, b, equal_nan=True)
    assert a.tobytes() == b.tobytes()  # also tells -0.0 from 0.0


def levels_around(knot_values, extra):
    """Levels at, just below and just above each knot value, 0, 1 and extra."""
    kv = np.asarray(knot_values, dtype=np.float64)
    near = np.concatenate([kv, np.nextafter(kv, -1.0), np.nextafter(kv, 2.0),
                           kv + 5e-13, [0.0, 1.0], extra])
    return near[(near >= 0.0) & (near <= 1.0)]


grid_points = st.lists(st.integers(0, 40), min_size=1, max_size=9)


@settings(max_examples=150, deadline=None)
@given(xs=grid_points, vs=grid_points, full=st.booleans(),
       extra=st.lists(st.floats(0.0, 1.0), max_size=20))
def test_linear_ppf_matches_reference_bit_for_bit(xs, vs, full, extra):
    # knots on a coarse grid so that flat segments, values[0] > 0 and levels
    # exactly at knot values all occur often
    bp = np.unique(np.asarray(xs) / 40.0)
    vals = np.sort(np.resize(np.asarray(vs) / 40.0, bp.size))
    if full:
        vals[-1] = 1.0
    F = PiecewiseCdf(bp, vals, interpolation=LINEAR, is_full_cdf=full)
    q = levels_around(vals, extra)
    assert_same_bits(F.ppf(q), reference_linear_ppf(F, q))
    for level in q[:5]:
        assert F.ppf(float(level)) == reference_linear_ppf(F, level)[0]


def test_linear_ppf_matches_reference_on_edge_knots():
    cdfs = [
        PiecewiseCdf([-0.0, 0.5, 1.0], [0.2, 0.6, 1.0], interpolation=LINEAR),
        PiecewiseCdf([0.3], [0.4], interpolation=LINEAR, is_full_cdf=False),
        PiecewiseCdf([-0.0], [0.4], interpolation=LINEAR, is_full_cdf=False),
        PiecewiseCdf([0.0, 0.2, 0.6, 1.0], [0.0, 0.5, 0.5, 0.7],
                     interpolation=LINEAR, is_full_cdf=False),
    ]
    for F in cdfs:
        q = levels_around(F.values, np.linspace(0.0, 1.0, 101))
        assert_same_bits(F.ppf(q), reference_linear_ppf(F, q))


def test_linear_ppf_matches_reference_on_long_tables():
    # tables of many knots, around and well above the sizes the other tests
    # draw, must agree with the reference too
    rng = np.random.default_rng(5)
    for m in (31, 32, 33, 400, 4097):
        bp = np.unique(rng.random(m))
        # 4097 knots, as in to_cdf(), take the guide table; values to 2
        # digits would crowd its buckets
        vals = np.sort(np.round(rng.random(bp.size), 2 if m < 4097 else 6))
        vals[-1] = 1.0
        F = PiecewiseCdf(bp, vals, interpolation=LINEAR)
        q = levels_around(vals, rng.random(2000))
        assert_same_bits(F.ppf(q), reference_linear_ppf(F, q))
    assert search_agrees(vals, q)


def search_agrees(keys, q):
    """Check ``_guided_search`` against ``searchsorted`` on both sides; return
    whether its guide table ran, that is, it never called ``searchsorted``."""
    tabled = []
    for side in ("left", "right"):
        with mock.patch.object(np, "searchsorted", wraps=np.searchsorted) as plain:
            got = _guided_search(keys, q, side)
        tabled.append(not plain.called)
        assert got.dtype == np.intp
        assert_same_bits(got, np.searchsorted(keys, q, side=side))
    assert tabled[0] == tabled[1]
    return tabled[0]


def bucket_edges(M):
    """Each bucket edge b/M of a table of M/2 keys, its neighbours, 0 and 1."""
    edges = np.arange(M + 1) / M
    near = np.concatenate([edges, np.nextafter(edges, -1.0), np.nextafter(edges, 2.0)])
    return near[(near >= 0.0) & (near <= 1.0)]


def test_guided_search_matches_searchsorted_on_the_bounded2_tables():
    for density in ([0.75, 1.25], [1.25, 0.75]):
        keys = BoundedDensityModel(knots=[0.0, 1.0], density=density, alpha_lo=0.5,
                                   eta_hi=2.0).to_cdf().values
        assert keys.size == 4097
        rng = np.random.default_rng(11)
        # fewer levels than keys take the table too
        for q in (rng.random(50000), levels_around(keys, bucket_edges(2 * keys.size)),
                  rng.random(100)):
            assert search_agrees(keys, q)


def test_guided_search_matches_searchsorted_on_random_tables():
    # flat runs, a first value above 0, and ends 1e-12 outside [0, 1]
    rng = np.random.default_rng(13)
    taken = 0
    for trial in range(60):
        m = int(rng.integers(3, 300))
        keys = np.sort(np.round(rng.random(m), int(rng.integers(2, 7))))
        keys = np.repeat(keys, rng.integers(1, 4, size=m))[:m]  # flat runs
        if trial % 3 == 0:
            keys[0], keys[-1] = -1e-12, 1.0 + 1e-12
        elif trial % 3 == 1:
            keys = 0.1 + 0.9 * keys  # first value above 0
        q = np.concatenate([levels_around(keys, rng.random(m)), bucket_edges(2 * m)])
        taken += search_agrees(keys, q)
    assert taken >= 40
    # a level equal to a key in each bucket, on a table that fills every
    # bucket, and on one with ends well outside [0, 1], in the end buckets
    keys = np.arange(4 * 64 + 1) / (4 * 64)
    for table in (keys, np.concatenate([[-0.3, -0.1], keys[1:-1], [1.2, 1.4]])):
        assert search_agrees(table, levels_around(table, bucket_edges(2 * table.size)))


def test_guided_search_falls_back_on_a_dense_bucket_and_on_unsorted_keys():
    rng = np.random.default_rng(17)
    dense = np.sort(np.concatenate([np.full(_GUIDE_WIDTH + 1, 0.5), rng.random(100)]))
    assert not search_agrees(dense, levels_around(dense, rng.random(500)))
    assert not search_agrees(np.array([0.0, 0.6, 0.4, 1.0]), rng.random(10))


# -- step functions -----------------------------------------------------------


def reference_step_eval(bp, vals, left, x, side):
    """The step function evaluation that the removed sp_estimator.StepFunction
    used (side "right"), and the same lookup for left limits (side "left").
    It indexed an empty ``vals``, so no breakpoints is the constant ``left``."""
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    if not bp.size:
        return np.full(x.shape, float(left))
    idx = np.searchsorted(bp, x, side=side) - 1
    return np.where(idx >= 0, vals[np.maximum(idx, 0)], left)


def reference_cdf_step_eval(F, x, side):
    """PiecewiseCdf.eval (side "right") and eval_left of a staircase, as they
    were written before they evaluated through StepFunction, but with the left
    limit F(1) beyond 1, where the old code gave F(1-)."""
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    idx = np.searchsorted(F.breakpoints, np.minimum(x, 1.0), side=side) - 1
    out = np.where(idx >= 0, F.values[np.maximum(idx, 0)], 0.0)
    if side == "left":
        out = np.where(x > 1.0, reference_cdf_step_eval(F, 1.0, "right"), out)
    return np.where(x <= 0.0 if side == "left" else x < 0.0, 0.0, out)


def points_around(bp, extra):
    """Each breakpoint and its float neighbours, points outside [0,1], extra."""
    bp = np.asarray(bp, dtype=np.float64)
    return np.concatenate([bp, np.nextafter(bp, -np.inf), np.nextafter(bp, np.inf),
                           [-0.5, -0.0, 0.0, 1.0, 1.5], extra])


outside_points = st.lists(st.floats(-0.5, 1.5), max_size=20)


@settings(max_examples=150, deadline=None)
@given(xs=st.lists(st.integers(-10, 50), max_size=12),
       vs=st.lists(st.integers(-40, 80), min_size=12, max_size=12),
       left=st.integers(-40, 80), extra=outside_points)
def test_step_function_matches_reference_bit_for_bit(xs, vs, left, extra):
    # breakpoints may be empty or lie outside [0,1]; values are unconstrained
    bp = np.unique(np.asarray(xs, dtype=np.float64) / 40.0)
    vals = np.asarray(vs[:bp.size], dtype=np.float64) / 40.0
    f = StepFunction(bp, vals, left_value=left / 40.0)
    x = points_around(bp, extra)
    for side, method in (("right", f.eval), ("left", f.eval_left)):
        want = reference_step_eval(bp, vals, left / 40.0, x, side)
        assert_same_bits(method(x), want)
        for point, value in zip(x[:6], want):
            assert method(float(point)) == value


@settings(max_examples=150, deadline=None)
@given(xs=grid_points, vs=grid_points, full=st.booleans(), nudge=st.booleans(),
       extra=outside_points)
def test_step_cdf_eval_matches_reference_bit_for_bit(xs, vs, full, nudge, extra):
    bp = np.unique(np.asarray(xs) / 40.0)
    if nudge:  # a first breakpoint just below 0, inside the tolerance
        bp[0] -= 5e-13
    vals = np.sort(np.resize(np.asarray(vs) / 40.0, bp.size))
    if full:
        vals[-1] = 1.0
    F = PiecewiseCdf(bp, vals, interpolation=STEP, is_full_cdf=full)
    x = points_around(bp, extra)
    assert_same_bits(F.eval(x), reference_cdf_step_eval(F, x, "right"))
    assert_same_bits(F.eval_left(x), reference_cdf_step_eval(F, x, "left"))


def test_step_function_rejects_unsorted_breakpoints():
    with pytest.raises(ValidationError):
        StepFunction([0.5, 0.5], [1.0, 2.0])
    with pytest.raises(ValidationError):
        StepFunction([0.1, 0.2], [1.0])


def density_model(knots, density):
    kn = np.asarray(knots, dtype=np.float64)
    de = np.asarray(density, dtype=np.float64)
    de = de / float(np.sum(0.5 * (de[:-1] + de[1:]) * np.diff(kn)))
    return BoundedDensityModel(knots=kn, density=de, alpha_lo=float(de.min()),
                               eta_hi=float(de.max()))


def assert_density_ppf_matches_reference(d, extra):
    q = levels_around(d._cum, extra)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # ppf must not warn
        got = d.ppf(q)
    assert_same_bits(got, reference_density_ppf(d, q))
    assert np.all(d.cdf(got) >= q - 1e-12)  # F reaches each level at its ppf


@settings(max_examples=150, deadline=None)
@given(xs=st.lists(st.integers(1, 39), max_size=7),
       dens=st.lists(st.integers(0, 6), min_size=9, max_size=9),
       shift=st.booleans(), extra=st.lists(st.floats(0.0, 1.0), max_size=20))
def test_density_ppf_matches_reference_bit_for_bit(xs, dens, shift, extra):
    # small integer densities give flat pieces (the linear branch, zero
    # density included), curved pieces and models that mix both
    kn = np.concatenate([[0.0], np.unique(np.asarray(xs) / 40.0), [1.0]])
    de = np.asarray(dens[:kn.size], dtype=np.float64) + float(shift)
    if not np.any(de):
        de = np.ones(kn.size)
    assert_density_ppf_matches_reference(density_model(kn, de), extra)


def test_density_ppf_matches_reference_on_each_branch():
    rng = np.random.default_rng(9)
    models = {
        "curved": density_model([0.0, 0.4, 1.0], [0.6, 1.3, 0.7]),
        "flat": density_model([0.0, 0.5, 1.0], [1.0, 1.0, 1.0]),
        "mixed with a zero piece": density_model([0.0, 0.25, 0.5, 1.0], [0, 0, 2, 2]),
        "zero last piece": density_model([0.0, 0.5, 0.75, 1.0], [2, 2, 0, 0]),
        "long table": density_model(np.linspace(0.0, 1.0, 60),
                                    1.0 + rng.integers(0, 3, 60)),
    }
    for d in models.values():
        assert_density_ppf_matches_reference(d, rng.random(3000))


def test_density_ppf_of_a_plateau_level_is_the_plateau_start():
    # cdf(0.25) = 1/3 and the density is zero on [0.25, 0.5], so the
    # generalised inverse inf{x : F(x) >= 1/3} is 0.25, not 0.5
    d = BoundedDensityModel(knots=[0.0, 0.25, 0.5, 1.0], density=[8 / 3, 0.0, 0.0, 8 / 3],
                            alpha_lo=0.0, eta_hi=3.0)
    assert d.cdf(0.25) == 1 / 3
    assert d.ppf(1 / 3) == 0.25
    assert d.ppf([0.1, 1 / 3, 0.5]).tolist() == [d.ppf(0.1), 0.25, d.ppf(0.5)]
    assert d.ppf(np.nextafter(1 / 3, 1.0)) > 0.5


def test_density_ppf_of_level_zero_skips_no_leading_zero_piece():
    # F is 0 on the leading zero-density piece [0, 0.025], so the generalised
    # inverse inf{x : F(x) >= 0} is the start of the support, as for to_cdf()
    d = density_model([0.0, 0.025, 1.0], [0, 0, 2])
    assert d.cdf(0.02) == 0.0
    assert d.ppf(0.0) == 0.0 == d.to_cdf().ppf(0.0)
    assert d.ppf([0.0, 0.5]).tolist() == [0.0, d.ppf(0.5)]


def test_density_ppf_of_the_total_mass_skips_a_zero_tail():
    # a trailing zero-density piece made ppf(1.0) 0/0 = nan; the generalised
    # inverse inf{x : F(x) >= 1} is where the zero tail starts
    one_piece = density_model([0.0, 0.5, 0.75, 1.0], [2, 2, 0, 0])
    two_pieces = density_model([0.0, 0.5, 0.75, 0.9, 1.0], [2, 2, 0, 0, 0])
    for d in (one_piece, two_pieces):
        assert d._cum[-1] == 1.0
        assert d.ppf(1.0) == 0.75
        assert d.ppf([0.2, 1.0, 1.0]).tolist() == [d.ppf(0.2), 0.75, 0.75]
        assert d.cdf(0.75) == 1.0 and d.cdf(0.75 - 1e-6) < 1.0


# -- serialization ------------------------------------------------------------


def test_json_round_trip_is_exact():
    rng = np.random.default_rng(7)
    for _ in range(20):
        F = random_staircase(rng, full=False)
        G = PiecewiseCdf.from_dict(json.loads(json.dumps(F.to_dict())))
        np.testing.assert_array_equal(F.breakpoints, G.breakpoints)
        np.testing.assert_array_equal(F.values, G.values)
        assert G.interpolation == F.interpolation
        assert G.is_full_cdf == F.is_full_cdf


def test_from_dict_missing_field():
    with pytest.raises(ValidationError):
        PiecewiseCdf.from_dict(json.loads('{"values": [1.0]}'))


def decimal17(v):
    """The 17-significant-digit decimal round trip that to_dict used to apply."""
    return float(f"{float(v):.17g}")


# unit-interval floats with signed zeros, subnormals and the smallest normal
unit_floats = st.one_of(
    st.floats(0.0, 1.0),
    st.integers(1, 2 ** 52 - 1).map(lambda m: m * 5e-324),
    st.sampled_from([-0.0, 0.0, 5e-324, 2.2250738585072014e-308, 1.0]),
)


@settings(max_examples=300, deadline=None)
@given(pairs=st.lists(st.tuples(unit_floats, unit_floats), min_size=1, max_size=12,
                      unique_by=lambda t: t[0]),
       interpolation=st.sampled_from([STEP, LINEAR]))
def test_piecewise_cdf_to_dict_equals_the_decimal_round_trip(pairs, interpolation):
    F = PiecewiseCdf(sorted(b for b, _ in pairs), sorted(v for _, v in pairs),
                     interpolation=interpolation, is_full_cdf=False)
    old = {
        "interpolation": F.interpolation,
        "breakpoints": [float(decimal17(v)) for v in F.breakpoints],
        "values": [float(decimal17(v)) for v in F.values],
        "is_full_cdf": bool(F.is_full_cdf),
    }
    assert json.dumps(F.to_dict()) == json.dumps(old)


@settings(max_examples=300, deadline=None)
@given(inner=st.lists(unit_floats.filter(lambda x: 0.0 < x < 1.0), max_size=8, unique=True),
       start=st.sampled_from([0.0, -0.0]),
       ramp=st.booleans(), slope=st.floats(-1.0, 1.0),
       alpha_lo=st.sampled_from([0, 0.0, -0.0, 5e-324]),
       eta_hi=st.sampled_from([2, 2.0, 3.5]),
       lipschitz=st.sampled_from([None, 2, 2.5]))
def test_density_model_to_dict_equals_the_decimal_round_trip(inner, start, ramp, slope,
                                                            alpha_lo, eta_hi, lipschitz):
    # density 2x is -0.0 at a knot of -0.0 and subnormal at a subnormal knot;
    # int bounds must still be written as floats
    knots = np.array([start] + sorted(inner) + [1.0])
    density = 2.0 * knots if ramp else (1.0 - slope) + 2.0 * slope * knots
    try:
        m = BoundedDensityModel(knots=knots, density=density, alpha_lo=alpha_lo,
                                eta_hi=eta_hi, lipschitz=lipschitz)
    except ValidationError:  # a slope rounded across a subnormal gap
        assume(False)
    old = {
        "kind": "density",
        "knots": [float(decimal17(v)) for v in m.knots],
        "density": [float(decimal17(v)) for v in m.density],
        "alpha_lo": decimal17(m.alpha_lo),
        "eta_hi": decimal17(m.eta_hi),
        "lipschitz": None if m.lipschitz is None else decimal17(m.lipschitz),
    }
    assert json.dumps(m.to_dict()) == json.dumps(old)


# -- bounded density models ---------------------------------------------------


def test_density_must_integrate_to_one():
    with pytest.raises(ValidationError):
        BoundedDensityModel(knots=[0.0, 1.0], density=[0.5, 0.6],
                            alpha_lo=0.4, eta_hi=1.0)


def test_density_bounds_enforced():
    with pytest.raises(ValidationError):
        BoundedDensityModel(knots=[0.0, 1.0], density=[0.5, 1.5],
                            alpha_lo=0.6, eta_hi=2.0)


def test_density_lipschitz_enforced():
    with pytest.raises(ValidationError):
        BoundedDensityModel(knots=[0.0, 1.0], density=[0.5, 1.5],
                            alpha_lo=0.5, eta_hi=2.0, lipschitz=0.5)


def test_density_cdf_matches_quadrature_oracle():
    d = BoundedDensityModel(knots=[0.0, 0.4, 1.0], density=[0.6, 1.3, 23.0 / 30.0],
                            alpha_lo=0.5, eta_hi=2.0)
    for x in [0.1, 0.4, 0.55, 0.9, 1.0]:
        ref, _ = quad(d.pdf, 0.0, x)
        assert d.cdf(x) == pytest.approx(ref, abs=1e-10)


def test_density_ppf_inverts_cdf():
    d = BoundedDensityModel(knots=[0.0, 1.0], density=[0.5, 1.5],
                            alpha_lo=0.5, eta_hi=2.0)
    qs = np.linspace(0.001, 0.999, 57)
    np.testing.assert_allclose(d.cdf(d.ppf(qs)), qs, atol=1e-10)


def test_density_to_cdf_close_to_exact():
    d = BoundedDensityModel(knots=[0.0, 1.0], density=[1.5, 0.5],
                            alpha_lo=0.5, eta_hi=2.0)
    F = d.to_cdf()
    xs = np.linspace(0, 1, 999)
    assert np.max(np.abs(F.eval(xs) - d.cdf(xs))) < 1e-6


def test_sampling_respects_dkw_band():
    d = BoundedDensityModel(knots=[0.0, 1.0], density=[0.6, 1.4],
                            alpha_lo=0.5, eta_hi=2.0)
    rng = np.random.default_rng(11)
    n = 20000
    xs = d.ppf(rng.random(n))
    emp = empirical_cdf(xs)
    grid = np.linspace(0, 1, 501)
    dev = np.max(np.abs(emp.eval(grid) - d.cdf(grid)))
    assert dev <= dkw_band(n, 0.001)


def test_sampling_requires_full_cdf():
    # bids are drawn from a model, so the model refuses a sub-CDF; it used to
    # pass, and simulate_fp then put the missing 0.6 of mass at bid 1.0
    with pytest.raises(ValidationError, match="bid_dists entries must be full CDFs"):
        AuctionModel(bid_dists=[sub_cdf([0.5], [0.4]), uniform_cdf()])


# -- distances ----------------------------------------------------------------


def brute_sup(F, G, lo=0.0, hi=1.0, m=20001):
    xs = np.linspace(lo, hi, m)
    return float(np.max(np.abs(F.eval(xs) - G.eval(xs))))


def test_kolmogorov_closed_form_uniform_vs_step():
    # F uniform, G a single step at 0.5: sup gap is 0.5 approached at 0.5-
    G = PiecewiseCdf([0.5], [1.0])
    assert kolmogorov(uniform_cdf(), G) == pytest.approx(0.5)


def test_kolmogorov_matches_brute_force():
    rng = np.random.default_rng(3)
    for _ in range(25):
        F, G = random_staircase(rng), random_staircase(rng)
        exact = kolmogorov(F, G)
        assert exact >= brute_sup(F, G) - 1e-12
        assert exact <= brute_sup(F, G, m=200001) + 1e-4


def test_kolmogorov_window_ignores_left_limit_at_lower_end():
    # F jumps exactly at the window's lower endpoint; values below the window
    # must not contribute
    F = PiecewiseCdf([0.5], [1.0])
    G = staircase([0.5], [1.0])
    assert kolmogorov(F, G, lo=0.5, hi=1.0) == 0.0


def test_wasserstein_closed_form_shifted_uniform():
    # |F(x) - G(x)| = 0.1 on [0.1, 1.0] for a 0.1-shifted uniform
    F = uniform_cdf()
    G = PiecewiseCdf([0.0, 0.1, 1.0], [0.0, 0.0, 0.9],
                     interpolation=LINEAR, is_full_cdf=False)
    # integral of |x - max(x-0.1, 0)| over [0,1] = 0.1*0.9 + 0.005
    assert wasserstein1(F, G) == pytest.approx(0.1 * 0.9 + 0.005, abs=1e-12)


def test_wasserstein_matches_quadrature_oracle():
    rng = np.random.default_rng(5)
    for _ in range(15):
        F, G = random_staircase(rng), random_staircase(rng)
        ref, _ = quad(lambda x: abs(F.eval(x) - G.eval(x)), 0.0, 1.0, limit=400)
        assert wasserstein1(F, G) == pytest.approx(ref, abs=1e-6)


def test_wasserstein_sign_change_segment():
    # crossing within one segment: F linear up, G constant 0.5
    F = uniform_cdf()
    G = PiecewiseCdf([0.0, 1.0], [0.5, 0.5], is_full_cdf=False)
    # integral of |x - 0.5| = 0.25
    assert wasserstein1(F, G) == pytest.approx(0.25, abs=1e-12)


def random_points(rng):
    """Breakpoints in any order, with repeats, -0.0 and points 1e-12 outside [0, 1]."""
    pts = np.round(rng.random(int(rng.integers(0, 12))), int(rng.integers(1, 4)))
    edges = rng.choice([-0.0, 0.0, -1e-12, 1.0, 1.0 + 1e-12, 0.5], size=int(rng.integers(0, 4)))
    return rng.permutation(np.concatenate([pts, pts[: pts.size // 2], edges]))


def random_window(rng, trial):
    """A window [lo, hi] on a coarse grid; every fourth one is a point, every
    seventh starts at -0.0."""
    lo, hi = np.sort(np.round(rng.random(2), 1))
    if trial % 4 == 0:
        hi = lo
    if trial % 7 == 0:
        lo = -0.0
    return float(lo), float(hi)


def two_sort_grid(lo, hi, *breakpoints):
    """The construction ``window_grid`` replaced: the union of the breakpoints,
    cut to the window, and a second union with its ends."""
    pts = np.union1d(*breakpoints) if len(breakpoints) == 2 else np.unique(breakpoints[0])
    pts = pts[(pts >= lo) & (pts <= hi)]
    return np.union1d(pts, [lo, hi])


def test_window_grid_is_the_two_sort_union():
    rng = np.random.default_rng(11)
    for trial in range(2000):
        a, b = random_points(rng), random_points(rng)
        lo, hi = random_window(rng, trial)
        assert np.array_equal(window_grid(lo, hi, a, b), two_sort_grid(lo, hi, a, b))
        assert np.array_equal(window_grid(lo, hi, a), two_sort_grid(lo, hi, a))
    assert window_grid(0.25, 0.25).tolist() == [0.25]
    assert window_grid(0.0, 1.0, [0.5, -1e-12, 0.5, 1.0 + 1e-12]).tolist() == [0.0, 0.5, 1.0]


def last_value_staircase(bp, vals):
    """The construction ``sp_partial_estimate`` had: the reversed arrays'
    keep-first ``np.unique``, then a running maximum."""
    uniq, idx = np.unique(bp[::-1], return_index=True)
    return uniq, np.maximum.accumulate(vals[::-1][idx])


def test_staircase_keeps_the_last_value_at_a_repeat_and_the_running_maximum():
    F = dist_core.staircase([0.5, 0.2, 0.7, 0.5], [0.9, 0.6, 1.0, 0.4])
    assert (F.breakpoints.tolist(), F.values.tolist()) == ([0.2, 0.5, 0.7], [0.6, 0.6, 1.0])
    assert (F.interpolation, F.is_full_cdf) == (STEP, True)
    rng = np.random.default_rng(12)
    for _ in range(2000):
        bp = random_points(rng)
        if not bp.size:
            continue
        vals = rng.choice([-0.0, 0.0, 0.25, 0.5], size=bp.size) if rng.random() < 0.3 \
            else rng.random(bp.size)
        vals[bp == bp.max()] = 1.0
        if bp.max() > 1.0:
            with pytest.raises(ValidationError, match="must not exceed 1"):
                dist_core.staircase(bp, vals)
            continue
        F = dist_core.staircase(bp, vals)
        want_bp, want_vals = last_value_staircase(bp, vals)
        assert np.array_equal(F.breakpoints, want_bp)
        assert np.array_equal(F.values, want_vals)


def random_table(rng):
    """A step or linear CDF, full or not, on breakpoints from ``random_points``;
    it drops those above 1, which both kinds refuse."""
    bp = np.unique(random_points(rng))
    interpolation = STEP if rng.random() < 0.5 else LINEAR
    bp = bp[bp <= 1.0]
    if not bp.size:
        bp = np.array([0.5])
    vals = np.sort(rng.random(bp.size))
    full = rng.random() < 0.5
    if full:
        vals[-1] = 1.0
    return PiecewiseCdf(bp, vals, interpolation=interpolation, is_full_cdf=full)


def two_sort_distances(F, G, lo, hi):
    """``kolmogorov`` and ``wasserstein1`` as they were computed on
    ``two_sort_grid``, each reading F and G on its own."""
    pts = two_sort_grid(lo, hi, F.breakpoints, G.breakpoints)
    d_right = np.abs(F.eval(pts) - G.eval(pts))
    inner = pts[pts > lo]
    d_left = np.abs(F.eval_left(inner) - G.eval_left(inner))
    sup = float(max(d_right.max(), d_left.max() if d_left.size else 0.0))
    a, b = pts[:-1], pts[1:]
    w = b - a
    da = F.eval(a) - G.eval(a)
    db = F.eval_left(b) - G.eval_left(b)
    same = da * db >= 0
    area_same = 0.5 * w * (np.abs(da) + np.abs(db))
    denom = np.abs(da) + np.abs(db)
    with np.errstate(divide="ignore", invalid="ignore"):
        area_cross = 0.5 * w * (da * da + db * db) / np.where(denom > 0, denom, 1.0)
    return sup, float(np.sum(np.where(same, area_same, area_cross)))


def test_distances_equal_the_two_sort_construction_bit_for_bit():
    rng = np.random.default_rng(13)
    for trial in range(600):
        F, G = random_table(rng), random_table(rng)
        lo, hi = random_window(rng, trial)
        if lo == hi:
            lo, hi = 0.0, 1.0
        sup, area = two_sort_distances(F, G, lo, hi)
        assert kolmogorov(F, G, lo, hi).hex() == sup.hex()
        assert wasserstein1(F, G, lo, hi).hex() == area.hex()


def union_kolmogorov(F, G, lo, hi):
    """``kolmogorov`` as every pair was read before the jumps route: on the
    window grid of both tables, with left limits after lo."""
    pts = window_grid(lo, hi, F.breakpoints, G.breakpoints)
    right = np.abs(F.eval(pts) - G.eval(pts))
    left = np.abs(F.eval_left(pts[1:]) - G.eval_left(pts[1:]))
    return float(max(right.max(), left.max()))


def random_step_linear_pair(rng):
    """A step table, full or a sub-CDF: the empirical CDF of rounded (tied)
    samples, or a staircase on rounded points, either with 0, -0.0, -1e-13 or 1
    among its breakpoints; and a linear table on a coarse grid that may share
    those points, start at -1e-13, -0.0 or 0, or have an atom at its first
    knot; a last knot drawn 1e-12 above 1 is dropped, as the table refuses it."""
    xs = np.round(rng.random(int(rng.integers(1, 40))), int(rng.integers(1, 4)))
    edges = rng.choice([0.0, -0.0, -1e-13, 1.0], size=int(rng.integers(0, 3)))
    if rng.random() < 0.4:
        S = empirical_cdf(np.concatenate([xs, edges]))
    else:
        bp = np.unique(np.concatenate([xs, edges]))
        vals = np.sort(np.round(rng.random(bp.size), int(rng.integers(1, 4))))
        full = rng.random() < 0.5
        if full:
            vals[-1] = 1.0
        S = PiecewiseCdf(bp, vals, interpolation=STEP, is_full_cdf=full)
    knots = np.round(rng.random(int(rng.integers(1, 30))), int(rng.integers(1, 4)))
    shared = rng.choice(S.breakpoints, size=int(rng.integers(0, 4)))
    first = rng.choice([-1e-13, -0.0, 0.0, knots.min()], size=1)
    last = rng.choice([1.0, 1.0 + 1e-12, knots.max()], size=1)
    kn = np.unique(np.concatenate([knots, shared, first, last]))
    kn = kn[(kn >= first[0]) & (kn <= min(last[0], 1.0))]
    vals = np.sort(rng.random(kn.size))
    if rng.random() < 0.5:
        vals[0] = 0.0  # no atom at the first knot
    full = rng.random() < 0.5
    if full:
        vals[-1] = 1.0
    return S, PiecewiseCdf(kn, vals, interpolation=LINEAR, is_full_cdf=full)


def step_linear_window(rng, S, L, trial):
    """A window on a coarse grid, or one that starts or ends at a jump of the
    step side, starts at -0.0 or at the linear side's first knot."""
    jumps = S.breakpoints[(S.breakpoints > 0.0) & (S.breakpoints < 1.0)]
    lo, hi = np.sort(np.round(rng.random(2), 1))
    kind = trial % 6
    if kind == 1 and jumps.size:
        lo = rng.choice(jumps)
    elif kind == 2 and jumps.size:
        hi = rng.choice(jumps)
    elif kind == 3:
        lo = -0.0
    elif kind == 4 and 0.0 <= L.breakpoints[0] < 1.0:
        lo = L.breakpoints[0]
    if not lo < hi:
        lo, hi = 0.0, 1.0
    return float(lo), float(hi)


def test_kolmogorov_from_the_step_jumps_equals_the_union_grid_bit_for_bit():
    rng = np.random.default_rng(36)
    with mock.patch.object(dist_core, "_jump_differences",
                           wraps=dist_core._jump_differences) as jumps:
        for trial in range(2000):
            S, L = random_step_linear_pair(rng)
            lo, hi = step_linear_window(rng, S, L, trial)
            want = union_kolmogorov(S, L, lo, hi).hex()
            assert kolmogorov(S, L, lo, hi).hex() == want, (trial, lo, hi)
            assert kolmogorov(L, S, lo, hi).hex() == want, (trial, lo, hi)
            assert kolmogorov(S, L).hex() == union_kolmogorov(S, L, 0.0, 1.0).hex()
    assert jumps.call_count == 3 * 2000


def test_kolmogorov_reads_the_union_grid_when_the_linear_side_dips():
    # a linear table may fall by up to 1e-12; then F - G is not monotone
    # between the jumps, and the dip at 0.6 is only on the union grid
    L = PiecewiseCdf([0.0, 0.5, 0.6, 1.0], [0.0, 0.5, 0.5 - 1e-12, 1.0], interpolation=LINEAR)
    S = PiecewiseCdf([0.2, 0.9], [0.5, 1.0])
    want = union_kolmogorov(S, L, 0.0, 1.0)
    assert kolmogorov(S, L) == kolmogorov(L, S) == want
    with mock.patch.object(dist_core, "_jump_differences") as jumps:
        kolmogorov(S, L)
    jumps.assert_not_called()


def test_kolmogorov_reads_the_linear_atom_and_the_window_ends():
    # G jumps from 0 to 0.4 at its first knot 0.3; F is flat at 0.1 there
    F = PiecewiseCdf([0.1, 0.8], [0.1, 1.0])
    G = PiecewiseCdf([0.3, 1.0], [0.4, 1.0], interpolation=LINEAR)
    assert kolmogorov(F, G, 0.2, 0.7) == union_kolmogorov(F, G, 0.2, 0.7)
    # F jumps to G's atom at G's first knot: the left limit there is F's 0
    # against G's 0, not against the atom; the sup is G(0.35) - 0.4 = 0.6/14
    F2 = PiecewiseCdf([0.3, 1.0], [0.4, 1.0])
    assert kolmogorov(F2, G, 0.2, 0.35) == union_kolmogorov(F2, G, 0.2, 0.35)
    assert kolmogorov(G, F2, 0.2, 0.35) == pytest.approx(0.6 / 14, abs=1e-15)
    # a window that starts at a jump ignores the left limit there (0.1 against
    # G(0.8) = 0.83), and reads 1 - G(0.8) = 0.17 instead
    assert kolmogorov(F, G, 0.8, 0.9) == union_kolmogorov(F, G, 0.8, 0.9) < 0.2
    # no jump of F in the window: lo and hi alone
    assert kolmogorov(F, G, 0.85, 0.95) == union_kolmogorov(F, G, 0.85, 0.95)


def lookup_rotated_graph(F):
    """``_rotated_graph`` as it was read for every CDF: the value and the left
    limit by lookup at 0, at each breakpoint clipped to [0, 1], and at 1."""
    xs = np.concatenate([[0.0], np.clip(F.breakpoints, 0.0, 1.0), [1.0]])
    x = np.repeat(xs, 2)
    y = np.column_stack([F.eval_left(xs), F.eval(xs)]).ravel()
    return (np.concatenate([[-1.0], x + y, [3.0]]),
            np.concatenate([[1.0], y - x, [2.0 * y[-1] - 3.0]]))


def test_rotated_graph_by_index_equals_the_lookups_bit_for_bit():
    rng = np.random.default_rng(37)
    tables = [random_table(rng) for _ in range(1500)]
    tables += [S for S, _ in (random_step_linear_pair(rng) for _ in range(1500))]
    tables += [PiecewiseCdf([0.5], [1.0]), PiecewiseCdf([1e-300, 1.0 - 1e-16], [-0.0, 1.0]),
               sub_cdf([0.25, 0.75], [0.0, 0.5]), empirical_cdf([0.5, 0.5, 0.5])]
    inside = 0
    for F in tables:
        inside += F.interpolation == STEP and 0.0 < F.breakpoints[0] <= F.breakpoints[-1] < 1.0
        for got, want in zip(dist_core._rotated_graph(F), lookup_rotated_graph(F)):
            assert got.tobytes() == want.tobytes()
    assert inside > 500


def levy_brute(F, G, m=2001):
    """Grid oracle: smallest e on a grid with both band conditions."""
    es = np.linspace(0, 1, m)
    xs = np.linspace(-0.05, 1.05, 4003)
    Fv = F.eval(xs)
    for e in es:
        Gp = G.eval(np.clip(xs + e, -1, 2)) + e
        Gm = G.eval(np.clip(xs - e, -1, 2)) - e
        if np.all(Fv <= Gp + 1e-9) and np.all(Fv >= Gm - 1e-9):
            return e
    return 1.0


def test_levy_matches_grid_oracle():
    rng = np.random.default_rng(9)
    pairs = [(random_staircase(rng), random_staircase(rng)) for _ in range(10)]
    pairs += [
        # linear CDFs, one with a jump at 0
        (uniform_cdf(), PiecewiseCdf([0.2, 0.6, 1.0], [0.3, 0.5, 1.0], interpolation=LINEAR)),
        (PiecewiseCdf([0.0, 0.4, 1.0], [0.0, 0.7, 1.0], interpolation=LINEAR),
         staircase([0.3, 0.8], [0.4, 1.0])),
        # jumps at 0 and at 1
        (staircase([0.0, 0.5], [0.6, 1.0]), staircase([0.25, 1.0], [0.2, 1.0])),
        (staircase([0.0, 0.95], [0.08, 1.0]), uniform_cdf()),
    ]
    for F, G in pairs:
        assert levy(F, G) == pytest.approx(levy_brute(F, G), abs=2e-3)
    # a jump at 1 against one at 0.9: the band absorbs the 0.1 shift
    F, G = PiecewiseCdf([0.5, 1.0], [0.5, 1.0]), PiecewiseCdf([0.5, 0.9], [0.5, 1.0])
    assert levy(F, G) == pytest.approx(0.1, abs=1e-12)
    assert levy_brute(F, G) == pytest.approx(0.1, abs=2e-3)


def test_levy_identical_is_zero():
    F = staircase([0.3, 0.7], [0.4, 1.0])
    assert levy(F, F) == 0.0


def test_levy_translation_of_point_mass():
    # point masses at 0.3 and 0.5: the band must absorb the full horizontal
    # offset, so the distance equals the shift
    F = PiecewiseCdf([0.3], [1.0])
    G = PiecewiseCdf([0.5], [1.0])
    assert levy(F, G) == pytest.approx(levy_brute(F, G), abs=2e-3)
    assert levy(F, G) == pytest.approx(0.2, abs=1e-9)


def test_metric_chain_on_random_pairs():
    rng = np.random.default_rng(13)
    for _ in range(50):
        F, G = random_staircase(rng), random_staircase(rng)
        lv, ko, wa = levy(F, G), kolmogorov(F, G), wasserstein1(F, G)
        assert lv <= ko + 1e-9
        assert lv <= math.sqrt(wa) + 1e-9


def test_dkw_band_formula():
    assert dkw_band(1000, 0.05) == pytest.approx(math.sqrt(math.log(40.0) / 2000.0))
    with pytest.raises(ValidationError):
        dkw_band(0, 0.05)
    with pytest.raises(ValidationError):
        dkw_band(10, 1.5)


def test_empirical_cdf_steps():
    F = empirical_cdf([0.2, 0.2, 0.8, 0.5])
    assert F.eval(0.1) == 0.0
    assert F.eval(0.2) == 0.5
    assert F.eval(0.5) == 0.75
    assert F.eval(0.8) == 1.0
    with pytest.raises(ValidationError):
        empirical_cdf([])
