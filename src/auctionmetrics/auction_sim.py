"""Auction data generation and equilibrium bidding strategies.

Covers the four observation models (first-price, second-price, and the two
reserve-price probe variants), asymmetric Bayes-Nash equilibrium
computation, and the hard-instance fixture pair used by the lower-bound
experiments.
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass

import numpy as np

from .dist_core import LINEAR, BoundedDensityModel, PiecewiseCdf, run_ends
from .errors import EstimationError, ValidationError

# The auction format of a sample set: first price or second price.
FORMAT_FP = "fp"
FORMAT_SP = "sp"


@dataclass(eq=False)
class AuctionModel:
    """k independent bidders with bid distributions on [0,1].

    ``bid_dists`` entries are full PiecewiseCdfs or BoundedDensityModels.
    Optional ``value_dists`` (BoundedDensityModel) feed the equilibrium solver.
    """

    bid_dists: list
    value_dists: list | None = None

    def __post_init__(self):
        if len(self.bid_dists) < 2:
            raise ValidationError("an auction needs k >= 2 bidders")
        for d in self.bid_dists:
            if not isinstance(d, (PiecewiseCdf, BoundedDensityModel)):
                raise ValidationError("bid_dists entries must be CDFs or density models")
            if isinstance(d, PiecewiseCdf) and not d.is_full_cdf:
                # a bid drawn from the missing mass would be 1.0
                raise ValidationError("bid_dists entries must be full CDFs")
        if self.value_dists is not None:
            if len(self.value_dists) != len(self.bid_dists):
                raise ValidationError("value_dists must have one entry per bidder")
            if not all(isinstance(d, BoundedDensityModel) for d in self.value_dists):
                raise ValidationError("value_dists entries must be density models")

    @property
    def k(self):
        return len(self.bid_dists)

    def bid_cdf(self, i):
        """Ground-truth bid CDF of bidder i (1-based) as a PiecewiseCdf."""
        d = self.bid_dists[i - 1]
        return d if isinstance(d, PiecewiseCdf) else d.to_cdf()

    def to_dict(self):
        def enc(d):
            out = d.to_dict()
            if isinstance(d, PiecewiseCdf):
                out["kind"] = "cdf"
            return out

        return {
            "bid_dists": [enc(d) for d in self.bid_dists],
            "value_dists": None if self.value_dists is None
            else [d.to_dict() for d in self.value_dists],
        }

    @classmethod
    def from_dict(cls, d):
        def dec(obj):
            kind = obj.get("kind", "cdf")
            if kind == "density":
                return BoundedDensityModel.from_dict(obj)
            return PiecewiseCdf.from_dict(obj)

        vds = d.get("value_dists")
        return cls(
            bid_dists=[dec(o) for o in d["bid_dists"]],
            value_dists=None if vds is None else [BoundedDensityModel.from_dict(o) for o in vds],
        )


@dataclass(frozen=True, eq=False)
class SampleSet:
    """Sample log of one auction: price y and winner index z (1-based).

    ``auction`` is ``FORMAT_FP``, where y is the winning bid, or
    ``FORMAT_SP``, where y is the second-highest bid. Frozen: ``ranked`` cannot go stale.
    """

    y: np.ndarray
    z: np.ndarray
    k: int
    auction: str

    def __post_init__(self):
        object.__setattr__(self, "y", np.ascontiguousarray(self.y, dtype=np.float64))
        object.__setattr__(self, "z", np.ascontiguousarray(self.z, dtype=np.int64))
        if self.auction not in (FORMAT_FP, FORMAT_SP):
            raise ValidationError(f"unknown auction format {self.auction!r}")
        if self.k < 2:
            raise ValidationError("an auction needs k >= 2 bidders")
        if self.y.shape != self.z.shape or self.y.ndim != 1:
            raise ValidationError("y and z must be 1-D arrays of equal length")
        if self.y.size and not (self.y.min() >= 0 and self.y.max() <= 1):
            raise ValidationError("prices must lie in [0,1]")
        if self.z.size and (self.z.min() < 1 or self.z.max() > self.k):
            raise ValidationError("winner indices must lie in 1..k")

    @property
    def n(self):
        return self.y.size

    @functools.cached_property
    def ranked(self):
        """(prices ascending, their winners), sorted stably once: ties keep log order."""
        order = np.argsort(self.y)
        ys = self.y[order]
        # without ties the order is unique, so only a tie needs the slower stable sort
        if not run_ends(ys).all():
            order = np.argsort(self.y, kind="stable")
            ys = self.y[order]
        return ys, self.z[order]

    def require(self, auction):
        """Raise ``ValidationError`` unless the log is of ``auction``."""
        if self.auction != auction:
            raise ValidationError(
                f"expected a {auction!r} sample set, got a {self.auction!r} one")


def check_seed(seed):
    """``seed``, unless it is a negative integer, which numpy cannot seed from."""
    if isinstance(seed, numbers.Integral) and seed < 0:
        raise ValidationError(f"seed must be a non-negative integer, not {seed}")
    return seed


def _bid_matrix(model, n, rng_or_seed):
    """k x n matrix of independent bids, one substream per bidder.

    Stream contract: each call spawns one child stream per bidder, from the
    Generator (``rng.spawn(k)``) or from ``SeedSequence(seed).spawn(k)``, and
    fills row j with ``random(n)`` of child j, in bidder order, mapped through
    that bidder's ``ppf``. A list of k Generators, spawned by the caller, is
    taken as those children. Any rewrite must keep this order to keep outputs.
    """
    if isinstance(rng_or_seed, np.random.Generator):
        streams = rng_or_seed.spawn(model.k)
    elif isinstance(rng_or_seed, list):
        streams = rng_or_seed
        if len(streams) != model.k:
            raise ValidationError(f"need one stream per bidder, {model.k}, not {len(streams)}")
    else:
        streams = [np.random.default_rng(s)
                   for s in np.random.SeedSequence(check_seed(rng_or_seed)).spawn(model.k)]
    x = np.empty((model.k, n))
    for row, d, rng in zip(x, model.bid_dists, streams):
        rng.random(out=row)
        row[...] = d.ppf(row)
    return x


def _scan_bids(x, second=False):
    """(top bid, winner code, second-highest bid or None) of each column.

    One running pass over the k rows of ``x``. The winner code is the
    0-based row of the top bid in the smallest unsigned integer type that
    holds k. A strict ``>`` keeps ties with the lowest index, as ``argmax``
    does: row j takes the code only where it beats every earlier row, and
    then j exceeds every earlier code, so a running maximum sets it.
    """
    top = x[0].copy()
    code = np.zeros(x.shape[1], dtype=np.min_scalar_type(x.shape[0]))
    runner = np.full(x.shape[1], -np.inf) if second else None
    for j in range(1, x.shape[0]):
        row = x[j]
        np.maximum(code, np.multiply(row > top, j, dtype=code.dtype), out=code)
        if second:
            np.maximum(runner, np.minimum(top, row), out=runner)
        np.maximum(top, row, out=top)
    return top, code, runner


def _winner_index(code):
    """The 1-based int64 bidder index of a winner code."""
    return np.add(code, 1, dtype=np.int64)


def simulate_fp(model, n, seed):
    """n draws of (max bid, argmax bidder); ties go to the lowest index."""
    if n < 1:
        raise ValidationError("n must be >= 1")
    y, code, _ = _scan_bids(_bid_matrix(model, n, seed))
    return SampleSet(y=y, z=_winner_index(code), k=model.k, auction=FORMAT_FP)


def simulate_sp(model, n, seed):
    """n draws of (second-highest bid, argmax bidder)."""
    if n < 1:
        raise ValidationError("n must be >= 1")
    _, code, y = _scan_bids(_bid_matrix(model, n, seed), second=True)
    return SampleSet(y=y, z=_winner_index(code), k=model.k, auction=FORMAT_SP)


def partial_counts(model, auction, reserves, n, rng):
    """Reserve-price probes of an ``auction`` format at several reserves.

    The n probes split into ``len(reserves)`` equal consecutive blocks, block
    i probing at ``reserves[i]``, with bids by the ``_bid_matrix`` stream
    contract: ``rng`` is a Generator, a seed or a list of k child Generators.
    Returns a ``(len(reserves), k+2)`` int64 array of counts: column k+1 the
    planted bid's wins (it wins ties, so a probe's chance is prod_j F_j(r)
    exactly), column 0 zero, column j bidder j's wins (ties for the top bid
    go to the lowest index), in ``FORMAT_SP`` only those where the reserve
    bound the price (second-highest bid <= reserve < top bid).
    """
    reserves = np.asarray(reserves, dtype=np.float64)
    if reserves.ndim != 1 or not reserves.size or n % reserves.size:
        raise ValidationError("the probes must split evenly over a 1-D array of reserves")
    if not (reserves.min() >= 0.0 and reserves.max() <= 1.0):  # NaN fails both
        raise ValidationError("reserve must lie in [0,1]")
    k = model.k
    top, code, second = _scan_bids(_bid_matrix(model, n, rng), second=auction == FORMAT_SP)
    beaten = top.reshape(reserves.size, -1) <= reserves[:, None]
    # code j+1 for bidder j's counted wins, else 0
    code = code.reshape(beaten.shape)
    code += 1
    code *= ~beaten
    if second is not None:
        code *= second.reshape(beaten.shape) <= reserves[:, None]
    counts = np.zeros((reserves.size, k + 2), dtype=np.int64)
    counts[:, k + 1] = _row_counts(beaten)
    for j in range(1, k + 1):
        counts[:, j] = _row_counts(code == j)
    return counts


def _row_counts(mask):
    """True entries in each row of a 2-D boolean mask."""
    return [np.count_nonzero(row) for row in mask]


def _partial_oracle(model, auction):
    oracle = functools.partial(partial_counts, model, auction)
    oracle.k = model.k
    return oracle


def make_fp_partial_oracle(model):
    """Batch oracle handle ``oracle(reserves, n, rng) -> counts`` for estimators:
    ``partial_counts`` in first price. Each call spawns one child stream of
    ``rng`` per bidder, or takes the list of k children it is given, and fills
    the bids in bidder order (the ``_bid_matrix`` contract), so equal ``rng``
    states give equal counts. Calls share no state, so several threads may
    call one handle at once."""
    return _partial_oracle(model, FORMAT_FP)


def make_sp_partial_oracle(model):
    """The second-price handle of ``make_fp_partial_oracle``: the same call,
    stream contract and count rows, with bidder j's column counting only the
    wins where the reserve bound the price."""
    return _partial_oracle(model, FORMAT_SP)


# -- equilibrium -----------------------------------------------------------


@dataclass(eq=False)
class InverseBidProfile:
    """Inverse equilibrium bid functions alpha_i on a shared bid grid.

    ``grid`` is ascending in (0, eta_eq]; ``alphas`` is a k x m matrix with
    alpha_i(grid) rows; alpha_i(eta_eq) = 1 and alpha_i(0+) ~ 0.
    """

    grid: np.ndarray
    alphas: np.ndarray
    eta_eq: float
    defect: float = 0.0

    def __post_init__(self):
        self.grid = np.ascontiguousarray(self.grid, dtype=np.float64)
        self.alphas = np.ascontiguousarray(self.alphas, dtype=np.float64)
        if self.alphas.ndim != 2 or self.alphas.shape[1] != self.grid.size:
            raise ValidationError("alphas must be k x len(grid)")
        if np.any(np.diff(self.grid) <= 0):
            raise ValidationError("bid grid must be strictly ascending")
        if np.any(self.alphas < self.grid - 1e-9):
            raise ValidationError("inverse bids must satisfy alpha_i(b) >= b")

    def alpha(self, i, b):
        """Interpolated alpha_i(b) (1-based bidder index)."""
        return np.interp(b, self.grid, self.alphas[i - 1])


def _fast_scalar_cdf_pdf(dist):
    """Plain-float (cdf, pdf) closures of a density model for the ODE
    integrator's hot loop."""
    from bisect import bisect_right

    kn = dist.knots.tolist()
    de = dist.density.tolist()
    cu = dist._cum.tolist()
    last = len(kn) - 2

    def cdf(x):
        if x <= 0.0:
            return 0.0
        if x >= 1.0:
            return 1.0
        j = min(bisect_right(kn, x) - 1, last)
        dx = x - kn[j]
        s = (de[j + 1] - de[j]) / (kn[j + 1] - kn[j])
        return cu[j] + de[j] * dx + 0.5 * s * dx * dx

    def pdf(x):
        if x <= 0.0:
            return de[0]
        if x >= 1.0:
            return de[-1]
        j = min(bisect_right(kn, x) - 1, last)
        s = (de[j + 1] - de[j]) / (kn[j + 1] - kn[j])
        return de[j] + s * (x - kn[j])

    return cdf, pdf


# the shooting solver's fixed grid size, boundary-defect tolerance and bisection cap
_GRID_SIZE, _TOL, _MAX_BISECT = 400, 1e-3, 60


def _integrate_backward(G, g, k, eta):
    """RK4 for the inverse-bid ODE system from (eta, 1) down toward b=0.

    Returns (grid ascending, alphas k x m, crashed flag). A crash means some
    alpha_i(b) collapsed onto b (terminal bid too high). G and g are
    plain-float callables; the loop stays in Python floats for speed.
    """
    bs = np.linspace(eta, eta * 1e-4, _GRID_SIZE)
    a = [1.0] * k
    out = np.empty((k, _GRID_SIZE))
    out[:, 0] = 1.0
    idx = range(k)

    def deriv(b, a):
        for ai in a:
            if ai - b < 1e-12 or ai > 1.0 + 1e-9 or ai < 0.0:
                return None
        inv = [1.0 / (a[i] - b) for i in idx]
        s = sum(inv)
        return [
            (G[i](a[i]) / max(g[i](a[i]), 1e-12))
            * ((s - (k - 1) * inv[i]) / (k - 1))
            for i in idx
        ]

    crashed = False
    for m in range(1, _GRID_SIZE):
        h = bs[m] - bs[m - 1]  # negative
        b0 = bs[m - 1]
        half = h / 2.0
        k1 = deriv(b0, a)
        k2 = deriv(b0 + half, [a[i] + half * k1[i] for i in idx]) if k1 else None
        k3 = deriv(b0 + half, [a[i] + half * k2[i] for i in idx]) if k2 else None
        k4 = deriv(b0 + h, [a[i] + h * k3[i] for i in idx]) if k3 else None
        if k4 is None:
            crashed = True
            out[:, m:] = np.nan
            break
        a = [min(a[i] + (h / 6.0) * (k1[i] + 2 * k2[i] + 2 * k3[i] + k4[i]), 1.0)
             for i in idx]
        if any(a[i] - bs[m] < 1e-12 for i in idx):
            crashed = True
            out[:, m:] = np.nan
            break
        out[:, m] = a
    return bs[::-1], out[:, ::-1], crashed


def solve_asymmetric_equilibrium(model):
    """Inverse equilibrium bid functions by shooting on the terminal bid.

    Integrates the inverse-bid ODE system backward from alpha_i(eta)=1 on a
    fixed grid and bisects eta: a trajectory that collapses onto the diagonal
    means eta is too high; a positive boundary defect at the smallest grid
    cell means eta is too low.
    """
    if model.value_dists is None:
        raise ValidationError("model has no value distributions")
    k = model.k
    G, g = [], []
    for d in model.value_dists:
        cdf, pdf = _fast_scalar_cdf_pdf(d)
        G.append(cdf)
        g.append(pdf)

    lo, hi = 1e-6, 1.0
    best = None
    for _ in range(_MAX_BISECT):
        eta = 0.5 * (lo + hi)
        grid, alphas, crashed = _integrate_backward(G, g, k, eta)
        if crashed:
            hi = eta
            continue
        defect = float(np.max(alphas[:, 0]))
        if defect <= _TOL:
            cand = InverseBidProfile(grid=grid, alphas=alphas, eta_eq=eta, defect=defect)
            if best is None or defect < best.defect:
                best = cand
            if defect <= 0.1 * _TOL:
                break
        # smaller eta inflates the defect; push eta upward until it crashes
        lo = eta
        if hi - lo < 1e-14:
            break
    if best is None:
        raise EstimationError(
            "equilibrium shooting did not converge",
            diagnostics={"grid_size": _GRID_SIZE, "tol": _TOL},
        )
    return best


def equilibrium_residual(profile, model, i, b_points):
    """Residual of the cross-bidder identity at interior bid points.

    Checks sum_{j != i} d/db log G_j(alpha_j(b)) - 1/(alpha_i(b) - b) by
    central finite differences on the solved grid.
    """
    # the vectorised CDFs, not the solver's scalar closures, so that the
    # residual checks the solver independently of the closures it used
    G = [d.cdf for d in model.value_dists]
    bs = profile.grid
    res = []
    for b in np.atleast_1d(b_points):
        m = int(np.clip(np.searchsorted(bs, b), 1, bs.size - 2))
        db = bs[m + 1] - bs[m - 1]
        total = 0.0
        for j in range(model.k):
            if j == i - 1:
                continue
            hi_val = G[j](profile.alphas[j, m + 1])
            lo_val = G[j](profile.alphas[j, m - 1])
            total += (np.log(max(hi_val, 1e-300)) - np.log(max(lo_val, 1e-300))) / db
        gap = profile.alphas[i - 1, m] - bs[m]
        res.append(total - 1.0 / gap)
    return np.asarray(res)


# -- lower-bound fixtures ---------------------------------------------------


def lower_bound_fixture(k, eps, lam):
    """The hard instance pair (D, D').

    All bidders except the first share a mixture of Unif[0,1] (weight lam) and
    Unif[3/4,1]; the first bidder's distribution hides (1-lam) mass either in
    [0, eps/4] (D) or [3*eps/4, eps] (D'). Both CDFs are piecewise linear.
    """
    if not (0.0 < eps < 0.5 and 0.0 < lam < 0.5):
        raise ValidationError("eps and lambda must lie in (0, 1/2)")
    base = PiecewiseCdf(
        [0.0, 0.75, 1.0], [0.0, 0.75 * lam, 1.0],
        interpolation=LINEAR, is_full_cdf=True,
    )
    f1 = PiecewiseCdf(
        [0.0, eps / 4.0, 1.0],
        [0.0, lam * eps / 4.0 + (1.0 - lam), 1.0],
        interpolation=LINEAR, is_full_cdf=True,
    )
    f1p = PiecewiseCdf(
        [0.0, 3.0 * eps / 4.0, eps, 1.0],
        [0.0, lam * 3.0 * eps / 4.0, lam * eps + (1.0 - lam), 1.0],
        interpolation=LINEAR, is_full_cdf=True,
    )
    rest = [base] * (k - 1)
    return AuctionModel(bid_dists=[f1] + rest), AuctionModel(bid_dists=[f1p] + rest)
