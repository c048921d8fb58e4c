"""Auction data generation and equilibrium bidding strategies.

Covers the four observation models (first-price, second-price, and the two
reserve-price probe variants), asymmetric Bayes-Nash equilibrium
computation, and the hard-instance fixture pair used by the lower-bound
experiments.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .dist_core import LINEAR, BoundedDensityModel, PiecewiseCdf, run_ends, window_grid
from .errors import EstimationError, ValidationError, check_number

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

    @functools.cached_property
    def at_or_below(self):
        """The number of prices at or below each price of ``ranked``: one past
        the end of its run of tied prices."""
        ends = np.flatnonzero(run_ends(self.ranked[0])) + 1
        return np.repeat(ends, np.diff(ends, prepend=0))

    def wins(self, i):
        """Mask of bidder i's wins in ``ranked``; ValidationError unless n > 0 and 1 <= i <= k."""
        if self.n == 0:
            raise ValidationError("empty sample")
        if not 1 <= i <= self.k:
            raise ValidationError("bidder index out of range")
        return self.ranked[1] == i

    def require(self, auction):
        """Raise ``ValidationError`` unless the log is of ``auction``."""
        if self.auction != auction:
            raise ValidationError(
                f"expected a {auction!r} sample set, got a {self.auction!r} one")


def _bid_matrix(model, n, seed):
    """k x n matrix of independent bids, one substream per bidder.

    Stream contract: ``SeedSequence(seed).spawn(k)`` gives one child per
    bidder, and row j is ``random(n)`` of ``default_rng(child j)`` mapped
    through bidder j's ``ppf``, in bidder order. Any rewrite must keep this
    order to keep outputs.
    """
    children = np.random.SeedSequence(check_number("seed", seed, 0, integer=True)).spawn(model.k)
    return np.array([d.ppf(np.random.default_rng(c).random(n))
                     for d, c in zip(model.bid_dists, children)])


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
    check_number("n", n, 1, integer=True)
    y, code, _ = _scan_bids(_bid_matrix(model, n, seed))
    return SampleSet(y=y, z=_winner_index(code), k=model.k, auction=FORMAT_FP)


def simulate_sp(model, n, seed):
    """n draws of (second-highest bid, argmax bidder)."""
    check_number("n", n, 1, integer=True)
    _, code, y = _scan_bids(_bid_matrix(model, n, seed), second=True)
    return SampleSet(y=y, z=_winner_index(code), k=model.k, auction=FORMAT_SP)


def _knots(d):
    """The points where a bid distribution's CDF may jump or change its polynomial."""
    return d.knots if isinstance(d, BoundedDensityModel) else d.breakpoints


def _cdf(d, x, left=False):
    """F(x), or the left limit F(x-), of a bid distribution at an array ``x``."""
    if isinstance(d, BoundedDensityModel):
        return d.cdf(x)
    return d.eval_left(x) if left else d.eval(x)


def _density(d, x):
    """The density of the continuous part of a bid distribution at points
    ``x`` that are none of its knots: the pdf of a density model, the slope of
    a linear table's segment (0 outside the table), 0 for a step table."""
    if isinstance(d, BoundedDensityModel):
        return d.pdf(x)
    if d.interpolation != LINEAR or d.breakpoints.size < 2:
        return np.zeros_like(x)
    slopes = np.concatenate([[0.0], np.diff(d.values) / np.diff(d.breakpoints), [0.0]])
    return slopes[np.searchsorted(d.breakpoints, x)]


def _tie_products(left, right):
    """Row j: prod_{i<j} left[i] * prod_{i>j} right[i], over the first axis."""
    ones = np.ones_like(right[:1])
    below = np.cumprod(np.concatenate([ones, left[:-1]]), axis=0)
    above = np.cumprod(np.concatenate([ones, right[:0:-1]]), axis=0)[::-1]
    return below * above


class _ProbeLaw:
    """Batch oracle handle ``oracle(reserves, n, rng) -> counts``: reserve-price
    probes drawn from their exact multinomial law.

    The n probes split into ``len(reserves)`` equal blocks, block i probing at
    ``reserves[i]``. Returns a ``(len(reserves), k+2)`` int64 array of counts:
    column k+1 the planted bid's wins (it wins ties, so a probe's chance is
    prod_i F_i(r)), column 0 zero, column j bidder j's wins (ties for the top
    bid go to the lowest index), in ``FORMAT_SP`` only those where the reserve
    bound the price (second-highest bid <= reserve < top bid), a chance of
    (1 - F_j(r)) prod_{i!=j} F_i(r). In ``FORMAT_FP`` bidder j wins above r
    with chance int_(r,1] prod_{i<j} F_i(x-) prod_{i>j} F_i(x) dF_j(x).

    That integral splits over the merged knots of all bidders: each atom of
    F_j adds its mass times the tie product, and on each open piece between
    knots the integrand is a polynomial of degree at most 2k-1, which
    (k+1)-point Gauss-Legendre integrates exactly. The pieces and atoms above
    each knot are summed once, when the handle is made, so a reading is one
    ``searchsorted``, one quadrature over the partial pieces and one
    ``rng.multinomial`` over all its reserves. The rest of the probability,
    probes that no column counts, is drawn as a last cell and dropped. Equal
    ``rng`` states give equal counts.
    """

    def __init__(self, model, auction):
        self.k = model.k
        self._dists = model.bid_dists
        self._auction = auction
        if auction == FORMAT_FP:
            self._nodes, self._weights = np.polynomial.legendre.leggauss(self.k + 1)
            self._fp_tail_sums()

    def _fp_tail_sums(self):
        """The knots, the end of the piece that starts at each, and each
        bidder's win chance above each knot (one more 0 at the end)."""
        knots = window_grid(0.0, 1.0, *[_knots(d) for d in self._dists])
        right = np.array([_cdf(d, knots) for d in self._dists])
        left = np.array([_cdf(d, knots, left=True) for d in self._dists])
        atoms = (right - left) * _tie_products(left, right)
        # the last knot, 1, starts an empty piece
        ends = np.append(knots[1:], 1.0)
        pieces = self._piece_integrals(knots, ends)
        self._knots, self._ends = knots, ends
        self._above = np.zeros((self.k, knots.size + 1))
        self._above[:, :-1] = np.cumsum((atoms + pieces)[:, ::-1], axis=1)[:, ::-1]

    def _piece_integrals(self, lo, hi):
        """k x len(lo): int_lo^hi prod_{i!=j} F_i dF_j on open pieces, where
        every F_i is one polynomial."""
        half = 0.5 * (hi - lo)
        x = (0.5 * (lo + hi))[:, None] + half[:, None] * self._nodes
        F = np.array([_cdf(d, x) for d in self._dists])
        f = np.array([_density(d, x) for d in self._dists])
        return (f * _tie_products(F, F)) @ self._weights * half

    def pvals(self, reserves):
        """(len(reserves), k+3) cell chances: the count columns, then the rest."""
        F = np.array([_cdf(d, reserves) for d in self._dists])
        out = np.zeros((reserves.size, self.k + 3))
        out[:, self.k + 1] = F.prod(axis=0)
        if self._auction == FORMAT_SP:
            out[:, 1:self.k + 1] = ((1.0 - F) * _tie_products(F, F)).T
        else:
            idx = np.searchsorted(self._knots, reserves, side="right") - 1
            partial = self._piece_integrals(reserves, self._ends[idx])
            out[:, 1:self.k + 1] = (partial + self._above[:, idx + 1]).T
        np.clip(out, 0.0, 1.0, out=out)
        out[:, -1] = np.maximum(1.0 - out[:, :-1].sum(axis=1), 0.0)
        return out

    def __call__(self, reserves, n, rng):
        reserves = np.asarray(reserves, dtype=np.float64)
        if reserves.ndim != 1 or not reserves.size or n % reserves.size:
            raise ValidationError("the probes must split evenly over a 1-D array of reserves")
        if not (reserves.min() >= 0.0 and reserves.max() <= 1.0):  # NaN fails both
            raise ValidationError("reserve must lie in [0,1]")
        counts = np.random.default_rng(rng).multinomial(n // reserves.size,
                                                        self.pvals(reserves))
        return counts[:, :-1]


def make_fp_partial_oracle(model):
    """The first-price probe oracle handle of ``model`` (``_ProbeLaw``)."""
    return _ProbeLaw(model, FORMAT_FP)


def make_sp_partial_oracle(model):
    """The second-price probe oracle handle of ``model`` (``_ProbeLaw``):
    bidder j's column counts only the wins where the reserve bound the price."""
    return _ProbeLaw(model, FORMAT_SP)


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


def _fast_scalar_cdf_pdf(dist):
    """A plain-float closure x -> (cdf(x), pdf(x)) of a density model for the
    ODE integrator's hot loop: one piece lookup serves both values."""
    from bisect import bisect_right

    kn = dist.knots.tolist()
    de = dist.density.tolist()
    cu = dist._cum.tolist()
    last = len(kn) - 2
    slope = [(de[j + 1] - de[j]) / (kn[j + 1] - kn[j]) for j in range(last + 1)]

    def cdf_pdf(x):
        if x <= 0.0:
            return 0.0, de[0]
        if x >= 1.0:
            return 1.0, de[-1]
        j = min(bisect_right(kn, x) - 1, last)
        dx = x - kn[j]
        return cu[j] + de[j] * dx + 0.5 * slope[j] * dx * dx, de[j] + slope[j] * dx

    return cdf_pdf


# the shooting solver's fixed grid size and boundary-defect tolerance
_GRID_SIZE, _TOL = 400, 1e-3


class _Crash(Exception):
    """A trajectory met the diagonal: its terminal bid is too high."""


def _integrate_backward(cdf_pdf, k, eta):
    """RK4 for the inverse-bid ODE system from (eta, 1) down toward b=0.

    Returns (grid ascending, alphas k x m). Raises ``_Crash`` where some
    alpha_i(b) collapses onto b (terminal bid too high). ``cdf_pdf`` holds
    each bidder's plain-float closure v -> (G(v), g(v)), read once per stage,
    and the grid is stepped through as Python floats: numpy scalar
    arithmetic would give the same doubles, only more slowly.
    """
    bs = np.linspace(eta, eta * 1e-4, _GRID_SIZE)
    steps = bs.tolist()
    a = [1.0] * k
    out = np.empty((k, _GRID_SIZE))
    out[:, 0] = 1.0
    idx = range(k)

    def deriv(b, a):
        # b > 0, so this also catches a negative alpha
        for ai in a:
            if ai - b < 1e-12 or ai > 1.0 + 1e-9:
                raise _Crash
        inv = [1.0 / (a[i] - b) for i in idx]
        s = inv[0]
        for v in inv[1:]:  # left to right: sum() of floats is compensated on Python 3.12+
            s += v
        rates = []
        for i in idx:
            G, g = cdf_pdf[i](a[i])
            rates.append((G / max(g, 1e-12)) * ((s - (k - 1) * inv[i]) / (k - 1)))
        return rates

    for m in range(1, _GRID_SIZE):
        h = steps[m] - steps[m - 1]  # negative
        b0 = steps[m - 1]
        half = h / 2.0
        k1 = deriv(b0, a)
        k2 = deriv(b0 + half, [a[i] + half * k1[i] for i in idx])
        k3 = deriv(b0 + half, [a[i] + half * k2[i] for i in idx])
        k4 = deriv(b0 + h, [a[i] + h * k3[i] for i in idx])
        a = [min(a[i] + (h / 6.0) * (k1[i] + 2 * k2[i] + 2 * k3[i] + k4[i]), 1.0)
             for i in idx]
        if any(a[i] - steps[m] < 1e-12 for i in idx):
            raise _Crash
        out[:, m] = a
    return bs[::-1], out[:, ::-1]


def solve_asymmetric_equilibrium(model):
    """Inverse equilibrium bid functions by shooting on the terminal bid.

    Integrates the inverse-bid ODE system backward from alpha_i(eta)=1 on a
    fixed grid and bisects eta: a trajectory that collapses onto the diagonal
    means eta is too high; a boundary defect above ``_TOL`` at the smallest
    grid cell means eta is too low. Returns the first trajectory that does
    neither; raises EstimationError once the bracket is below 1e-14.
    """
    if model.value_dists is None:
        raise ValidationError("model has no value distributions")
    k = model.k
    cdf_pdf = [_fast_scalar_cdf_pdf(d) for d in model.value_dists]

    lo, hi = 1e-6, 1.0
    while hi - lo >= 1e-14:
        eta = 0.5 * (lo + hi)
        try:
            grid, alphas = _integrate_backward(cdf_pdf, k, eta)
        except _Crash:
            hi = eta
            continue
        defect = float(np.max(alphas[:, 0]))
        if defect <= _TOL:
            return InverseBidProfile(grid=grid, alphas=alphas, eta_eq=eta, defect=defect)
        # smaller eta inflates the defect; push eta upward until it crashes
        lo = eta
    raise EstimationError("equilibrium shooting did not converge",
                          diagnostics={"grid_size": _GRID_SIZE, "tol": _TOL})


def equilibrium_residual(profile, model, i, b_points):
    """Residual of the cross-bidder identity at interior bid points.

    Checks sum_{j != i} d/db log G_j(alpha_j(b)) - 1/(alpha_i(b) - b) by
    central finite differences on the solved grid.
    """
    # the vectorised CDFs, not the solver's scalar closures, so that the
    # residual checks the solver independently of the closures it used
    bs, alphas = profile.grid, profile.alphas
    m = np.clip(np.searchsorted(bs, np.atleast_1d(b_points)), 1, bs.size - 2)
    db = bs[m + 1] - bs[m - 1]
    total = 0.0
    for j, d in enumerate(model.value_dists):
        if j != i - 1:
            hi_val = np.maximum(d.cdf(alphas[j, m + 1]), 1e-300)
            lo_val = np.maximum(d.cdf(alphas[j, m - 1]), 1e-300)
            total = total + (np.log(hi_val) - np.log(lo_val)) / db
    return total - 1.0 / (alphas[i - 1, m] - bs[m])


# -- lower-bound fixtures ---------------------------------------------------


def lower_bound_fixture(k, eps, lam):
    """The hard instance pair (D, D').

    All bidders except the first share a mixture of Unif[0,1] (weight lam) and
    Unif[3/4,1]; the first bidder's distribution hides (1-lam) mass either in
    [0, eps/4] (D) or [3*eps/4, eps] (D'). Both CDFs are piecewise linear.
    """
    check_number("k", k, 2, integer=True)
    check_number("eps", eps, 0.0, 0.5, "()")
    check_number("lambda", lam, 0.0, 0.5, "()")
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
