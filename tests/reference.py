"""Reference readings that the tests compare the package against.

Each shares no code with the implementation it checks.
"""

import math

import numpy as np
from scipy.integrate import quad


def reference_outcomes(x, r):
    """Naive max/argmax/partition reading of a k x n bid matrix ``x`` probed
    at reserve ``r`` (a scalar or one reserve per column): (top bid, winner
    in 1..k+1 with k+1 the planted bid, which wins ties, second-highest bid)."""
    k = x.shape[0]
    top = x.max(axis=0)
    winners = np.where(r >= top, k + 1, np.argmax(x, axis=0) + 1)
    second = np.partition(x, -2, axis=0)[-2]
    return top, winners, second


def partial_counts(model, auction, reserves, n, seed):
    """The bid-matrix sampler of reserve-price probes, the reference of the
    exact-law oracles: n probes split evenly over ``reserves``, their bids
    drawn by ``_bid_matrix`` from ``seed`` and read by
    ``reference_outcomes``. Returns the oracles' (len(reserves), k+2) count
    rows; in second price a bidder's win counts only where the reserve bound
    the price (second-highest bid <= reserve)."""
    from auctionmetrics.auction_sim import FORMAT_SP, _bid_matrix

    reserves = np.asarray(reserves, dtype=np.float64)
    per = n // reserves.size
    r = np.repeat(reserves, per)
    _, winners, second = reference_outcomes(_bid_matrix(model, n, seed), r)
    if auction == FORMAT_SP:
        winners = np.where(second <= r, winners, 0)
    counts = np.array([np.bincount(w, minlength=model.k + 2)
                       for w in winners.reshape(reserves.size, per)])
    counts[:, 0] = 0
    return counts


class CallableEval:
    """Adapter exposing .eval for closed-form population callbacks.

    ``run_pipeline`` reads its G-hat and coarse-U inputs only through
    ``eval``, and only while it builds the grid, so tests can substitute exact
    population functions for the empirical step functions.
    """

    def __init__(self, fn):
        self._fn = fn

    def eval(self, x):
        x = np.asarray(x, dtype=np.float64)
        out = np.asarray(self._fn(x), dtype=np.float64)
        if out.shape != x.shape:
            out = np.broadcast_to(out, x.shape).copy()
        return float(out) if x.ndim == 0 else out


def population_bid_cdf(H, hi_density, x, tol=1e-9):
    """Identification identity with exact callbacks: exp(-int_x^1 h_i/H dz)."""
    val, _ = quad(lambda z: hi_density(z) / H(z), x, 1.0, epsabs=tol, epsrel=tol, limit=200)
    return math.exp(-val)


def quad_fp_win_chance(closed, j, r, tol=1e-12):
    """First price: the chance that bidder j (0-based) bids above the reserve
    r and every other bid, int_r^1 f_j prod_{i!=j} F_i dx, by adaptive
    quadrature; ``closed`` holds each bidder's continuous (cdf, pdf)."""
    def integrand(x):
        out = closed[j][1](x)
        for i, (cdf, _) in enumerate(closed):
            if i != j:
                out *= cdf(x)
        return out

    val, _ = quad(integrand, r, 1.0, epsabs=tol, epsrel=tol, limit=200,
                  points=[0.4, 0.5] if r < 0.4 else None)
    return val
