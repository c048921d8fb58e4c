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


def population_bid_cdf(H, hi_density, x, tol=1e-9):
    """Identification identity with exact callbacks: exp(-int_x^1 h_i/H dz)."""
    val, _ = quad(lambda z: hi_density(z) / H(z), x, 1.0, epsabs=tol, epsrel=tol, limit=200)
    return math.exp(-val)
