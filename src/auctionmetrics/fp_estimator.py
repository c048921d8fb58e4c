"""First-price bid-distribution estimators.

From full observations (winning bid, winner) the bid CDFs are identified by
F_i(x) = exp(-integral_x^1 dH_i / H), where H is the CDF of the winning bid
and H_i its winner-i sub-CDF. The plug-in estimator replaces H, H_i with
empirical counterparts, giving F-hat_i = exp(-G-hat_i) with

    G-hat_i(x) = (1/n) sum_j 1{Y_j >= x, Z_j = i} / max(H-hat(Y_j), gamma/2).

The module also provides the forward-difference density estimator and the
adaptive reserve-price estimator that works from winner identities alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .auction_sim import FORMAT_FP
from .dist_core import STEP, PiecewiseCdf, StepFunction, run_ends, staircase
from .errors import EstimationError, ValidationError, check_grid_size, check_number


def estimate_ghat(samples, i, gamma):
    """The weighted tail sum G-hat_i from a first-price sample set, each
    denominator H-hat(Y_j) clipped at gamma/2.

    G-hat_i(x), the sum over Y_j >= x, is the left limit (``eval_left``) of
    the returned step function: it is the total weight below the first price
    bidder i won, and on [ys[m], ys[m+1]) the weight of prices above ys[m].
    Its ``eval`` is not G-hat_i: at a won price it leaves out that price's
    own weight.
    """
    samples.require(FORMAT_FP)
    return _tail_sum(samples, samples.wins(i), gamma / 2.0)


def _tail_sum(samples, won, floor):
    """The tail sum of 1/(n max(H-hat(Y_j), floor)) over the prices ``won``
    marks in the log's price order, as ``estimate_ghat`` returns it."""
    ys = samples.ranked[0][won]
    if not ys.size:  # no price is won: the sum is 0
        return StepFunction([], [])
    n = samples.n
    w = 1.0 / (n * np.maximum(samples.at_or_below[won] / n, floor))
    ends = run_ends(ys)
    # one summand per run of tied prices keeps the step representation canonical
    suffix = np.cumsum(np.add.reduceat(w, np.flatnonzero(np.roll(ends, 1)))[::-1])[::-1]
    return StepFunction(ys[ends], np.append(suffix[1:], 0.0), left_value=suffix[0])


def _ghat_to_cdf(ghat):
    """Materialize F-hat = exp(-G-hat) as a right-continuous staircase."""
    ys = ghat.breakpoints
    if ys.size == 0:
        return PiecewiseCdf([0.0], [1.0], interpolation=STEP, is_full_cdf=True)
    # value on [ys[m], ys[m+1}) is exp(-sum of weights strictly above ys[m])
    above = ghat.values
    bp = np.concatenate([[0.0], ys]) if ys[0] > 0.0 else ys
    vals = np.concatenate([[math.exp(-ghat.left_value)], np.exp(-above)]) \
        if ys[0] > 0.0 else np.exp(-above)
    vals = np.minimum.accumulate(vals[::-1])[::-1]  # guard rounding
    vals = np.clip(vals, 0.0, 1.0)
    vals[-1] = 1.0
    return PiecewiseCdf(bp, vals, interpolation=STEP, is_full_cdf=True)


def estimate_bid_cdf_effective(samples, p, gamma, eps=None):
    """Per-bidder staircase estimates F-hat_i = exp(-G-hat_i), and diagnostics.

    (p, gamma) declare Pr(Y <= p) >= gamma; eps is the target sup accuracy on
    [p, 1], in (0, gamma/2] and gamma/2 by default. p and eps are checked and
    echoed but move no estimate; the denominators are clipped at gamma/2.
    """
    check_number("p", p, 0.0, 1.0)
    check_number("gamma", gamma, 0.0, 1.0, "(]")
    eps = gamma / 2.0 if eps is None else eps
    check_number("eps", eps, 0.0, gamma / 2.0 + 1e-12, "(]")
    cdfs = [_ghat_to_cdf(estimate_ghat(samples, i, gamma)) for i in range(1, samples.k + 1)]
    return cdfs, {"n": samples.n, "p": p, "gamma": gamma, "eps": eps, "h_floor": gamma / 2.0}


def full_support_params(k, lam, eps):
    """Plug-in (eta, gamma) for the full-support reduction: the effective
    support starts at p = eta."""
    check_number("lambda", lam, 0.0, bounds="()")
    check_number("eps", eps, 0.0, 1.0, "()")
    eta = eps / 2.0
    gamma = (lam * eta) ** k
    if gamma < 1e-300 or gamma == 0.0:
        raise ValidationError(
            "effective-support mass (lambda*eps/2)^k underflows; "
            "increase eps or reduce the number of bidders"
        )
    return eta, gamma


def _zero_below(F, cut):
    """Restrict a full staircase to 0 on [0, cut)."""
    keep = F.breakpoints >= cut
    return staircase(np.concatenate([[cut], F.breakpoints[keep]]),
                     np.concatenate([[F.eval(cut)], F.values[keep]]))


def estimate_bid_cdf_full(samples, lam, eps):
    """Full-support estimation: effective-support run plus a zero extension.

    Uses p = eta = eps/2 and gamma = (lam*eta)^k; the returned staircases
    are zeroed below eta, targeting Wasserstein error <= eps. The diagnostics
    are the effective-support run's, with ``eps`` the Wasserstein target.
    """
    eta, gamma = full_support_params(samples.k, lam, eps)
    cdfs, diag = estimate_bid_cdf_effective(samples, eta, gamma)
    return [_zero_below(F, eta) for F in cdfs], {**diag, "lambda": lam, "eps": eps, "eta": eta}


def estimate_density(F, h, x):
    """The forward-difference density (F(min(x + h, 1)) - F(x))/h at scalar or
    array ``x``, with bandwidth h; piecewise constant whenever F is a staircase."""
    check_number("h", h, 0.0, bounds="()")
    x = np.asarray(x, dtype=np.float64)
    out = (F.eval(np.minimum(x + h, 1.0)) - F.eval(x)) / h
    return float(out) if x.ndim == 0 else out


# -- partial observations ---------------------------------------------------


@dataclass(eq=False)
class _OracleBudget:
    """Win frequencies from a batch oracle, with the probes and calls spent."""

    oracle: object
    rng: np.random.Generator
    calls: int = 0  # probes drawn, reported as ``oracle_calls``
    batches: int = 0  # oracle calls

    def frequencies(self, xs, n):
        """One row of win frequencies per reserve in ``xs``, from n probes at
        each: the share of probes won by each index 0..k+1 (bidders 1..k,
        the planted bid k+1; index 0 never wins).

        One oracle call reads every reserve, from the budget's own
        Generator. The oracle returns exact integer counts, so ``count / n``
        is the mean of the winners' indicators bit for bit.
        """
        xs = np.asarray(xs, dtype=np.float64)
        counts = self.oracle(xs, xs.size * n, self.rng)
        self.calls += xs.size * n
        self.batches += 1
        return counts / n


def _search_step(val, target, eps1):
    """The search's comparisons of readings with targets: (stop, above)."""
    return np.abs(val - target) <= eps1 / 2.0, val > target


def noisy_quantile_search(read, targets, columns, T, eps1, lo=0.0, hi=1.0):
    """Bisection against noisy monotone functions, for 1-D arrays of targets
    and of the columns they are searched in.

    Each step calls ``read`` once with the midpoints of the targets still
    searching, an array in target order; it returns one row of fresh noisy
    readings per midpoint, and each target compares the reading in its own
    column. A target stops when its reading lands within eps1/2 of it;
    otherwise its interval is halved toward it, for at most T steps. Returns
    the last midpoint of each target.
    """
    u = np.asarray(targets, dtype=np.float64)
    columns = np.asarray(columns, dtype=np.intp)
    lo = np.full(u.shape, float(lo))
    hi = np.full(u.shape, float(hi))
    mid = 0.5 * (lo + hi)
    active = np.arange(u.size)
    for _ in range(T):
        if not active.size:
            break
        m = 0.5 * (lo[active] + hi[active])
        mid[active] = m
        val = np.asarray(read(m))[np.arange(active.size), columns[active]]
        stop, above = _search_step(val, u[active], eps1)
        hi[active] = np.where(above, m, hi[active])
        lo[active] = np.where(above, lo[active], m)
        active = active[~stop]
    return mid


def _check_probe_args(p, gamma, eps, lipschitz, seed, **sizes):
    """The argument checks both reserve-probe estimators share; ``sizes``
    name their probe counts."""
    check_number("seed", seed, 0, integer=True)
    check_number("p", p, 0.0, 1.0)
    check_number("gamma", gamma, 0.0, 1.0, "(]")
    check_number("eps", eps, 0.0, 1.0, "()")
    check_number("lipschitz", lipschitz, 0.0, bounds="()")
    for name, size in sizes.items():
        check_number(name, size, 1, integer=True)


def fp_partial_estimate(oracle, p, gamma, eps, lipschitz=1.0,
                        seed=0, n_search=2000, n_point=30000, n_base=200000):
    """Bid-CDF estimation from adaptive reserve-price probes.

    The observer plants reserves and sees only who won. The winning-bid CDF at
    reserve x is the planted-win frequency; the winner-i sub-CDF is the win
    frequency of i at reserve 0 minus at reserve x. Quantile grids of H and of
    every H_i are located by one noisy binary search over all (column, level)
    targets: each search step probes the midpoints of the targets still
    searching in one oracle call, one fresh reading per target. A level
    that the reading H_i(0) already sends upward without stopping is sent
    upward by every reading, so it takes no probes and lands where that
    search ends, at 1 - 2^-T. Bidder i's grid merges the located quantiles of
    H and H_i; one pass of point probes over the union of the bidders' grids
    reads H and every H_i at each of its reserves, and G-hat_i is assembled on
    bidder i's grid from those readings. The bidder count is ``oracle.k``,
    and each reading is one oracle call (``_OracleBudget.frequencies``).

    Returns (list of staircases, diagnostics). The diagnostics report the
    budget: ``oracle_calls`` probes drawn in ``oracle_batches`` oracle calls,
    ``pruned_levels`` sub-CDF levels answered without probes and
    ``point_reserves`` reserves in the union grid of the point probes.
    """
    _check_probe_args(p, gamma, eps, lipschitz, seed,
                      n_search=n_search, n_point=n_point, n_base=n_base)
    k = oracle.k
    budget = _OracleBudget(oracle, np.random.default_rng(seed))

    delta_grid = gamma * gamma * eps / 6.0
    check_grid_size(f"the {k + 1} search grids of gamma = {gamma:g} and eps = {eps:g}",
                    (k + 1) * (1.0 - gamma), delta_grid)
    eps1 = gamma * gamma * eps / 24.0
    T = max(1, math.ceil(math.log2(max(2.0 * lipschitz / eps1, 2.0))))

    levels = np.arange(gamma, 1.0, delta_grid)
    levels = np.unique(np.append(levels, 1.0))

    base_freq = budget.frequencies([0.0], n_base)[0]

    def read(xs):
        # column 0 reads H, column i reads H_i
        freq = budget.frequencies(xs, n_search)
        return np.concatenate([freq[:, k + 1:], base_freq[1:k + 1] - freq[:, 1:k + 1]], axis=1)

    columns = np.repeat(np.arange(k + 1), levels.size)
    targets = np.tile(levels, k + 1)
    # no reading of H exceeds 1, and none of H_i its value base_freq[i] at 0
    ceiling = np.concatenate([[1.0], base_freq[1:k + 1]])
    stop, above = _search_step(ceiling[columns], targets, eps1)
    blind = ~stop & ~above
    found = np.full(targets.size, 1.0 - 2.0 ** -T)
    found[~blind] = noisy_quantile_search(read, targets[~blind], columns[~blind], T, eps1)
    found = found.reshape(k + 1, levels.size)

    grids = []
    for what in found[1:]:
        xs = np.unique(np.concatenate([found[0], what]))
        xs = xs[(xs >= p - 1e-12) & (xs <= 1.0)]
        if xs.size < 2:
            raise EstimationError("degenerate probe grid", {"oracle_calls": budget.calls})
        grids.append(xs)

    # one probe at x reads H(x) and every H_i(x): probe the merged grid once
    merged = np.unique(np.concatenate(grids))
    merged_freq = budget.frequencies(merged, n_point)

    cdfs = []
    for i, xs in enumerate(grids, start=1):
        freq = merged_freq[np.searchsorted(merged, xs)]
        h_vals = freq[:, k + 1]
        # monotone repair of the sub-CDF
        hi_vals = np.maximum.accumulate(base_freq[i] - freq[:, i])

        increments = np.diff(hi_vals)
        denom = np.maximum(h_vals[:-1], gamma / 2.0)
        tail = np.concatenate([np.cumsum((increments / denom)[::-1])[::-1], [0.0]])
        # tail ends in 0, so the staircase ends at exactly 1
        fvals = np.maximum.accumulate(np.clip(np.exp(-tail), 0.0, 1.0))
        if xs[0] > p:
            xs, fvals = np.concatenate([[p], xs]), np.concatenate([[fvals[0]], fvals])
        cdfs.append(PiecewiseCdf(xs, fvals, interpolation=STEP, is_full_cdf=True))

    diagnostics = {
        "oracle_calls": budget.calls,
        "oracle_batches": budget.batches,
        "pruned_levels": int(blind.sum()),
        "point_reserves": int(merged.size),
        "T": T,
        "delta_grid": delta_grid,
        "eps1": eps1,
        "levels": int(levels.size),
        "n_search": n_search,
        "n_point": n_point,
    }
    return cdfs, diagnostics
