"""Second-price bid-distribution estimation.

With observations (Y, W) = (price, winner), the winner-i sub-CDF
G_i(x) = Pr(W = i, Y <= x) identifies U*_i(x) = prod_{j != i} F_j(x) through
a fixed-point relation: U*_i(x) = U*_i(nu) + int_nu^x g_i(z) / (1 - H_i(z)) dz
where H_i is a power-product of the U*_j. The pipeline discretizes [nu, 1-theta]
into macro-intervals on which the discretized map is a 1/4-contraction,
iterates it to a fixed point per interval, and converts the resulting U
estimates back into per-bidder CDFs.

The theoretical parameter choices are astronomically small; the pipeline runs
with desk-scale ones derived from (alpha, eta, eps) and n and verifies the
contraction and residual properties at run time instead (see diagnostics).

A separate reserve-price probe path recovers F_j(x) pointwise from the
identity Pr(reserve binds with j winning or unsold) = prod_{l != j} F_l(x).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .auction_sim import FORMAT_SP
from .dist_core import StepFunction, dkw_band, run_ends, staircase, sub_cdf
from .errors import EstimationError, ValidationError, check_grid_size, check_number
from .fp_estimator import _check_probe_args, _OracleBudget, noisy_quantile_search
from .isotonic import pav_nondecreasing

# the contraction bound every macro-interval's Jacobian budget must meet
CONTRACTIVITY_CAP = 0.25


def _check_accuracy(alpha, eta, eps):
    """The density bounds 0 < alpha <= eta and the accuracy eps in (0, 1)."""
    if not 0.0 < check_number("alpha", alpha) <= check_number("eta", eta):
        raise ValidationError("need 0 < alpha <= eta")
    check_number("eps", eps, 0.0, 1.0, "()")


@dataclass(frozen=True)
class SpParams:
    """Pipeline parameters.

    alpha/eta bound the bid densities; eps is the target sup accuracy;
    theta trims the edges (estimates are pinned to 0/1 outside [theta, 1-theta]);
    nu is the grid start; micro_delta the micro-cell width; fp_iters the
    iteration count per macro-interval. ``desk`` derives the last four from
    the first three and the sample size. The macro-interval budget is the
    direct operator-norm bound of the discretized map over the state box
    (``_jacobian_rowsum``), summed over the cells by ``_build_grid``. The
    lattice nu + m*micro_delta up to 1 - theta/2 holds at most
    ``MAX_GRID_POINTS`` points (``errors.check_grid_size``).
    """

    alpha: float
    eta: float
    eps: float
    theta: float
    nu: float
    micro_delta: float
    fp_iters: int

    def __post_init__(self):
        _check_accuracy(self.alpha, self.eta, self.eps)
        check_number("theta", self.theta, 0.0, 0.5, "()")
        check_number("nu", self.nu, 0.0, 1.0 - self.theta, "()")
        check_number("micro_delta", self.micro_delta, 0.0, self.nu, "()")
        check_number("fp_iters", self.fp_iters, 0, integer=True)
        check_grid_size(f"the lattice of nu = {self.nu:g}, theta = {self.theta:g} and "
                        f"micro_delta = {self.micro_delta:g}",
                        1.0 - self.theta / 2.0 - self.nu, self.micro_delta)

    @classmethod
    def desk(cls, alpha, eta, eps, n):
        """Desk-scale parameters for the accuracy (alpha, eta, eps) and n prices."""
        _check_accuracy(alpha, eta, eps)  # before the trims divide by them
        fp_iters = math.ceil(math.log(4.0 / max(dkw_band(n, 0.05), 1e-9), 4.0))
        # for k = 2 a price of weight 1/n near 1-theta costs 1/(n*(alpha*theta)^2)
        # of the budget; theta >= 4/(alpha*sqrt(n)) holds that to the cap/4
        trim = 4.0 / (alpha * math.sqrt(n))
        if trim >= 0.5:
            raise EstimationError(f"n = {n} is too small: trim 4/(alpha*sqrt(n)) = {trim:.3g}")
        theta = max(eps / (16.0 * eta), 0.02, trim)
        # near x = 1-theta a single micro cell contributes about
        # eta^2*delta/(alpha^2*theta) to the contraction budget; keep that
        # under ~1/8 so the greedy construction can always reach 1-theta;
        # delta <= min(1e-3, theta/8) < nu = min(0.05, theta/2)
        micro_delta = min(1e-3, CONTRACTIVITY_CAP * alpha * alpha * theta / (2.0 * eta * eta))
        return cls(alpha=alpha, eta=eta, eps=eps, theta=theta, nu=min(0.05, theta / 2.0),
                   micro_delta=micro_delta, fp_iters=fp_iters)


@dataclass(eq=False)
class MacroCell:
    """Macro-interval tau as the fixed point reads it, built by ``_build_grid``."""

    xs: np.ndarray          # the l micro endpoints x_{tau,1..l}
    deltas: np.ndarray      # k x l nonnegative increments of G-hat
    coarse: np.ndarray      # k x l coarse U at xs
    h_lo: np.ndarray        # clip bounds of H at xs
    h_hi: np.ndarray
    box_lo: np.ndarray      # k x l state bounds of S^(tau)
    box_hi: np.ndarray


@dataclass(eq=False)
class SpGrid:
    """Macro/micro interval layout on [nu, 1-theta].

    ``endpoints[0] = nu`` and ``endpoints[tau]`` closes macro-interval tau,
    whose inputs are ``cells[tau-1]``; ``v0`` is G-hat at nu, the left
    boundary of the first interval. ``lone_cells`` lists the (x, budget) of
    each one-cell interval above the cap (budget below 1): the fixed point samples those.
    """

    endpoints: np.ndarray
    cells: list
    v0: np.ndarray
    lone_cells: list

    @property
    def T(self):
        return len(self.cells)

    @property
    def micro_counts(self):
        return [cell.xs.size for cell in self.cells]


def empirical_G_sp(samples, i):
    """Winner-i empirical sub-CDF of the price: (1/n) #{j : Y_j <= x, Z_j = i}.

    The same in both auction formats (H_i in first price, G_i in second).
    """
    ys = samples.ranked[0][samples.wins(i)]
    if ys.size == 0:
        return sub_cdf([0.0], [0.0])
    ends = run_ends(ys)
    return sub_cdf(ys[ends], (np.flatnonzero(ends) + 1) / samples.n)


def coarse_U(samples, i, theta):
    """Weighted empirical proxy for U*_i, valid on [0, 1 - theta/4].

    The step function (1/n) sum 1/(1 - Y_j) over wins by bidder i with
    Y_j <= x; a run of tied prices keeps the cumulative sum at its end.
    """
    ys = samples.ranked[0][samples.wins(i)]
    cum = np.cumsum(1.0 / (samples.n * np.maximum(1.0 - ys, theta / 8.0)))
    ends = run_ends(ys)
    return StepFunction(ys[ends], cum[ends])


def _h_clip_bounds(params, xs):
    lo = params.alpha * xs
    hi = np.minimum(1.0 - params.alpha * (1.0 - xs), params.eta * xs)
    return lo, np.maximum(hi, lo)


def _jacobian_rowsum(hbar, box_lo, box_hi):
    """Columnwise bound on the max row sum of dH/dU over the state box.

    H_i is the clipped power product prod_{j != i} U_j^{1/(k-1)} / U_i^{(k-2)/(k-1)};
    each partial derivative H_i/((k-1)U_j) is maximized over the box
    [box_lo, box_hi] (lower bounds floored at 1e-12) in closed form (the
    exponents have fixed signs) and additionally capped by hbar/U_j^min, since
    the clip zeroes the derivative wherever the product exceeds hbar. For
    k = 2 the bound is exactly 1: H_1 = U_2 there.
    """
    k = box_lo.shape[0]
    box_lo = np.maximum(box_lo, 1e-12)
    box_hi = np.maximum(box_hi, box_lo)
    log_lo = np.log(box_lo)
    log_hi = np.log(box_hi)
    hi_sum = log_hi.sum(axis=0)
    # bound[j, i] on the partial of H_i in U_j, and 0 for j = i
    bound = np.minimum(np.exp((hi_sum - log_hi - log_hi[:, None]) / (k - 1.0)
                              + (2.0 - k) / (k - 1.0) * log_lo[:, None]
                              - (k - 2.0) / (k - 1.0) * log_lo),
                       (hbar / box_lo)[:, None]) / (k - 1.0)
    bound[np.arange(k), np.arange(k)] = 0.0
    rows = bound.sum(axis=0)  # adds the rows j = 0, 1, ... in turn; the bytes depend on it
    if k > 2:
        log_bii = (hi_sum - log_hi) / (k - 1.0) - ((k - 2.0) / (k - 1.0) + 1.0) * log_lo
        rows += (k - 2.0) / (k - 1.0) * np.minimum(np.exp(log_bii), hbar / box_lo)
    return rows


def _build_grid(ghat_list, coarse_list, params):
    """Greedy construction; returns (SpGrid, per-interval budget values).

    The only place the pipeline evaluates G-hat and the coarse U, each once
    on the lattice nu + m*micro_delta up to 1 - theta/2. Each macro-interval
    is the longest run of lattice cells from its start, within the doubling
    cap, whose cumulative contraction budget
    max_i sum_m Delta_{i,m} row_{i,m}/(1-hbar_m)^2 stays within
    ``CONTRACTIVITY_CAP``; its cell holds views of the lattice arrays. A
    start without an admissible cell ends the grid if that cell lies past
    1 - theta; otherwise the cell alone is the interval if its own budget is
    below 1, still a contraction, and else the build raises.
    """
    delta = params.micro_delta
    nu = params.nu
    last = int(math.floor((1.0 - params.theta / 2.0 - nu) / delta + 1e-9))
    lattice = nu + delta * np.arange(last + 1)
    ghat = np.vstack([g.eval(lattice) for g in ghat_list])
    xs = lattice[1:]
    deltas = np.maximum(np.diff(ghat, axis=1), 0.0)
    coarse = np.vstack([c.eval(xs) for c in coarse_list])
    h_lo, h_hi = _h_clip_bounds(params, xs)
    box_lo = coarse / (2.0 * params.eta)
    box_hi = np.maximum(coarse * (2.0 / params.alpha), box_lo)
    rows = _jacobian_rowsum(h_hi, box_lo, box_hi)
    per_cell = deltas * rows / (1.0 - h_hi)[None, :] ** 2
    start, endpoints, cells, gammas, lone = 0, [nu], [], [], []
    while lattice[start] < 1.0 - params.theta - 1e-12:
        stop = min(last, int(math.floor((2.0 * lattice[start] - nu) / delta + 1e-9)))
        if stop <= start:
            raise EstimationError(
                f"macro-interval construction stalled at x={lattice[start]:.6g}",
                diagnostics={"endpoints": endpoints},
            )
        # nondecreasing: every per-cell term is nonnegative
        budget = np.cumsum(per_cell[:, start:stop], axis=1).max(axis=0)
        l = int(np.searchsorted(budget, CONTRACTIVITY_CAP, side="right"))
        if l == 0:
            if cells and xs[start] > 1.0 - params.theta + 1e-12:
                # recover_F reads no point past 1-theta, so a cell there changes nothing
                break
            if not budget[0] < 1.0:
                raise EstimationError(
                    f"no admissible micro cell at x={lattice[start]:.6g} "
                    f"(first budget value {budget[0]:.6g} >= 1)",
                    diagnostics={"endpoints": endpoints},
                )
            l = 1
            lone.append([float(xs[start]), float(budget[0])])
        cut = slice(start, start + l)
        cells.append(MacroCell(
            xs=xs[cut], deltas=deltas[:, cut], coarse=coarse[:, cut],
            h_lo=h_lo[cut], h_hi=h_hi[cut], box_lo=box_lo[:, cut], box_hi=box_hi[:, cut]))
        start += l
        endpoints.append(float(lattice[start]))
        gammas.append(float(budget[l - 1]))
    return SpGrid(np.asarray(endpoints), cells, ghat[:, 0], lone), gammas


def _power_product(U, k):
    """Row i: prod_{j != i} U_j^{1/(k-1)} / U_i^{(k-2)/(k-1)}, columnwise."""
    logU = np.log(U)
    total = logU.sum(axis=0)
    return np.exp((total - logU) / (k - 1.0) - ((k - 2.0) / (k - 1.0)) * logU)


def fixed_point_map(U, V, cell):
    """One application of the discretized map phi^(tau) to the positive k x l
    state U with left-boundary k-vector V, on the macro-interval ``cell``."""
    H = _power_product(U, U.shape[0])
    H.clip(cell.h_lo, cell.h_hi, out=H)
    integ = np.cumsum(cell.deltas / np.subtract(1.0, H, out=H), axis=1)
    integ += V[:, None]
    return integ.clip(cell.box_lo, cell.box_hi, out=integ)


def _random_box_state(cell, rng):
    """A random monotone-row element of S^(tau)."""
    u = rng.random(cell.box_lo.shape)
    cand = cell.box_lo + u * (cell.box_hi - cell.box_lo)
    cand = np.maximum.accumulate(cand, axis=1)
    return np.minimum(cand, cell.box_hi)  # bounds are monotone, so this stays valid


def sample_contraction(cell, V, pairs, rng):
    """Max over ``pairs`` random state pairs (a, b) of ``cell``'s box of the
    sup-norm ratio |phi(a) - phi(b)| / |a - b| of its map with left boundary
    V (0 if every pair coincides): a lower estimate of its Lipschitz constant."""
    ratios = [0.0]
    for _ in range(pairs):
        a = _random_box_state(cell, rng)
        b = _random_box_state(cell, rng)
        dist = float(np.max(np.abs(a - b)))
        if dist >= 1e-12:
            fa, fb = fixed_point_map(a, V, cell), fixed_point_map(b, V, cell)
            ratios.append(float(np.max(np.abs(fa - fb))) / dist)
    return max(ratios)


def run_fixed_point(grid, params):
    """Iterate the discretized map across all macro-intervals.

    Returns (U, diagnostics): ``U`` is the k x total matrix of U estimates at
    the cells' micro points in order. Diagnostics list per interval the
    sup-norm step of its last iteration (``fp_gaps``, 0 with no iteration)
    and the share of its state within ``np.isclose`` of a box bound
    (``clip_rates``), and count the state entries more than 1e-9 outside
    their box or below their left neighbour in the same interval
    (``box_violations``); all three are read off the final state. No budget
    certifies the ``grid.lone_cells``, so if there are any, diagnostics list
    them and, in ``contraction_samples``, each one's sampled contraction (5
    pairs, one ``default_rng(0)`` per run). A bidder that wins no price up to
    a micro point has an empty state box there (coarse U = 0): EstimationError.
    """
    empty = np.hstack([cell.coarse for cell in grid.cells]) <= 0.0
    if empty.any():
        i = int(np.flatnonzero(empty.any(axis=1))[0])
        x = float(np.concatenate([cell.xs for cell in grid.cells])[empty[i]].max())
        raise EstimationError(
            f"bidder {i + 1} wins no price up to x={x:.6g}, so its state box there is empty",
            diagnostics={"bidder": i + 1, "x": x})
    lone = {x for x, _ in grid.lone_cells}
    rng = np.random.default_rng(0)
    V, all_U, gaps, contraction = grid.v0, [], [], []
    for cell in grid.cells:
        U = np.maximum.accumulate(np.clip(cell.coarse, cell.box_lo, cell.box_hi), axis=1)
        prev = U
        for _ in range(params.fp_iters):
            prev, U = U, fixed_point_map(U, V, cell)
        gaps.append(float(np.max(np.abs(U - prev))))
        if cell.xs[0] in lone:  # each lone cell is the only micro point of its interval
            contraction.append(sample_contraction(cell, V, 5, rng))
        all_U.append(U)
        V = U[:, -1].copy()
    U = np.hstack(all_U)
    box_lo = np.hstack([cell.box_lo for cell in grid.cells])
    box_hi = np.hstack([cell.box_hi for cell in grid.cells])
    counts = np.asarray(grid.micro_counts)
    starts = np.cumsum(counts) - counts
    at_bound = (np.isclose(U, box_lo) | np.isclose(U, box_hi)).sum(axis=0)
    outside = (U < box_lo - 1e-9) | (U > box_hi + 1e-9)
    falls = np.diff(U, axis=1) < -1e-9
    falls[:, starts[1:] - 1] = False  # a step from one interval into the next
    diagnostics = {
        "T": grid.T,
        "macro_endpoints": grid.endpoints.tolist(),
        "total_micro_points": int(U.shape[1]),
        "fp_gaps": gaps,
        "clip_rates": (np.add.reduceat(at_bound, starts) / (U.shape[0] * counts)).tolist(),
        "box_violations": int(outside.sum() + falls.sum()),
    }
    if lone:
        diagnostics.update(lone_cells=grid.lone_cells, contraction_samples=contraction)
    return U, diagnostics


def recover_F(xs, U, params):
    """Convert the U estimates at the micro points ``xs`` into per-bidder
    CDFs pinned to 0/1 at the edges."""
    keep = (xs >= params.theta - 1e-12) & (xs <= 1.0 - params.theta + 1e-12)
    if not np.any(keep):
        raise EstimationError(
            "no grid points inside [theta, 1-theta]",
            diagnostics={"theta": params.theta, "grid_points": int(xs.size)},
        )
    ratios = np.clip(_power_product(np.maximum(U, 1e-300), U.shape[0]), 0.0, 1.0)
    # pinned to 0 strictly below theta and to 1 strictly above 1-theta;
    # on the boundary the nearest interior estimate applies
    top = max(1.0 - params.theta, float(xs[keep][-1]))
    bp = np.concatenate([[params.theta], xs[keep], [np.nextafter(top, 1.0)]])
    cdfs = []
    repairs = []
    for vals in ratios[:, keep]:
        fitted, adjustment = pav_nondecreasing(vals)
        repairs.append(adjustment)
        fitted = np.clip(fitted, 0.0, 1.0)
        cdfs.append(staircase(bp, np.concatenate([[fitted[0]], fitted, [1.0]])))
    return cdfs, {"isotonic_repairs": repairs,
                  "isotonic_repair_total": max(repairs) if repairs else 0.0}


def run_pipeline(ghat_list, coarse_list, params):
    """Grid construction + fixed point + CDF recovery from eval-ables.

    Returns (list of PiecewiseCdf, diagnostics), with each interval's budget
    in ``gamma_per_interval``.
    """
    grid, gammas = _build_grid(ghat_list, coarse_list, params)
    U, fp_diag = run_fixed_point(grid, params)
    xs = np.concatenate([cell.xs for cell in grid.cells])
    cdfs, rec_diag = recover_F(xs, U, params)
    return cdfs, {**fp_diag, **rec_diag, "gamma_per_interval": gammas,
                  "params": asdict(params)}


def estimate_sp(samples, alpha, eta, eps):
    """End-to-end second-price estimation with the ``SpParams.desk`` parameters.
    Returns (list of PiecewiseCdf, diagnostics)."""
    samples.require(FORMAT_SP)
    params = SpParams.desk(alpha, eta, eps, n=samples.n)
    ghat_list = [empirical_G_sp(samples, i) for i in range(1, samples.k + 1)]
    coarse_list = [coarse_U(samples, i, params.theta) for i in range(1, samples.k + 1)]
    return run_pipeline(ghat_list, coarse_list, params)


# -- reserve-price probes ----------------------------------------------------


def sp_partial_pointwise(freq):
    """(F-hat rows, means) from rows of second-price count shares, one per reserve x.

    Z_j, "bidder j won and the reserve bound the price, or the reserve won
    outright", has mean column j plus column k+1 and estimates
    prod_{l != j} F_l(x); the power-product combination returns each F_j(x).
    """
    k = freq.shape[1] - 2
    means = freq[:, 1:k + 1] + freq[:, k + 1:]
    degenerate = np.any(means <= 0.0, axis=1)
    if np.any(degenerate):
        raise EstimationError(
            "degenerate probe: some win frequency is zero",
            diagnostics={"means": means[degenerate].tolist()},
        )
    log_m = np.log(means)
    fhat = np.exp(log_m.sum(axis=1, keepdims=True) / (k - 1.0) - log_m)
    return np.clip(fhat, 0.0, 1.0), means


def sp_partial_estimate(oracle, p, gamma, eps, lipschitz=1.0,
                        seed=0, n_point=20000):
    """Staircase estimation of all F_j on [p,1] from reserve-price probes.

    One probe at p reads every F-hat_j(p). The levels w_a = gamma + a*eps/2
    (plus 1) above F-hat_j(p) are located by one noisy binary search over
    every bidder's levels against the pointwise estimator, as in fp.
    F-hat_j is F-hat_j(p) on [p, z_{j,0}) and w_a on [z_{j,a}, z_{j,a+1}).
    Each reading is one oracle call (``_OracleBudget.frequencies``).
    Returns (staircases, diagnostics); the diagnostics report ``oracle_calls``
    probes drawn in ``oracle_batches`` oracle calls and ``searched_levels``,
    summed over bidders.
    """
    _check_probe_args(p, gamma, eps, lipschitz, seed, n_point=n_point)
    check_grid_size(f"the levels of gamma = {gamma:g} and eps = {eps:g}", 1.0 - gamma, eps / 2.0)
    budget = _OracleBudget(oracle, np.random.default_rng(seed))
    levels = np.unique(np.append(np.arange(gamma, 1.0, eps / 2.0), 1.0))
    T = max(1, math.ceil(math.log2(max(4.0 * lipschitz / eps, 2.0))))

    def f_hat(xs):
        return sp_partial_pointwise(budget.frequencies(xs, n_point))[0]

    start = f_hat([p])[0]
    above = [levels[levels > f_p] for f_p in start]
    columns = np.repeat(np.arange(start.size), [a.size for a in above])
    # termination band eps/4 keeps |F(z_a) - w_a| <= eps/2 with margin
    found = noisy_quantile_search(f_hat, np.concatenate(above), columns, T, eps / 2.0,
                                  lo=p, hi=1.0)
    cdfs = []
    for j, (f_p, levels_j) in enumerate(zip(start, above)):
        bp = np.concatenate([[p], np.maximum.accumulate(found[columns == j])])
        # at a location found twice the higher level holds
        cdfs.append(staircase(bp, np.concatenate([[f_p], levels_j])))

    diagnostics = {
        "oracle_calls": budget.calls,
        "oracle_batches": budget.batches,
        "searched_levels": int(columns.size),
        "T": T,
        "levels": int(levels.size),
        "n_point": n_point,
    }
    return cdfs, diagnostics
