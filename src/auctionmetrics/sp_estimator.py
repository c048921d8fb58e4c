"""Second-price bid-distribution estimation.

With observations (Y, W) = (price, winner), the winner-i sub-CDF
G_i(x) = Pr(W = i, Y <= x) identifies U*_i(x) = prod_{j != i} F_j(x) through
a fixed-point relation: U*_i(x) = U*_i(nu) + int_nu^x g_i(z) / (1 - H_i(z)) dz
where H_i is a power-product of the U*_j. The pipeline discretizes [nu, 1-theta]
on a lattice, cuts it into fixed windows, iterates the discretized map on each
window until its step settles, and converts the resulting U estimates back
into per-bidder CDFs.

The discretized map is a Volterra operator: column m of its output reads only
columns <= m of its input. So the fixed point is the implicit scan
U_m = U_{m-1} + Delta_m / (1 - H(U_m)) column by column, and Picard iteration
on a window converges to it wherever each column's own map contracts, with
no certificate over the window as a whole (P. Linz, "Analytical and Numerical
Methods for Volterra Equations", SIAM 1985). The theoretical parameter choices
are astronomically small; the pipeline runs with desk-scale ones derived from
(alpha, eta, eps) and n and checks the residual of every window at run time
instead (see diagnostics).

A separate reserve-price probe path recovers F_j(x) pointwise from the
identity Pr(reserve binds with j winning or unsold) = prod_{l != j} F_l(x).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .auction_sim import FORMAT_SP
from .dist_core import StepFunction, run_ends, staircase, sub_cdf
from .errors import EstimationError, ValidationError, check_grid_size, check_number
from .fp_estimator import _check_probe_args, _OracleBudget, noisy_quantile_search
from .isotonic import pav_nondecreasing

# desk's lattice width keeps one cell's own map, about eta^2*delta/(alpha^2*theta)
# near 1-theta, at this factor over 2
CELL_WIDTH_FACTOR = 0.25
# lattice cells per fixed-point window
WINDOW_CELLS = 512
# each window iterates until its sup-norm step is below FP_TOL, within FP_MAX_STEPS
FP_TOL, FP_MAX_STEPS = 1e-13, 500


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
    nu is the lattice start and micro_delta its cell width. ``desk`` derives
    the last three from the first three and the sample size. The lattice
    nu + m*micro_delta up to 1 - theta/2 holds at most ``MAX_GRID_POINTS``
    points (``errors.check_grid_size``); the pipeline reads it up to 1 - theta.
    """

    alpha: float
    eta: float
    eps: float
    theta: float
    nu: float
    micro_delta: float

    def __post_init__(self):
        _check_accuracy(self.alpha, self.eta, self.eps)
        check_number("theta", self.theta, 0.0, 0.5, "()")
        check_number("nu", self.nu, 0.0, 1.0 - self.theta, "()")
        check_number("micro_delta", self.micro_delta, 0.0, self.nu, "()")
        check_grid_size(f"the lattice of nu = {self.nu:g}, theta = {self.theta:g} and "
                        f"micro_delta = {self.micro_delta:g}",
                        1.0 - self.theta / 2.0 - self.nu, self.micro_delta)

    @classmethod
    def desk(cls, alpha, eta, eps, n):
        """Desk-scale parameters for the accuracy (alpha, eta, eps) and n prices."""
        _check_accuracy(alpha, eta, eps)  # before the trims divide by them
        # for k = 2 a price of weight 1/n near 1-theta moves one cell's map by
        # about 1/(n*(alpha*theta)^2); theta >= 4/(alpha*sqrt(n)) holds that to 1/16
        trim = 4.0 / (alpha * math.sqrt(n))
        if trim >= 0.5:
            raise EstimationError(f"n = {n} is too small: trim 4/(alpha*sqrt(n)) = {trim:.3g}")
        theta = max(eps / (16.0 * eta), 0.02, trim)
        # delta <= min(1e-3, theta/8) < nu = min(0.05, theta/2)
        micro_delta = min(1e-3, CELL_WIDTH_FACTOR * alpha * alpha * theta / (2.0 * eta * eta))
        return cls(alpha=alpha, eta=eta, eps=eps, theta=theta, nu=min(0.05, theta / 2.0),
                   micro_delta=micro_delta)


@dataclass(eq=False)
class MacroCell:
    """One window of lattice cells as the fixed point reads it, built by ``_build_grid``."""

    xs: np.ndarray          # the l micro endpoints x_{tau,1..l}
    deltas: np.ndarray      # k x l nonnegative increments of G-hat
    coarse: np.ndarray      # k x l coarse U at xs
    h_lo: np.ndarray        # clip bounds of H at xs
    h_hi: np.ndarray
    box_lo: np.ndarray      # k x l state bounds of S^(tau)
    box_hi: np.ndarray


@dataclass(eq=False)
class SpGrid:
    """Window layout on [nu, 1-theta].

    ``endpoints[0] = nu`` and ``endpoints[tau]`` closes window tau, whose
    inputs are ``cells[tau-1]``; ``v0`` is G-hat at nu, the left boundary of
    the first window.
    """

    endpoints: np.ndarray
    cells: list
    v0: np.ndarray

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


def _build_grid(ghat_list, coarse_list, params):
    """The lattice and its windows; returns (SpGrid, micro points).

    The lattice nu + m*micro_delta runs up to its first point at or past
    1 - theta, and its cells are cut into windows of ``WINDOW_CELLS`` (the
    last one shorter). This is the only place the pipeline evaluates G-hat
    and the coarse U, each once on the lattice; each window's cell holds
    views of the lattice arrays. The micro points are every lattice point
    after nu, the concatenation of the windows' ``xs``.
    """
    delta, nu = params.micro_delta, params.nu
    lattice = nu + delta * np.arange(math.ceil((1.0 - params.theta - nu) / delta) + 2)
    lattice = lattice[:int(np.searchsorted(lattice, 1.0 - params.theta - 1e-12)) + 1]
    ghat = np.vstack([g.eval(lattice) for g in ghat_list])
    xs = lattice[1:]
    deltas = np.maximum(np.diff(ghat, axis=1), 0.0)
    coarse = np.vstack([c.eval(xs) for c in coarse_list])
    h_lo, h_hi = _h_clip_bounds(params, xs)
    box_lo = coarse / (2.0 * params.eta)
    box_hi = np.maximum(coarse * (2.0 / params.alpha), box_lo)
    starts = range(0, xs.size, WINDOW_CELLS)
    cells = [MacroCell(xs=xs[cut], deltas=deltas[:, cut], coarse=coarse[:, cut],
                       h_lo=h_lo[cut], h_hi=h_hi[cut],
                       box_lo=box_lo[:, cut], box_hi=box_hi[:, cut])
             for cut in (slice(s, s + WINDOW_CELLS) for s in starts)]
    endpoints = lattice[np.append(starts, xs.size)]
    return SpGrid(endpoints, cells, ghat[:, 0]), xs


def _power_product(U, k):
    """Row i: prod_{j != i} U_j^{1/(k-1)} / U_i^{(k-2)/(k-1)}, columnwise."""
    logU = np.log(U)
    total = logU.sum(axis=0)
    return np.exp((total - logU) / (k - 1.0) - ((k - 2.0) / (k - 1.0)) * logU)


def fixed_point_map(U, V, cell):
    """One application of the discretized map phi^(tau) to the positive k x l
    state U with left-boundary k-vector V, on the window ``cell``."""
    H = _power_product(U, U.shape[0])
    H.clip(cell.h_lo, cell.h_hi, out=H)
    integ = np.cumsum(cell.deltas / np.subtract(1.0, H, out=H), axis=1)
    integ += V[:, None]
    return integ.clip(cell.box_lo, cell.box_hi, out=integ)


def run_fixed_point(grid):
    """Iterate the discretized map on each window until it settles.

    Each window starts from its coarse U, clipped to the box and made
    monotone, with the last column of the window before as its left
    boundary, and maps until the sup-norm step falls below ``FP_TOL``; a
    window that has not settled after ``FP_MAX_STEPS`` raises EstimationError
    naming the micro point with the largest last step. Returns (U,
    diagnostics): ``U`` is the k x total matrix of U estimates at the
    windows' micro points in order. Diagnostics list per window the number
    of steps (``fp_steps``), the last step (``fp_gaps``) and the share of its
    state within ``np.isclose`` of a box bound (``clip_rates``), and count the
    state entries more than 1e-9 outside their box or below their left
    neighbour in the same window (``box_violations``). A bidder that wins no
    price up to a micro point has an empty state box there (coarse U = 0):
    EstimationError.
    """
    empty = np.hstack([cell.coarse for cell in grid.cells]) <= 0.0
    if empty.any():
        i = int(np.flatnonzero(empty.any(axis=1))[0])
        x = float(np.concatenate([cell.xs for cell in grid.cells])[empty[i]].max())
        raise EstimationError(
            f"bidder {i + 1} wins no price up to x={x:.6g}, so its state box there is empty",
            diagnostics={"bidder": i + 1, "x": x})
    V, all_U, steps, gaps = grid.v0, [], [], []
    for cell in grid.cells:
        U = np.maximum.accumulate(np.clip(cell.coarse, cell.box_lo, cell.box_hi), axis=1)
        for step in range(1, FP_MAX_STEPS + 1):
            prev, U = U, fixed_point_map(U, V, cell)
            gap = float(np.max(np.abs(U - prev)))
            if gap < FP_TOL:
                break
        else:
            x = float(cell.xs[np.argmax(np.abs(U - prev).max(axis=0))])
            raise EstimationError(
                f"the fixed point did not settle within {FP_MAX_STEPS} steps at x={x:.6g} "
                f"(last step {gap:.3g})", diagnostics={"x": x, "fp_gap": gap})
        steps.append(step)
        gaps.append(gap)
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
    falls[:, starts[1:] - 1] = False  # a step from one window into the next
    diagnostics = {
        "T": grid.T,
        "macro_endpoints": grid.endpoints.tolist(),
        "total_micro_points": int(U.shape[1]),
        "fp_steps": steps,
        "fp_gaps": gaps,
        "clip_rates": (np.add.reduceat(at_bound, starts) / (U.shape[0] * counts)).tolist(),
        "box_violations": int(outside.sum() + falls.sum()),
    }
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
    Returns (list of PiecewiseCdf, diagnostics)."""
    grid, xs = _build_grid(ghat_list, coarse_list, params)
    U, fp_diag = run_fixed_point(grid)
    cdfs, rec_diag = recover_F(xs, U, params)
    return cdfs, {**fp_diag, **rec_diag, "params": asdict(params)}


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
