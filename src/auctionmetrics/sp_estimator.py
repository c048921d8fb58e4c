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
    """The density bounds 0 < alpha <= 1 <= eta and the accuracy eps in (0, 1).

    A bid density on [0, 1] integrates to 1, so no density lies in [alpha, eta]
    unless alpha <= 1 <= eta."""
    if not 0.0 < check_number("alpha", alpha) <= 1.0 <= check_number("eta", eta):
        raise ValidationError("need 0 < alpha <= 1 <= eta (a bid density on [0, 1] "
                              f"integrates to 1), not alpha = {alpha}, eta = {eta}")
    check_number("eps", eps, 0.0, 1.0, "()")


@dataclass(frozen=True)
class SpParams:
    """Pipeline parameters.

    alpha/eta bound the bid densities; eps is the target sup accuracy;
    theta trims the edges (estimates are pinned to 0/1 outside [theta, 1-theta]);
    nu is the lattice start and micro_delta its cell width. ``desk`` derives
    the last three from the first three and the sample size. The lattice
    nu + m*micro_delta, up to its first point at or past 1 - theta, spans at
    most ``MAX_GRID_POINTS`` cells (``errors.check_grid_size``).
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
                        1.0 - self.theta - self.nu, self.micro_delta)

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
class SpGrid:
    """The lattice on [nu, 1-theta] and the fixed point's inputs on it.

    ``lattice[0] = nu``. Column m of the other arrays belongs to the micro
    point ``lattice[m + 1]``: the k x M G-hat increments over the cell that
    it closes (``deltas``), the coarse U (``coarse``) and the clip bounds of
    H (``h_lo``, ``h_hi``). ``v0`` is G-hat at nu. Windows are column slices
    of ``WINDOW_CELLS`` (the last one shorter); ``cuts`` are their first
    columns, then M.
    """

    lattice: np.ndarray
    deltas: np.ndarray
    coarse: np.ndarray
    h_lo: np.ndarray
    h_hi: np.ndarray
    v0: np.ndarray

    @property
    def cuts(self):
        M = self.coarse.shape[1]
        return np.append(np.arange(0, M, WINDOW_CELLS), M)

    @property
    def T(self):
        return self.cuts.size - 1

    @property
    def micro_counts(self):
        return np.diff(self.cuts).tolist()


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


def _build_grid(ghat_list, coarse_list, params):
    """The lattice and the fixed point's inputs on it; returns (SpGrid, micro points).

    The lattice nu + m*micro_delta runs up to its first point at or past
    1 - theta. This is the only place the pipeline evaluates G-hat and the
    coarse U, each once on the lattice. The micro points are every lattice
    point after nu. alpha <= 1 <= eta order H's clip bounds without a guard:
    alpha*x <= 1 - alpha*(1 - x) and alpha*x <= eta*x (at alpha = 1 the first
    may round an ulp below x, where 1 - H is fl(1 - x) all the same).
    """
    delta, nu, alpha = params.micro_delta, params.nu, params.alpha
    lattice = nu + delta * np.arange(math.ceil((1.0 - params.theta - nu) / delta) + 2)
    lattice = lattice[:int(np.searchsorted(lattice, 1.0 - params.theta - 1e-12)) + 1]
    ghat = np.vstack([g.eval(lattice) for g in ghat_list])
    xs = lattice[1:]
    coarse = np.vstack([c.eval(xs) for c in coarse_list])
    grid = SpGrid(lattice=lattice, deltas=np.maximum(np.diff(ghat, axis=1), 0.0), coarse=coarse,
                  h_lo=alpha * xs, h_hi=np.minimum(1.0 - alpha * (1.0 - xs), params.eta * xs),
                  v0=ghat[:, 0])
    return grid, xs


def _power_product(U, k):
    """Row i: prod_{j != i} U_j^{1/(k-1)} / U_i^{(k-2)/(k-1)}, columnwise."""
    logU = np.log(U)
    total = logU.sum(axis=0)
    return np.exp((total - logU) / (k - 1.0) - ((k - 2.0) / (k - 1.0)) * logU)


def fixed_point_map(U, V, grid, cols):
    """One application of the discretized map phi^(tau) to the positive k x l
    state U of the window ``cols`` of ``grid``, with left-boundary k-vector V.

    H <= 1 - alpha*(1 - x), so 1 - H >= alpha*(1 - x) > 0 and each column is V
    plus a running sum of terms at least the G-hat increments: the result never
    decreases, across a window seam too, and is at least G-hat >= 1/n (checked
    by ``run_fixed_point``), so the next H is finite. Under ``SpParams.desk``
    it, like the coarse start, is at most (8/(7*alpha))*coarse: delta <= theta/8
    and every lattice x has 1 - x > 7*theta/8, so a price Y in the cell ending
    at x has (1 - Y)/(1 - x) <= 8/7, and the floor theta/8 of ``coarse_U``
    never binds at those prices.
    """
    H = _power_product(U, U.shape[0])
    H.clip(grid.h_lo[cols], grid.h_hi[cols], out=H)
    integ = np.cumsum(grid.deltas[:, cols] / np.subtract(1.0, H, out=H), axis=1)
    integ += V[:, None]
    return integ


def run_fixed_point(grid):
    """Iterate the discretized map on each window until it settles.

    Each window starts from its coarse U, with the last column of the window
    before as its left boundary, and maps until the sup-norm step falls below
    ``FP_TOL``; a window that has not settled after ``FP_MAX_STEPS`` raises
    EstimationError naming the micro point with the largest last step.
    Returns (U, diagnostics): ``U`` is the k x M matrix of U estimates at the
    micro points. Diagnostics list per window the number of steps
    (``fp_steps``) and the last step (``fp_gaps``). A bidder that wins no
    price up to a micro point has U = 0 there, where H is undefined:
    EstimationError.
    """
    xs = grid.lattice[1:]
    empty = grid.coarse <= 0.0
    if empty.any():
        i = int(np.flatnonzero(empty.any(axis=1))[0])
        x = float(xs[empty[i]].max())
        raise EstimationError(
            f"bidder {i + 1} wins no price up to x={x:.6g}, so its U is 0 there and H "
            "is undefined", diagnostics={"bidder": i + 1, "x": x})
    U = np.empty_like(grid.coarse)
    V, steps, gaps = grid.v0, [], []
    for start in range(0, U.shape[1], WINDOW_CELLS):
        cols = slice(start, start + WINDOW_CELLS)
        W = grid.coarse[:, cols]
        for step in range(1, FP_MAX_STEPS + 1):
            prev, W = W, fixed_point_map(W, V, grid, cols)
            gap = float(np.max(np.abs(W - prev)))
            if gap < FP_TOL:
                break
        else:
            x = float(xs[cols][np.argmax(np.abs(W - prev).max(axis=0))])
            raise EstimationError(
                f"the fixed point did not settle within {FP_MAX_STEPS} steps at x={x:.6g} "
                f"(last step {gap:.3g})", diagnostics={"x": x, "fp_gap": gap})
        steps.append(step)
        gaps.append(gap)
        U[:, cols] = W
        V = W[:, -1]
    diagnostics = {
        "T": grid.T,
        "macro_endpoints": grid.lattice[grid.cuts].tolist(),
        "total_micro_points": int(U.shape[1]),
        "fp_steps": steps,
        "fp_gaps": gaps,
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
