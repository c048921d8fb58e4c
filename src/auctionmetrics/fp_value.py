"""Value-distribution recovery from first-price bid estimates.

Under equilibrium bidding, a bidder with value v best-responds with
b*(v) = argmax_b (v - b) * prod_{j != i} F_j(b), and the value CDF satisfies
G_i(v) = F_i(b*(v)). The estimator plugs a staircase estimate of the product
into the utility, maximizes it exactly over the staircase breakpoints
(``best_response``), and composes G-hat_i(v) = F-hat_i(b-hat(v)) on a value
grid.

The product prod_{j != i} F_j is estimated in one shot by relabeling each
observation (Y, Z) as the two-agent observation (Y, 1{Z = i}), which avoids
compounding k-1 separate CDF errors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dist_core import STEP, PiecewiseCdf, _as_array, window_grid
from .errors import check_grid_size, check_number, check_window
from .fp_estimator import FpEstimatorConfig, _ghat_to_cdf, _tail_sum, estimate_ghat
from .isotonic import pav_nondecreasing


@dataclass(frozen=True)
class ValueEstimatorConfig:
    """Parameters for value-CDF estimation on an effective support.

    (p, gamma) declare prod_i F_i(p) >= gamma; zeta caps the value densities
    and lipschitz, when present, names the Lipschitz case of the guarantee.
    Both are validated but move nothing. Best responses are searched on
    [0, 1]; the value grid on [p, 1] has step min(eps/4, 0.005) and at most
    ``MAX_GRID_POINTS`` points (``errors.check_grid_size``).
    """

    p: float
    gamma: float
    eps: float
    zeta: float
    lipschitz: float | None = None

    def __post_init__(self):
        check_number("p", self.p, 0.0, 1.0)
        check_number("gamma", self.gamma, 0.0, 1.0, "(]")
        check_number("eps", self.eps, 0.0, 1.0, "()")
        check_number("zeta", self.zeta, 0.0, bounds="()")
        if self.lipschitz is not None:
            check_number("lipschitz", self.lipschitz, 0.0, bounds="()")
        check_grid_size(f"the value grid of p = {self.p:g} and eps = {self.eps:g}",
                        1.0 - self.p, self.v_grid_step)

    @property
    def v_grid_step(self):
        return min(self.eps / 4.0, 0.005)


def best_response(prod, v, lo=0.0, hi=1.0):
    """Exact maximizer of the staircase utility (v - b) * prod(b) over [lo, hi].

    ``prod`` is the staircase of prod_{j != i} F-hat_j and ``v`` a finite
    value or an array of them, in any order. Candidates are the staircase's
    breakpoints plus the interval ends; ties go to the smallest bid.

    prod is nondecreasing, so the utility has increasing differences in
    (v, b) and the smallest maximizer is nondecreasing in v (Milgrom &
    Shannon, "Monotone comparative statics", Econometrica 1994). The values
    are sorted, the maximizer is found for the middle one, and each half is
    searched only on its side of it, in O((m + G) log G) products for m
    candidates and G values instead of m*G. Each product is the per-value
    scan's ``(v - b) * prod(b)``, so the bids are the same unless two distinct
    values lie within rounding of one exact tie.
    """
    check_window(lo, hi, point=True)
    values = _as_array(v, "v")  # at least 1-D
    cand = window_grid(lo, hi, prod.breakpoints)
    pv = prod.eval(cand)
    order = np.argsort(values, axis=None)
    xs = values.ravel()[order]
    best = np.empty(xs.size, dtype=np.intp)
    todo = [(0, xs.size, 0, cand.size)]
    while todo:
        a, b, c0, c1 = todo.pop()
        if a < b:
            mid = (a + b) // 2
            best[mid] = c0 + int(np.argmax((xs[mid] - cand[c0:c1]) * pv[c0:c1]))
            todo += [(a, mid, c0, best[mid] + 1), (mid + 1, b, best[mid], c1)]
    out = np.empty(xs.size)
    out[order] = cand[best]
    return float(out[0]) if np.ndim(v) == 0 else out.reshape(values.shape)


def _compose_value_cdf(fhat_i, prod_i, config):
    """G-hat_i staircase on the value grid via best-response inversion."""
    dv = config.v_grid_step
    grid = np.minimum(np.arange(config.p, 1.0 + dv / 2.0, dv), 1.0)
    repaired, adjustment = pav_nondecreasing(fhat_i.eval(best_response(prod_i, grid)))
    repaired = np.clip(repaired, 0.0, 1.0)
    cdf = PiecewiseCdf(grid, repaired, interpolation=STEP, is_full_cdf=False)
    return cdf, adjustment


def estimate_value_cdf_effective(samples, config):
    """Per-bidder value-CDF estimates from first-price observations.

    Returns (list of staircases, diagnostics). Each staircase is 0 below p.
    """
    k = samples.k
    fp_config = FpEstimatorConfig(p=config.p, gamma=config.gamma, eps=config.gamma / 2.0)
    fhats = [_ghat_to_cdf(estimate_ghat(samples, i, fp_config)) for i in range(1, k + 1)]
    cdfs = []
    repairs = []
    for i, fhat_i in enumerate(fhats, start=1):
        # two-agent relabeling: the "rest" pseudo-bidder wins when Z != i; for
        # k = 2 that mask is the other bidder's win mask, so the product is its F-hat
        prod_i = fhats[2 - i] if k == 2 else _ghat_to_cdf(
            _tail_sum(samples, samples.ranked[1] != i, fp_config.floor))
        cdf, adjustment = _compose_value_cdf(fhat_i, prod_i, config)
        cdfs.append(cdf)
        repairs.append(adjustment)
    return cdfs, {"isotonic_repairs": repairs, "grid_step": config.v_grid_step}

