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

from .dist_core import STEP, PiecewiseCdf
from .errors import check_number, check_window
from .fp_estimator import FpEstimatorConfig, _ghat_to_cdf, _tail_sum, estimate_ghat
from .isotonic import pav_nondecreasing


@dataclass(frozen=True)
class ValueEstimatorConfig:
    """Parameters for value-CDF estimation on an effective support.

    (p, gamma) declare prod_i F_i(p) >= gamma; zeta caps the value densities
    and lipschitz, when present, names the Lipschitz case of the guarantee.
    Both are validated but move nothing. Best responses are searched on
    [0, 1]; the value grid step is min(eps/4, 0.005).
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

    @property
    def v_grid_step(self):
        return min(self.eps / 4.0, 0.005)


def best_response(prod, v, lo=0.0, hi=1.0):
    """Exact maximizer of the staircase utility (v - b) * prod(b) over [lo, hi].

    ``prod`` is the staircase of prod_{j != i} F-hat_j and ``v`` a value or
    an array of values. Candidates are the staircase's breakpoints plus the
    interval ends; ties go to the smallest bid.
    """
    check_window(lo, hi, point=True)
    bp = prod.breakpoints
    cand = np.union1d(bp[(bp >= lo) & (bp <= hi)], [lo, hi])
    pv = prod.eval(cand)
    v = np.asarray(v, dtype=np.float64)
    out = cand[[int(np.argmax((x - cand) * pv)) for x in np.atleast_1d(v)]]
    return float(out[0]) if v.ndim == 0 else out


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
    cdfs = []
    repairs = []
    for i in range(1, k + 1):
        fhat_i = _ghat_to_cdf(estimate_ghat(samples, i, fp_config))
        # two-agent relabeling: the "rest" pseudo-bidder wins when Z != i
        prod_i = _ghat_to_cdf(_tail_sum(samples, samples.ranked[1] != i, fp_config.floor))
        cdf, adjustment = _compose_value_cdf(fhat_i, prod_i, config)
        cdfs.append(cdf)
        repairs.append(adjustment)
    return cdfs, {"isotonic_repairs": repairs, "grid_step": config.v_grid_step}

