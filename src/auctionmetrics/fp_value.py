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
from .errors import ValidationError
from .fp_estimator import (FpEstimatorConfig, _ghat_to_cdf, _tail_sum, estimate_ghat,
                           full_support_params)
from .isotonic import pav_nondecreasing


@dataclass(frozen=True)
class ValueEstimatorConfig:
    """Parameters for value-CDF estimation on an effective support.

    (p, gamma) declare prod_i F_i(p) >= gamma; zeta caps the value densities;
    lipschitz, when present, selects the Lipschitz-case guarantee (sup
    error); otherwise the general case targets Levy error with interior
    margin d. Best responses are searched on [0, 1]; the value grid step is
    min(eps/4, 0.005).
    """

    p: float
    gamma: float
    eps: float
    zeta: float
    lipschitz: float | None = None
    d: float | None = None

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ValidationError("p must lie in [0,1]")
        if not 0.0 < self.gamma <= 1.0:
            raise ValidationError("gamma must lie in (0,1]")
        if not 0.0 < self.eps < 1.0:
            raise ValidationError("eps must lie in (0,1)")
        if self.zeta <= 0.0:
            raise ValidationError("zeta must be positive")
        if self.lipschitz is not None and not self.lipschitz > 0.0:
            raise ValidationError("lipschitz must be positive")

    @property
    def v_grid_step(self):
        return min(self.eps / 4.0, 0.005)


def calibration_constants(config, k):
    """(eps1, eps0): the inner accuracy targets implied by the proof chain.

    eps1 is the bid-space resolution (eps/(2L) in the Lipschitz case, the
    interior margin d otherwise); eps0 = eps1^3 gamma^3 / (32 k^2 zeta^2) is
    the bid-CDF sup accuracy that guarantees it.
    """
    if config.lipschitz is not None:
        eps1 = config.eps / (2.0 * config.lipschitz)
    else:
        eps1 = config.d if config.d is not None else config.eps
    eps0 = (eps1 ** 3) * (config.gamma ** 3) / (32.0 * k * k * config.zeta ** 2)
    return eps1, eps0


def best_response(prod, v, lo=0.0, hi=1.0):
    """Exact maximizer of the staircase utility (v - b) * prod(b) over [lo, hi].

    ``prod`` is the staircase of prod_{j != i} F-hat_j and ``v`` a value or
    an array of values. Candidates are the staircase's breakpoints plus the
    interval ends; ties go to the smallest bid.
    """
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
    eps1, eps0 = calibration_constants(config, k)
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
    diagnostics = {
        "eps0_used": eps0,
        "eps1_used": eps1,
        "isotonic_repairs": repairs,
        "grid_step": config.v_grid_step,
    }
    return cdfs, diagnostics


def estimate_value_cdf_full(samples, lam, eps, zeta, lipschitz=None):
    """Full-support value estimation via the effective-support reduction.

    Lipschitz case: eta = eps/2, p = eta, gamma = (lam*eta)^k, Wasserstein
    target eps. General case: p = 8*eta/11, d = 3*eta/11,
    gamma = (8*lam*eta/11)^k, Levy target eps.
    """
    k = samples.k
    eta = eps / 2.0
    if lipschitz is not None:
        _, p, gamma = full_support_params(k, lam, eps)
        d = None
    else:
        p = 8.0 * eta / 11.0
        d = 3.0 * eta / 11.0
        gamma = (8.0 * lam * eta / 11.0) ** k
        if gamma < 1e-300 or gamma == 0.0:
            raise ValidationError(
                "effective-support mass underflows; increase eps or reduce k"
            )
    config = ValueEstimatorConfig(
        p=p, gamma=gamma, eps=eps, zeta=zeta, lipschitz=lipschitz, d=d,
    )
    return estimate_value_cdf_effective(samples, config)
