"""Experiment orchestration: convergence sweeps and lower-bound experiments.

A sweep simulates, estimates, and scores one cell per (sample size, seed);
cells are isolated (an estimator failure is recorded, not fatal) and each
cell derives its own random substream from (seed root, n, seed index), so
reports are byte-identical regardless of the worker-pool size.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy.stats import ks_2samp

from . import fp_estimator, fp_value, sp_estimator
from .auction_sim import lower_bound_fixture, simulate_fp, simulate_sp
from .dist_core import dkw_band, kolmogorov, levy, wasserstein1
from .errors import ValidationError
from .io import config_hash

ESTIMATOR_KINDS = (
    "fp-effective", "fp-full", "fp-density", "fp-value", "fp-partial",
    "sp", "sp-partial",
)
METRICS = ("kolmogorov", "levy", "wasserstein1", "l1-density")


@dataclass(eq=False)
class ExperimentConfig:
    """One sweep: a model, an estimator kind, an n schedule, and a metric."""

    model: object
    estimator: str
    n_schedule: list
    seeds: int
    metric: str = "kolmogorov"
    support_lo: float = 0.0
    support_hi: float = 1.0
    seed_root: int = 0
    estimator_args: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.estimator not in ESTIMATOR_KINDS:
            raise ValidationError(f"unknown estimator kind {self.estimator!r}")
        if self.metric not in METRICS:
            raise ValidationError(f"unknown metric {self.metric!r}")
        if list(self.n_schedule) != sorted(self.n_schedule):
            raise ValidationError("n schedule must be ascending")
        if self.seeds < 1:
            raise ValidationError("need at least one seed per n")

    def to_dict(self):
        return {
            "model": self.model.to_dict(),
            "estimator": self.estimator,
            "n_schedule": [int(n) for n in self.n_schedule],
            "seeds": int(self.seeds),
            "metric": self.metric,
            "support": [self.support_lo, self.support_hi],
            "seed_root": int(self.seed_root),
            "estimator_args": self.estimator_args,
        }


@dataclass(eq=False)
class ExperimentReport:
    """Per (n, seed, bidder) error rows plus aggregates and provenance."""

    rows: list
    aggregates: dict
    config_hash: str
    seed_root: int
    diagnostics: list = field(default_factory=list)

    def to_dict(self):
        return {
            "rows": self.rows,
            "aggregates": self.aggregates,
            "config_hash": self.config_hash,
            "seed_root": self.seed_root,
            "diagnostics": self.diagnostics,
        }


def _max_workers():
    env = os.environ.get("AUCTIONMETRICS_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError as exc:
            raise ValidationError(f"AUCTIONMETRICS_THREADS={env!r} is not an integer") from exc
    return min(8, os.cpu_count() or 1)


def _cell_seed(seed_root, n, seed_index):
    return int(np.random.SeedSequence([seed_root, int(n), seed_index]).generate_state(1)[0])


def _metric_value(metric, est, truth, lo, hi):
    if metric == "kolmogorov":
        return kolmogorov(est, truth, lo, hi)
    if metric == "wasserstein1":
        return wasserstein1(est, truth, lo, hi)
    if metric == "levy":
        return levy(est, truth)
    raise ValidationError(f"metric {metric!r} needs a density comparison path")


def _run_cell(config, n, seed_index):
    model = config.model
    seed = _cell_seed(config.seed_root, n, seed_index)
    args = dict(config.estimator_args)
    kind = config.estimator
    diagnostics = {}
    if kind in ("fp-effective", "fp-full", "fp-density", "fp-value"):
        samples = simulate_fp(model, n, seed)
    elif kind == "sp":
        samples = simulate_sp(model, n, seed)
    else:
        samples = None

    if kind == "fp-effective":
        cfg = fp_estimator.FpEstimatorConfig(
            p=args["p"], gamma=args["gamma"], eps=args.get("eps", args["gamma"] / 2.0),
        )
        cdfs = fp_estimator.estimate_bid_cdf_effective(samples, cfg)
        truths = [model.bid_cdf(i) for i in range(1, model.k + 1)]
    elif kind == "fp-full":
        cdfs = fp_estimator.estimate_bid_cdf_full(samples, args["lambda"], args["eps"])
        truths = [model.bid_cdf(i) for i in range(1, model.k + 1)]
    elif kind == "fp-density":
        cfg = fp_estimator.FpEstimatorConfig(
            p=args["p"], gamma=args["gamma"], eps=args.get("eps", args["gamma"] / 2.0),
        )
        fhats = fp_estimator.estimate_bid_cdf_effective(samples, cfg)
        cdfs = [fp_estimator.estimate_density(F, args["h"], args["p"]) for F in fhats]
        truths = list(range(1, model.k + 1))  # density truth handled below
    elif kind == "fp-value":
        cfg = fp_value.ValueEstimatorConfig(
            p=args["p"], gamma=args["gamma"], eps=args["eps"],
            zeta=args.get("zeta", 1.0), lipschitz_L=args.get("lipschitz"),
        )
        cdfs, diagnostics = fp_value.estimate_value_cdf_effective(samples, cfg)
        truths = [d.to_cdf() for d in model.value_dists] if model.value_dists \
            else [model.bid_cdf(i) for i in range(1, model.k + 1)]
    elif kind == "sp":
        cdfs, diagnostics = sp_estimator.estimate_sp(
            samples, args["alpha"], args["eta"], args["eps"],
            overrides=args.get("overrides"),
            measure_contraction=args.get("measure_contraction", 5),
        )
        truths = [model.bid_cdf(i) for i in range(1, model.k + 1)]
    elif kind == "fp-partial":
        from .auction_sim import make_fp_partial_oracle

        oracle = make_fp_partial_oracle(model)
        cdfs, diagnostics = fp_estimator.fp_partial_estimate(
            oracle, model.k, args["p"], args["gamma"], args["eps"],
            lipschitz_L=args.get("lipschitz", 1.0), seed=seed,
            **{kk: args[kk] for kk in ("n_search", "n_point", "n_base") if kk in args},
        )
        truths = [model.bid_cdf(i) for i in range(1, model.k + 1)]
    elif kind == "sp-partial":
        from .auction_sim import make_sp_partial_oracle

        oracle = make_sp_partial_oracle(model)
        cdfs, diagnostics = sp_estimator.sp_partial_estimate(
            oracle, args["p"], args["gamma"], args["eps"],
            lipschitz_L=args.get("lipschitz", 1.0), seed=seed,
            **{kk: args[kk] for kk in ("n_point",) if kk in args},
        )
        truths = [model.bid_cdf(i) for i in range(1, model.k + 1)]
    else:  # pragma: no cover
        raise ValidationError(kind)

    rows = []
    for i, est in enumerate(cdfs, start=1):
        if kind == "fp-density":
            dist = model.bid_dists[i - 1]
            grid = np.linspace(config.support_lo, min(config.support_hi, 1.0 - args["h"]), 2001)
            true_pdf = dist.pdf(grid) if hasattr(dist, "pdf") else np.gradient(
                model.bid_cdf(i).eval(grid), grid)
            trapz = getattr(np, "trapezoid", None) or np.trapz
            err = float(trapz(np.abs(est.eval(grid) - true_pdf), grid))
        else:
            err = _metric_value(config.metric, est, truths[i - 1],
                                config.support_lo, config.support_hi)
        rows.append({"n": int(n), "seed": seed_index, "bidder": i, "error": float(err)})
    return rows, diagnostics


def run_convergence(config):
    """Simulate -> estimate -> score each (n, seed) cell of the sweep."""
    cells = [(n, s) for n in config.n_schedule for s in range(config.seeds)]
    rows = []
    diags = []

    def work(cell):
        n, s = cell
        try:
            return _run_cell(config, n, s), None
        except Exception as exc:  # cell isolation: record, don't abort
            return None, (n, s, f"{type(exc).__name__}: {exc}")

    with ThreadPoolExecutor(max_workers=_max_workers()) as pool:
        results = list(pool.map(work, cells))
    for (cell, (ok, err)) in zip(cells, results):
        n, s = cell
        if ok is not None:
            cell_rows, diag = ok
            rows.extend(cell_rows)
            diags.append({"n": int(n), "seed": s, "diagnostics": diag})
        else:
            diags.append({"n": int(n), "seed": s, "error": err[2]})

    aggregates = {}
    for n in config.n_schedule:
        errs = [r["error"] for r in rows if r["n"] == n]
        if errs:
            aggregates[str(n)] = {
                "median": float(np.median(errs)),
                "p90": float(np.percentile(errs, 90)),
                "count": len(errs),
            }
    return ExperimentReport(
        rows=rows,
        aggregates=aggregates,
        config_hash=config_hash(config.to_dict()),
        seed_root=config.seed_root,
        diagnostics=diags,
    )


def run_lower_bound_experiment(k, eps, lam, n, trials, seed_root=0):
    """Hard-instance experiment: separation vs. indistinguishability.

    Reports the exact Kolmogorov/Wasserstein separation of the first bidder's
    two distributions, the frequency of informative samples (Y <= eps) against
    the analytic scale, and a two-sample KS comparison of the samples
    conditioned on the uninformative event Y > eps.
    """
    d, dp = lower_bound_fixture(k, eps, lam)
    f1, f1p = d.bid_dists[0], dp.bid_dists[0]
    sep_k = kolmogorov(f1, f1p)
    sep_w = wasserstein1(f1, f1p)

    # Pr(Y <= eps) = F1(eps) * (lam*eps)^(k-1): the informative-event mass
    analytic_rate = f1.eval(eps) * (lam * eps) ** (k - 1)
    scale_rate = (lam * eps) ** (k - 1)

    low_counts = []
    ks_stats = []
    ks_below = 0
    for t in range(trials):
        seed_d = _cell_seed(seed_root, n, 2 * t)
        seed_dp = _cell_seed(seed_root, n, 2 * t + 1)
        sd = simulate_fp(d, n, seed_d)
        sdp = simulate_fp(dp, n, seed_dp)
        low_counts.append(int(np.sum(sd.y <= eps)))
        ya = sd.y[sd.y > eps]
        yb = sdp.y[sdp.y > eps]
        if ya.size and yb.size:
            stat = float(ks_2samp(ya, yb).statistic)
            thresh = 1.358 * np.sqrt((ya.size + yb.size) / (ya.size * yb.size))
            ks_stats.append(stat)
            if stat < thresh:
                ks_below += 1
    return {
        "kolmogorov_f1_f1p": sep_k,
        "wasserstein1_f1_f1p": sep_w,
        "analytic_low_rate": analytic_rate,
        "scale_low_rate": scale_rate,
        "expected_low_count": analytic_rate * n,
        "mean_low_count": float(np.mean(low_counts)),
        "low_counts": low_counts,
        "ks_stats": ks_stats,
        "ks_below_threshold": ks_below,
        "trials": trials,
        "dkw_band": dkw_band(n, 0.05),
    }
