"""Experiment orchestration: convergence sweeps and lower-bound experiments.

A sweep simulates, estimates, and scores one cell per (sample size, seed);
cells are isolated (an estimator failure is recorded, not fatal) and each
cell derives its own random substream from (seed root, n, seed index), so
reports are byte-identical regardless of the worker-pool size.

``AUCTIONMETRICS_THREADS`` is the number of threads one sweep may keep busy
with its cells. Unset, it is the number of CPUs in the process's affinity
mask, at most 8.
"""

from __future__ import annotations

import functools
import numbers
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import fp_estimator, fp_value, sp_estimator
from .auction_sim import (FORMAT_FP, FORMAT_SP, AuctionModel, lower_bound_fixture,
                          make_fp_partial_oracle, make_sp_partial_oracle, simulate_fp,
                          simulate_sp)
from .dist_core import dkw_band, empirical_cdf, kolmogorov, levy, wasserstein1
from .errors import ValidationError, check_number, check_window
from .io import config_hash

METRICS = ("kolmogorov", "levy", "wasserstein1")

PROBE_FP, PROBE_SP = "fp-probe", "sp-probe"
BID, VALUE = "bid", "value"


@dataclass(frozen=True)
class Estimator:
    """A registry entry: it ``observes`` a log format (``FORMAT_FP``/``FORMAT_SP``)
    or a probe oracle (``PROBE_FP``/``PROBE_SP``), takes every ``required`` and
    any ``optional`` argument key, and ``run(observation, args, seed)`` returns
    (CDF estimates, diagnostics), scored against ``truth`` (the BID or VALUE CDFs).
    Densities are no kind: ``estimate-fp-density`` derives them from a CDF bundle.
    Each run looks its estimator up on the estimator's module when called."""

    observes: str
    required: tuple
    optional: tuple
    run: object
    truth: str = BID


# Argument keys are the estimators' parameter names.
ESTIMATORS = {
    "fp-effective": Estimator(
        FORMAT_FP, ("p", "gamma"), ("eps",),
        lambda s, a, seed: fp_estimator.estimate_bid_cdf_effective(s, **a)),
    "fp-full": Estimator(
        FORMAT_FP, ("lambda", "eps"), (),
        lambda s, a, seed: fp_estimator.estimate_bid_cdf_full(s, a["lambda"], a["eps"])),
    "fp-value": Estimator(
        FORMAT_FP, ("p", "gamma", "eps", "zeta"), ("lipschitz",),
        lambda s, a, seed: fp_value.estimate_value_cdf_effective(s, **a), VALUE),
    "sp": Estimator(
        FORMAT_SP, ("alpha", "eta", "eps"), (),
        lambda s, a, seed: sp_estimator.estimate_sp(s, **a)),
    "fp-partial": Estimator(
        PROBE_FP, ("p", "gamma", "eps"), ("lipschitz",),
        lambda o, a, seed: fp_estimator.fp_partial_estimate(o, seed=seed, **a)),
    "sp-partial": Estimator(
        PROBE_SP, ("p", "gamma", "eps"), ("lipschitz",),
        lambda o, a, seed: sp_estimator.sp_partial_estimate(o, seed=seed, **a)),
}


def _check_keys(owner, given, required, types):
    """ValidationError naming ``owner`` and the key unless ``given`` holds every
    ``required`` key and only keys of ``types`` (key -> type), each of its type."""
    for key in [*required, *given]:
        if key not in types:
            raise ValidationError(f"{owner} takes no key {key!r}")
        if key not in given:
            raise ValidationError(f"{owner} needs key {key!r}")
        if not isinstance(given[key], types[key]) or isinstance(given[key], bool):
            raise ValidationError(f"{owner} key {key!r} must be {types[key].__name__}, "
                                  f"not {type(given[key]).__name__}")


def check_estimator_args(kind, args):
    """The registry entry of ``kind``, once ``args`` fits its argument schema:
    every key is a finite real number."""
    if kind not in ESTIMATORS:
        raise ValidationError(f"unknown estimator kind {kind!r}")
    entry = ESTIMATORS[kind]
    owner = f"estimator {kind!r}"
    _check_keys(owner, args, entry.required,
                dict.fromkeys(entry.required + entry.optional, numbers.Real))
    for key, value in args.items():
        check_number(f"{owner} key {key!r}", value)
    return entry


# sweep config keys and their JSON types; the first four are required
_CONFIG_TYPES = {"model": dict, "estimator": str, "n_schedule": list, "seeds": int,
                 "metric": str, "support": list, "seed_root": int, "estimator_args": dict}


@dataclass(eq=False)
class ExperimentConfig:
    """One sweep: a model, an estimator kind, an n schedule, and a metric,
    checked against ``ESTIMATORS`` before any cell runs."""

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
        entry = check_estimator_args(self.estimator, self.estimator_args)
        if self.metric not in METRICS:
            raise ValidationError(f"unknown metric {self.metric!r}")
        if entry.truth == VALUE and not self.model.value_dists:
            raise ValidationError(f"estimator {self.estimator!r} is scored against "
                                  "value CDFs, and the model has no value_dists")
        ns = list(self.n_schedule)
        if not ns or not all(isinstance(n, numbers.Integral) and not isinstance(n, bool)
                             and n >= 1 for n in ns) \
                or any(a >= b for a, b in zip(ns, ns[1:])):
            raise ValidationError(f"n schedule {ns} must be strictly ascending integers >= 1")
        check_number("seed_root", self.seed_root, 0, integer=True)
        check_number("seeds", self.seeds, 1, integer=True)
        lo, hi = check_window(check_number("support_lo", self.support_lo),
                              check_number("support_hi", self.support_hi), "support")
        if self.metric == "levy" and (lo, hi) != (0.0, 1.0):
            raise ValidationError(f"metric 'levy' scores on [0, 1], not on [{lo}, {hi}]")

    @functools.cached_property
    def truths(self):
        """Each bidder's truth CDF: its value CDF table for an estimator scored
        on values, else its bid CDF."""
        model = self.model
        if ESTIMATORS[self.estimator].truth == VALUE:
            return [d.to_cdf() for d in model.value_dists]
        return [model.bid_cdf(i) for i in range(1, model.k + 1)]

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

    @classmethod
    def from_dict(cls, raw):
        """The inverse of ``to_dict``: a missing, unknown or ill-typed key
        raises ValidationError."""
        if not isinstance(raw, dict):
            raise ValidationError("a sweep config must be a JSON object")
        _check_keys("sweep config", raw, list(_CONFIG_TYPES)[:4], _CONFIG_TYPES)
        support = raw.get("support", [0.0, 1.0])
        if len(support) != 2:
            raise ValidationError("sweep config key 'support' must be a pair of numbers")
        try:
            model = AuctionModel.from_dict(raw["model"])
        except (KeyError, TypeError, AttributeError) as exc:
            raise ValidationError(f"sweep config key 'model' is not a model: {exc}") from exc
        return cls(model=model, support_lo=support[0], support_hi=support[1],
                   **{key: raw[key] for key in raw if key not in ("model", "support")})


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


def _cell_seed(seed_root, n, seed_index):
    return int(np.random.SeedSequence([seed_root, int(n), seed_index]).generate_state(1)[0])


def _observe(observes, model, n, seed):
    if observes in (FORMAT_FP, FORMAT_SP):
        return (simulate_fp if observes == FORMAT_FP else simulate_sp)(model, n, seed)
    return (make_fp_partial_oracle if observes == PROBE_FP else make_sp_partial_oracle)(model)


def _error(config, est, F):
    """A CDF estimate against its truth ``F`` under the config's metric."""
    if config.metric == "levy":
        return levy(est, F)
    lo, hi = config.support_lo, config.support_hi
    return (kolmogorov if config.metric == "kolmogorov" else wasserstein1)(est, F, lo, hi)


def _run_cell(config, n, seed_index):
    """Observe, estimate and score one (n, seed) cell."""
    entry = ESTIMATORS[config.estimator]
    seed = _cell_seed(config.seed_root, n, seed_index)
    observation = _observe(entry.observes, config.model, n, seed)
    estimates, diagnostics = entry.run(observation, config.estimator_args, seed)
    rows = [{"n": int(n), "seed": seed_index, "bidder": i,
             "error": float(_error(config, est, F))}
            for i, (est, F) in enumerate(zip(estimates, config.truths, strict=True), start=1)]
    return rows, diagnostics


def _max_workers():
    """The thread count ``AUCTIONMETRICS_THREADS`` sets, a positive integer."""
    env = os.environ.get("AUCTIONMETRICS_THREADS")
    if not env:
        try:
            cpus = len(os.sched_getaffinity(0))
        except AttributeError:  # no affinity mask on this platform
            cpus = os.cpu_count() or 1
        return min(8, cpus)
    try:
        threads = int(env)
    except ValueError as exc:
        raise ValidationError(f"AUCTIONMETRICS_THREADS={env!r} is not an integer") from exc
    return check_number("AUCTIONMETRICS_THREADS", threads, 1)


def run_convergence(config):
    """Simulate -> estimate -> score each (n, seed) cell of the sweep.

    The truth CDFs are built once, before any cell. Cells are handed to the
    pool largest n first, so that the sweep does not end on its slowest cells;
    rows and diagnostics keep the (n, seed) order. A cell's ValidationError
    ends the sweep, as on ``estimate-*``; other errors stay in its diagnostics.
    """
    cells = [(n, s) for n in config.n_schedule for s in range(config.seeds)]
    largest_first = sorted(cells, key=lambda cell: -cell[0])
    config.truths  # built once, here, not by the first cells side by side

    def work(cell):
        try:
            cell_rows, diag = _run_cell(config, *cell)
            return cell_rows, {"diagnostics": diag}
        except ValidationError:
            raise
        except Exception as exc:  # cell isolation: record, don't abort
            return [], {"error": f"{type(exc).__name__}: {exc}"}

    rows, diags = [], []
    with ThreadPoolExecutor(max_workers=_max_workers()) as pool:
        outcomes = dict(zip(largest_first, pool.map(work, largest_first)))
    for n, s in cells:
        cell_rows, outcome = outcomes[n, s]
        rows.extend(cell_rows)
        diags.append({"n": int(n), "seed": s, **outcome})

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
    check_number("trials", trials, 1, integer=True)
    check_number("n", n, 1, integer=True)
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
            stat = kolmogorov(empirical_cdf(ya), empirical_cdf(yb))
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
