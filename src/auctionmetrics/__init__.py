"""Auction simulation and nonparametric estimation of bid and value CDFs."""

from .auction_sim import (
    AuctionModel,
    InverseBidProfile,
    SampleSet,
    lower_bound_fixture,
    make_fp_partial_oracle,
    make_sp_partial_oracle,
    simulate_fp,
    simulate_sp,
    solve_asymmetric_equilibrium,
)
from .dist_core import (
    LINEAR,
    STEP,
    BoundedDensityModel,
    PiecewiseCdf,
    StepFunction,
    dkw_band,
    empirical_cdf,
    kolmogorov,
    levy,
    sub_cdf,
    uniform_cdf,
    wasserstein1,
)
from .errors import AuctionMetricsError, EstimationError, ValidationError
from .fp_estimator import (
    estimate_bid_cdf_effective,
    estimate_bid_cdf_full,
    estimate_density,
    fp_partial_estimate,
    full_support_params,
)
from .fp_value import (
    best_response,
    estimate_value_cdf_effective,
)
from .harness import (
    ExperimentConfig,
    ExperimentReport,
    run_convergence,
    run_lower_bound_experiment,
)
from .sp_estimator import SpParams, estimate_sp, sp_partial_estimate

__version__ = "0.1.0"

__all__ = [
    "AuctionMetricsError",
    "AuctionModel",
    "BoundedDensityModel",
    "EstimationError",
    "ExperimentConfig",
    "ExperimentReport",
    "InverseBidProfile",
    "LINEAR",
    "PiecewiseCdf",
    "STEP",
    "SampleSet",
    "SpParams",
    "StepFunction",
    "ValidationError",
    "best_response",
    "dkw_band",
    "empirical_cdf",
    "estimate_bid_cdf_effective",
    "estimate_bid_cdf_full",
    "estimate_density",
    "estimate_sp",
    "estimate_value_cdf_effective",
    "fp_partial_estimate",
    "full_support_params",
    "kolmogorov",
    "levy",
    "lower_bound_fixture",
    "make_fp_partial_oracle",
    "make_sp_partial_oracle",
    "run_convergence",
    "run_lower_bound_experiment",
    "simulate_fp",
    "simulate_sp",
    "solve_asymmetric_equilibrium",
    "sp_partial_estimate",
    "sub_cdf",
    "uniform_cdf",
    "wasserstein1",
]
