"""Robust spherical Gaussian mixture estimation for very small samples.

Cluster means are constrained to sparse combinations of the observations
themselves (mu_k = Y beta_k) and fitted by a space-alternating EM whose
mean updates are l1-penalized weighted least squares.  A standard
spherical EM baseline and a reproducible Monte Carlo benchmark harness
are included.
"""

from .baseline import BaselineReport, SphericalParams, baseline_fit, spherical_log_likelihood
from .evaluate import McResult, ReplicateRecord, best_permutation_correct, run_mc_cell
from .lasso import (
    LassoSolution,
    WeightedLassoProblem,
    kkt_residual,
    solve_weighted_lasso,
)
from .model import (
    EmptyClusterError,
    Hyperparams,
    MixtureParams,
    NumericalError,
    SampleSet,
    default_variance_floor,
    kullback_penalty,
    penalized_value,
    q_function,
    self_regression_log_likelihood,
)
from .simulate import LabeledSample, ScenarioConfig, gen_centers, gen_sample, read_sample, write_sample
from .sparse_em import (
    FitReport,
    e_step,
    run,
    stationarity_report,
    update_beta,
    update_sigma,
    update_weights,
)

__version__ = "0.1.0"

__all__ = [
    "BaselineReport",
    "EmptyClusterError",
    "FitReport",
    "Hyperparams",
    "LabeledSample",
    "LassoSolution",
    "McResult",
    "MixtureParams",
    "NumericalError",
    "ReplicateRecord",
    "SampleSet",
    "ScenarioConfig",
    "SphericalParams",
    "WeightedLassoProblem",
    "baseline_fit",
    "best_permutation_correct",
    "default_variance_floor",
    "e_step",
    "gen_centers",
    "gen_sample",
    "kkt_residual",
    "kullback_penalty",
    "penalized_value",
    "q_function",
    "read_sample",
    "run",
    "run_mc_cell",
    "self_regression_log_likelihood",
    "solve_weighted_lasso",
    "spherical_log_likelihood",
    "stationarity_report",
    "update_beta",
    "update_sigma",
    "update_weights",
    "write_sample",
    "__version__",
]
