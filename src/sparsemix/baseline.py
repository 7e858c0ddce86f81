"""Standard maximum-likelihood EM for spherical Gaussian mixtures.

The comparison method for the benchmark harness: covariances are
sigma_k^2 * I and means are free vectors.  A free mean is the weighted
data mean tau_k^T Y / s_k, which is the self-regression mean Y beta_k
with beta_k = tau_k / s_k, so classic EM is the sparse model at
lambda = 0.  The fit runs on :class:`~sparsemix.model.MixtureParams`
through the sparse estimator's restart driver
(:func:`~sparsemix.sparse_em.best_restart`) with a one-step cycle, the
full M-step, and lambda held at 0: the initialization, the evaluation
of the carried model blocks, the weight and variance formulas, re-seeding,
the stopping rule and the ranking of restarts are the same code, so
benchmark gaps isolate the estimator difference.  The M-step computes
the means, squared distances and l1 norms of its new betas once, in the
carried :class:`~sparsemix.model.Blocks`; the loop's evaluation then
adds the log normalizers, log densities and log weights.  Only the
report types differ: :class:`BaselineReport` carries
:class:`SphericalParams`, whose means are realized once per fit, for
the winning restart.  Its fields are checked by MixtureParams' rule, and
:func:`spherical_e_step`, like ``e_step``, raises NumericalError on
non-finite responsibilities.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .model import (
    Blocks,
    Hyperparams,
    MixtureParams,
    SampleSet,
    freeze_mixture_fields,
    log_joint,
    spherical_log_density_matrix,
)
from .sparse_em import (_responsibilities, best_restart, floored_variances, mass_weights, masses, nonempty_mass,
                        report_fields)


@dataclass(frozen=True, slots=True)
class SphericalParams:
    """Weights, explicit means (K, d) and per-component variances (K,)."""

    weights: np.ndarray
    means: np.ndarray
    variances: np.ndarray

    def __post_init__(self):
        freeze_mixture_fields(self, "means", "d")


@dataclass(slots=True)
class BaselineReport:
    """Fit outcome; same conventions as the sparse driver's report."""

    params: SphericalParams
    loglik_trace: np.ndarray
    iterations: int
    converged: bool
    assignments: np.ndarray
    restart_index: int
    reseed_events: tuple    # (cycle, step index, component); the step index is always 0
    diagnostic: str | None = None


# Evaluations of a reported SphericalParams; a MixtureParams, the fit's
# included, is evaluated through model.Blocks instead.
def _evaluate(params: SphericalParams, Y: SampleSet) -> tuple[np.ndarray, np.ndarray]:
    """Log-joint matrix at ``params`` and its row log-normalizers."""
    return log_joint(spherical_log_density_matrix(Y.data, params.means, params.variances), params.weights)


def spherical_log_likelihood(params: SphericalParams, Y: SampleSet) -> float:
    return float(np.sum(_evaluate(params, Y)[1]))


def spherical_e_step(params: SphericalParams, Y: SampleSet) -> np.ndarray:
    """Responsibilities at ``params``; raises NumericalError where one is non-finite, as ``e_step`` does."""
    return _responsibilities(*_evaluate(params, Y))


def _m_step(blocks: Blocks, tau: np.ndarray, floor: float) -> MixtureParams:
    """Closed-form full update on the sample ``blocks.Y``; raises on empty components.

    Weights s / sum(s), betas (tau / s)^T, so that each mean is its weighted
    data mean, and the floored variances about those means: the sparse
    weight and sigma steps' formulas, for every component at once.  The
    new betas' blocks are computed once, by ``blocks.set_betas``, and
    stay in ``blocks`` for the evaluation that follows the step; an
    empty component raises before ``blocks`` changes.
    """
    n, d = blocks.Y.data.shape
    s = masses(tau)
    nonempty_mass(int(np.argmin(s)), s, n)  # the lightest component is empty if any is
    betas = (tau / s).T
    blocks.set_betas(betas)
    return MixtureParams._trusted(mass_weights(s), betas, floored_variances(tau, blocks.sq, s, d, floor))


def _step(blocks: Blocks, _params, tau: np.ndarray, _tag, Y: SampleSet, hp: Hyperparams) -> MixtureParams:
    """The whole cycle of classic EM: one full M-step."""
    return _m_step(blocks, tau, hp.resolve_floor(Y))


def baseline_fit(Y: SampleSet, K: int, hp: Hyperparams, seed=None) -> BaselineReport:
    """Classic EM with restarts, in the sparse driver's harness, with ``hp.lam`` held at 0.

    Restart r starts from the sparse driver's ``indicator_init`` for the
    same seed, so the means start at the same K random data points and
    paired comparisons start from equivalent configurations.  The report
    and its :class:`SphericalParams` are built once, for the winning
    restart.
    """
    r, out = best_restart(Y, K, replace(hp, lam=0.0), seed, (None,), _step)
    return BaselineReport(
        params=SphericalParams(weights=out.params.weights, means=out.params.means(Y), variances=out.params.variances),
        loglik_trace=out.trace,
        iterations=out.cycles_run,
        **report_fields(r, out),
    )
