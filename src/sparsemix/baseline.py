"""Standard maximum-likelihood EM for spherical Gaussian mixtures.

The comparison method for the benchmark harness: covariances are
sigma_k^2 * I and means are free vectors.  The fit is the sparse
driver's harness with a one-step cycle, the full M-step, so
initialization, variance floor, re-seeding, restarts and stopping rule
are the same code and benchmark gaps isolate the estimator difference.

As in the sparse driver, one evaluation of the log-joint matrix per
iteration gives both the log likelihood after the M-step and the
responsibilities of the next E-step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (
    EmptyClusterError,
    Hyperparams,
    SampleSet,
    log_joint,
    spherical_log_density_matrix,
    squared_distances,
)
from .sparse_em import (
    EMPTY_FRACTION,
    _reseed_weights,
    best_restart,
    choose_init_indices,
    default_sigma2,
    em_loop,
)

@dataclass(frozen=True)
class SphericalParams:
    """Weights, explicit means (K, d) and per-component variances (K,)."""

    weights: np.ndarray
    means: np.ndarray
    variances: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        m = np.asarray(self.means, dtype=float)
        v = np.asarray(self.variances, dtype=float)
        if w.ndim != 1 or m.ndim != 2 or m.shape[0] != w.size or v.shape != w.shape:
            raise ValueError("inconsistent parameter shapes")
        if np.any(w < 0) or abs(w.sum() - 1.0) > 1e-12:
            raise ValueError("weights must be non-negative and sum to 1")
        if np.any(v <= 0):
            raise ValueError("variances must be positive")
        for name, arr in (("weights", w), ("means", m), ("variances", v)):
            arr = arr.copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def K(self) -> int:
        return self.weights.size


@dataclass
class BaselineReport:
    """Fit outcome; same conventions as the sparse driver's report."""

    params: SphericalParams
    loglik_trace: np.ndarray
    iterations: int
    converged: bool
    assignments: np.ndarray
    restart_index: int
    reseed_events: list
    diagnostic: str | None = None


def _evaluate(params: SphericalParams, Y: SampleSet) -> tuple[np.ndarray, np.ndarray]:
    """Log-joint matrix at ``params`` and its row log-normalizers."""
    return log_joint(spherical_log_density_matrix(Y.data, params.means, params.variances), params.weights)


def spherical_log_likelihood(params: SphericalParams, Y: SampleSet) -> float:
    return float(np.sum(_evaluate(params, Y)[1]))


def spherical_e_step(params: SphericalParams, Y: SampleSet) -> np.ndarray:
    logp, lse = _evaluate(params, Y)
    return np.exp(logp - lse[:, None])


def _m_step(tau: np.ndarray, Y: SampleSet, floor: float) -> SphericalParams:
    """Closed-form full update; raises on empty components."""
    n, d = Y.data.shape
    s = tau.sum(axis=0)
    if np.any(s <= EMPTY_FRACTION * n):
        k = int(np.argmin(s))
        raise EmptyClusterError(f"component {k} has responsibility mass {s[k]:.3e}", component=k)
    means = (tau.T @ Y.data) / s[:, None]
    sq = squared_distances(Y.data, means)
    variances = np.maximum(floor, (tau * sq).sum(axis=0) / (d * s))
    return SphericalParams(weights=s / n, means=means, variances=variances)


def _reseed(params: SphericalParams, tau: np.ndarray, k: int, Y: SampleSet, sigma2_default: float) -> SphericalParams:
    """Move component k onto the least committed data point."""
    j, weights = _reseed_weights(params, tau, k)
    means = params.means.copy()
    means[k] = Y.data[j]
    variances = params.variances.copy()
    variances[k] = sigma2_default
    return SphericalParams(weights=weights, means=means, variances=variances)


def _step(params: SphericalParams, tau: np.ndarray, _tag, Y: SampleSet, hp: Hyperparams) -> SphericalParams:
    """The whole cycle of classic EM: one full M-step."""
    return _m_step(tau, Y, hp.resolve_floor(Y))


def _fit_once(Y: SampleSet, params: SphericalParams, hp: Hyperparams, restart_index: int) -> BaselineReport:
    params, trace, iterations, converged, tau, reseed_events, diagnostic = em_loop(
        Y, params, hp, (None,), _step, _evaluate, _reseed
    )
    return BaselineReport(
        params=params,
        loglik_trace=trace,
        iterations=iterations,
        converged=converged,
        assignments=np.argmax(tau, axis=1),
        restart_index=restart_index,
        reseed_events=[(it, k) for it, _, k in reseed_events],
        diagnostic=diagnostic,
    )


def _mean_init(Y: SampleSet, K: int, floor: float, rng: np.random.Generator) -> SphericalParams:
    """Means at the K data points that the sparse ``indicator_init`` indicates."""
    return SphericalParams(
        weights=np.full(K, 1.0 / K),
        means=Y.data[choose_init_indices(rng, Y.n, K)],
        variances=np.full(K, default_sigma2(Y, K, floor)),
    )


def baseline_fit(Y: SampleSet, K: int, hp: Hyperparams, seed=None) -> BaselineReport:
    """Classic EM with restarts, in the sparse driver's harness.

    Restart r initializes the means at the same K random data indices
    the sparse driver would pick for the same seed, so paired
    comparisons start from equivalent configurations.
    """
    return best_restart(Y, K, hp, seed, _mean_init, _fit_once, "loglik_trace")
