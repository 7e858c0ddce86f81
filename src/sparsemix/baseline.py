"""Standard maximum-likelihood EM for spherical Gaussian mixtures.

The comparison method for the benchmark harness: covariances are
sigma_k^2 * I and means are free vectors.  Initialization (means at K
random data points), variance floor, restart policy and stopping rule
all mirror the sparse driver so benchmark gaps isolate the estimator
difference rather than harness differences.

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
)
from .sparse_em import (
    EMPTY_FRACTION,
    MAX_RESEEDS,
    choose_init_indices,
    default_sigma2,
    restart_seed_seq,
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
    diff = Y.data[:, None, :] - means[None, :, :]
    sq = np.einsum("nkd,nkd->nk", diff, diff)
    variances = np.maximum(floor, (tau * sq).sum(axis=0) / (d * s))
    return SphericalParams(weights=s / n, means=means, variances=variances)


def _reseed(params: SphericalParams, tau: np.ndarray, k: int, Y: SampleSet, sigma2_default: float) -> SphericalParams:
    j = int(np.argmin(tau.max(axis=1)))
    means = params.means.copy()
    means[k] = Y.data[j]
    variances = params.variances.copy()
    variances[k] = sigma2_default
    weights = params.weights.copy()
    weights[k] = max(weights[k], 1.0 / (2 * params.K))
    weights /= weights.sum()
    return SphericalParams(weights=weights, means=means, variances=variances)


def _fit_once(Y: SampleSet, params: SphericalParams, hp: Hyperparams, restart_index: int) -> BaselineReport:
    floor = hp.resolve_floor(Y)
    sigma2_init = default_sigma2(Y, params.K, floor)
    trace: list[float] = []
    reseed_events: list = []
    reseed_counts = np.zeros(params.K, dtype=int)
    converged = False
    diagnostic = None
    iterations = 0
    logp, lse = _evaluate(params, Y)

    for it in range(hp.max_cycles):
        tau = np.exp(logp - lse[:, None])
        try:
            params = _m_step(tau, Y, floor)
        except EmptyClusterError as err:
            k = err.component
            reseed_counts[k] += 1
            reseed_events.append((it, k))
            if reseed_counts[k] > MAX_RESEEDS:
                diagnostic = f"component {k} stayed empty after {MAX_RESEEDS} re-seeds"
                trace.append(float(np.sum(lse)))
                break
            params = _reseed(params, tau, k, Y, sigma2_init)
        logp, lse = _evaluate(params, Y)
        trace.append(float(np.sum(lse)))
        iterations = it + 1
        if it >= 1 and abs(trace[-1] - trace[-2]) <= hp.tol * (1.0 + abs(trace[-1])):
            converged = True
            break

    tau = np.exp(logp - lse[:, None])
    return BaselineReport(
        params=params,
        loglik_trace=np.asarray(trace),
        iterations=iterations,
        converged=converged,
        assignments=np.argmax(tau, axis=1),
        restart_index=restart_index,
        reseed_events=reseed_events,
        diagnostic=diagnostic,
    )


def baseline_fit(Y: SampleSet, K: int, hp: Hyperparams, seed=None) -> BaselineReport:
    """Classic EM with restarts; mirrors the sparse driver's harness.

    Restart r initializes the means at the same K random data indices
    the sparse driver would pick for the same seed, so paired
    comparisons start from equivalent configurations.
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    if Y.n < K:
        raise ValueError("need at least K data points")
    if seed is None:
        seed = hp.seed
    floor = hp.resolve_floor(Y)
    sigma2 = default_sigma2(Y, K, floor)
    best = None
    for r in range(hp.restarts):
        idx = choose_init_indices(np.random.default_rng(restart_seed_seq(seed, r)), Y.n, K)
        params0 = SphericalParams(
            weights=np.full(K, 1.0 / K),
            means=Y.data[idx],
            variances=np.full(K, sigma2),
        )
        report = _fit_once(Y, params0, hp, restart_index=r)
        if best is None or report.loglik_trace[-1] > best.loglik_trace[-1]:
            best = report
    return best
