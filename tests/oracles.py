"""Oracles and draws that more than one test module uses, one copy each.

Its name does not start with ``test_``, so pytest imports it only from
the test modules that need it and collects nothing here.
"""

import itertools

import numpy as np

from sparsemix.lasso import objective
from sparsemix.model import MixtureParams


def random_params(rng, K, n):
    """Weights in general position, dense normal betas of scale 0.5 and variances in [0.5, 2]."""
    w = rng.uniform(0.2, 1.0, size=K)
    return MixtureParams(
        weights=w / w.sum(),
        betas=0.5 * rng.normal(size=(K, n)),
        variances=rng.uniform(0.5, 2.0, size=K),
    )


def enumerate_sign_patterns(problem):
    """Exhaustive minimization over zero/sign patterns.

    For each pattern, the coordinates marked zero are fixed at 0 and the
    rest solve the smooth stationarity system with the penalty replaced
    by its linear form lam * sign; every candidate is scored with the
    true objective and the best value wins.  Independent of the
    coordinate-descent path.
    """
    D, m = problem.design, problem.target
    c, lam, n = problem.smooth_scale, problem.lam, problem.n
    best = objective(problem, np.zeros(n))
    for pattern in itertools.product((-1, 0, 1), repeat=n):
        support = [j for j, s in enumerate(pattern) if s != 0]
        if not support:
            continue
        Ds = D[:, support]
        signs = np.array([pattern[j] for j in support], dtype=float)
        # stationarity: c * Ds^T Ds b = c * Ds^T m - lam * signs
        A = c * (Ds.T @ Ds)
        rhs = c * (Ds.T @ m) - lam * signs
        b, *_ = np.linalg.lstsq(A, rhs, rcond=None)
        beta = np.zeros(n)
        beta[support] = b
        val = objective(problem, beta)
        if np.isfinite(val) and val < best:
            best = val
    return best


def numpy_stationarity_violation(grad, beta, lam):
    """Max coordinate violation of 0 in grad + lam * subdiff(|.|)."""
    on = np.abs(grad + lam * np.sign(beta))
    off = np.maximum(np.abs(grad) - lam, 0.0)
    return float(np.max(np.where(beta != 0, on, off)))
