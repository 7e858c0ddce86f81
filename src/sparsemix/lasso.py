"""Weighted l1-penalized least squares via cyclic coordinate descent.

The mean update of one mixture component reduces to

    minimize  F(beta) = (s / (2 sigma2)) * ||m - D beta||^2 + lam * ||beta||_1

over beta in R^n, where D is the d x n design (the centered data as
columns), m the responsibility-weighted cluster mean, s the total
responsibility mass and sigma2 the component variance.  Coordinate
updates are exact soft-threshold steps, so F never increases; the Gram
matrix and column norms are computed once per sample
(:attr:`sparsemix.model.SampleSet.gram`) and shared by every subproblem
on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import EmptyClusterError, Gram, NumericalError

_SCALE_EPS = 1e-12


@dataclass(frozen=True)
class WeightedLassoProblem:
    """One component's penalized least-squares subproblem.

    ``gram`` carries the design's Gram constants; when absent they are
    computed from ``design``.
    """

    design: np.ndarray      # (d, n)
    target: np.ndarray      # (d,)
    total_weight: float     # s > 0
    sigma2: float           # > 0
    lam: float              # >= 0
    gram: Gram | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        D = np.asarray(self.design, dtype=float)
        m = np.asarray(self.target, dtype=float)
        if D.ndim != 2:
            raise ValueError("design must be a 2-d array (d, n)")
        if m.shape != (D.shape[0],):
            raise ValueError("target must have shape (d,)")
        if not (np.isfinite(D).all() and np.isfinite(m).all()):
            raise ValueError("design/target contain non-finite entries")
        if not math.isfinite(self.total_weight):
            raise ValueError("total_weight must be finite")
        if not (self.total_weight > 0):
            raise EmptyClusterError("total_weight must be positive")
        if not (np.isfinite(self.sigma2) and self.sigma2 > 0):
            raise ValueError("sigma2 must be positive and finite")
        if not (self.lam >= 0):
            raise ValueError("lam must be >= 0")
        gram = Gram.of(D) if self.gram is None else self.gram
        if gram.matrix.shape != (D.shape[1], D.shape[1]):
            raise ValueError("gram must have shape (n, n)")
        object.__setattr__(self, "design", D)
        object.__setattr__(self, "target", m)
        object.__setattr__(self, "gram", gram)

    @classmethod
    def _trusted(cls, design: np.ndarray, target: np.ndarray, total_weight: float, sigma2: float, lam: float,
                 gram: Gram) -> "WeightedLassoProblem":
        """Build without the array checks, for a subproblem of a fit.

        The EM checks what ``__post_init__`` would: the design and its
        Gram belong to a validated sample, the target is a weighted mean
        of it under finite responsibilities, the weight exceeds the
        empty-cluster threshold and the penalty weight is >= 0.  Only the
        variance, which can overflow at extreme coordinate scales, is
        still checked here.
        """
        if not (math.isfinite(sigma2) and sigma2 > 0):
            raise ValueError("sigma2 must be positive and finite")
        self = object.__new__(cls)
        for name, value in (("design", design), ("target", target), ("total_weight", total_weight),
                            ("sigma2", sigma2), ("lam", lam), ("gram", gram)):
            object.__setattr__(self, name, value)
        return self

    @property
    def n(self) -> int:
        return self.design.shape[1]

    @property
    def smooth_scale(self) -> float:
        """Curvature multiplier s / sigma2 of the quadratic part."""
        return self.total_weight / self.sigma2


@dataclass
class LassoSolution:
    beta: np.ndarray
    kkt_residual: float
    iterations: int
    converged: bool


def soft_threshold(z, gamma):
    """sign(z) * max(|z| - gamma, 0); gamma must be >= 0."""
    return np.sign(z) * np.maximum(np.abs(z) - gamma, 0.0)


def objective(problem: WeightedLassoProblem, beta: np.ndarray) -> float:
    """Value of F at ``beta``."""
    resid = problem.target - problem.design @ beta
    return float(
        0.5 * problem.smooth_scale * (resid @ resid)
        + problem.lam * np.sum(np.abs(beta))
    )


def _stationarity_violation(grad: np.ndarray, beta: np.ndarray, lam: float) -> float:
    """Max coordinate violation of 0 in grad + lam * subdiff(|.|).

    The coordinate terms of :func:`kkt_residual`, evaluated on Python
    floats like the coordinate sweep; a NaN coordinate makes the result
    NaN, as numpy's ``max`` would.
    """
    worst = 0.0
    for g, b in zip(grad.tolist(), beta.tolist()):
        if b != 0:  # NaN included, whose sign is NaN
            v = abs(g + lam * (1.0 if b > 0 else -1.0 if b < 0 else b))
        else:
            v = abs(g) - lam
        if v > worst:
            worst = v
        elif v != v:
            return v
    return worst


def kkt_residual(problem: WeightedLassoProblem, beta: np.ndarray) -> float:
    """Stationarity violation of F at ``beta``.

    With g the gradient of the smooth part, returns the max over
    coordinates of |g_j + lam sign(beta_j)| where beta_j != 0 and
    max(|g_j| - lam, 0) where beta_j = 0.
    """
    b = np.asarray(beta, dtype=float)
    grad = -problem.smooth_scale * (problem.design.T @ (problem.target - problem.design @ b))
    return _stationarity_violation(grad, b, problem.lam)


def default_tolerance(problem: WeightedLassoProblem) -> float:
    """Scale-aware stationarity tolerance, 1e-8 of the gradient scale.

    The scale is (s / sigma2) * ||m|| * max column norm, which tracks the
    size of the gradient at the origin, so behavior is uniform across
    data dilations.
    """
    scale = problem.smooth_scale * float(np.linalg.norm(problem.target)) * problem.gram.col_max
    return 1e-8 * max(scale, _SCALE_EPS)


def solve_weighted_lasso(
    problem: WeightedLassoProblem,
    beta_init: np.ndarray,
    max_iters: int | None = None,
    tol: float | None = None,
) -> LassoSolution:
    """Cyclic coordinate descent on F, warm-started from ``beta_init``.

    Stops once the stationarity violation drops to ``tol`` (default:
    :func:`default_tolerance`) or after ``max_iters`` full sweeps
    (default 10 n).  Coordinates whose design column is zero are forced
    to 0.  F is non-increasing across sweeps by exact per-coordinate
    minimization.
    """
    beta = np.array(beta_init, dtype=float)
    if beta.shape != (problem.n,):
        raise ValueError("beta_init must have shape (n,)")
    if not np.all(np.isfinite(beta)):
        raise ValueError("beta_init contains non-finite entries")

    D = problem.design
    lam = problem.lam
    c = problem.smooth_scale
    n = problem.n
    if max_iters is None:
        max_iters = 10 * n
    if tol is None:
        tol = default_tolerance(problem)

    g = problem.gram
    gram = g.matrix
    q = D.T @ problem.target
    for j in g.dead:
        beta[j] = 0.0
    gb = gram @ beta

    def value(b, gb_b):
        # objective up to the constant (c/2) ||m||^2
        return 0.5 * c * (b @ gb_b) - c * (q @ b) + lam * np.sum(np.abs(b))

    def refine(b, gb_b, current_residual):
        # Near-duplicate design columns make plain coordinate descent
        # shuttle mass between them at a slow, sometimes non-geometric
        # rate, while the true solution keeps at most one column per
        # near-duplicate direction active.  When the support has
        # stalled, solve the stationarity system exactly on sub-supports
        # of the stalled support (which contains the optimal one: a
        # needed outside column would be a KKT violation coordinate
        # descent would have activated).  A candidate is accepted only
        # with a consistent sign pattern, a full KKT residual better
        # than the current iterate and no objective increase, which
        # preserves the monotonicity contract.  The objective is
        # evaluated only for a candidate that would become the best.
        support = np.flatnonzero(b)
        if support.size == 0 or 2 ** support.size > 512:
            return None
        base_value = value(b, gb_b)
        best = None
        for mask in range(1, 2 ** support.size):
            sub_idx = support[[i for i in range(support.size) if mask >> i & 1]]
            signs = np.sign(b[sub_idx])
            sub = gram[np.ix_(sub_idx, sub_idx)]
            rhs = q[sub_idx] - (lam / c) * signs
            x, *_ = np.linalg.lstsq(sub, rhs, rcond=None)
            if not np.all(np.isfinite(x)) or np.any(np.sign(x) * signs < 0):
                continue
            cand = np.zeros_like(b)
            cand[sub_idx] = x
            gb_cand = gram @ cand
            resid = _stationarity_violation(c * (gb_cand - q), cand, lam)
            if resid < current_residual and (best is None or resid < best[2]):
                if value(cand, gb_cand) <= base_value + 1e-12 * (1.0 + abs(base_value)):
                    best = (cand, gb_cand, resid)
        return best

    sweeps = 0
    grad = c * (gb - q)
    residual = _stationarity_violation(grad, beta, lam)
    converged = residual <= tol
    if converged or max_iters < 1:
        return LassoSolution(beta=beta, kkt_residual=residual, iterations=sweeps, converged=converged)

    # The sweeps run on Python floats: beta as a list, the soft-threshold
    # step written out.  It reproduces sign(z) * max(|z| - lam, 0) bit
    # for bit, signed zeros and NaN included; gb stays a numpy vector.
    live, col2, columns = g.live, g.diag, g.columns
    curvature = [c * x for x in col2]
    if any(curvature[j] == 0.0 for j in live):
        # c * ||D_j||^2 underflowed: the coordinate map divides by zero
        raise NumericalError("coordinate descent produced non-finite values")
    qs = q.tolist()
    b = beta.tolist()
    prev_support = np.flatnonzero(beta)
    while not converged and sweeps < max_iters:
        changed = False
        for j in live:
            bj = b[j]
            z = c * (qs[j] - gb.item(j) + col2[j] * bj)
            shrunk = abs(z) - lam
            if shrunk > 0.0:
                new = (shrunk if z > 0.0 else -shrunk) / curvature[j]
            elif shrunk <= 0.0:
                new = (-0.0 if z < 0.0 else 0.0) / curvature[j]
            else:
                new = shrunk
            if new != bj:
                gb += (new - bj) * columns[j]
                b[j] = new
                changed = True
        sweeps += 1
        beta = np.array(b)
        grad = c * (gb - q)
        if not np.isfinite(grad).all():
            raise NumericalError("coordinate descent produced non-finite values")
        residual = _stationarity_violation(grad, beta, lam)
        converged = residual <= tol
        support = np.flatnonzero(beta)
        if not converged and np.array_equal(support, prev_support):
            refined = refine(beta, gb, residual)
            if refined is not None:
                beta, gb, residual = refined
                b = beta.tolist()
                converged = residual <= tol
                support = np.flatnonzero(beta)
        prev_support = support
        if not changed and not converged:
            # float-precision fixed point of the coordinate map; further
            # sweeps cannot move, so stop even when tol is unreachable
            break

    return LassoSolution(beta=beta, kkt_residual=residual, iterations=sweeps, converged=converged)
