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

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg

from .model import EmptyClusterError, Gram, NumericalError, as_finite_array, no_bool

_SCALE_EPS = 1e-12
_EPS = float(np.finfo(float).eps)


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
        for name in ("total_weight", "sigma2", "lam"):
            no_bool(name, getattr(self, name))
        D = np.asarray(self.design, dtype=float)
        m = np.asarray(self.target, dtype=float)
        if D.ndim != 2:
            raise ValueError(f"design must be a 2-d array (d, n), got shape {D.shape}")
        if m.shape != (D.shape[0],):
            raise ValueError(f"target must have shape ({D.shape[0]},), got {m.shape}")
        as_finite_array(D, "design")
        as_finite_array(m, "target")
        if not math.isfinite(self.total_weight):
            raise ValueError(f"total_weight must be finite, got {self.total_weight!r}")
        if not (self.total_weight > 0):
            raise EmptyClusterError(f"total_weight must be positive, got {self.total_weight!r}")
        if not (math.isfinite(self.sigma2) and self.sigma2 > 0):
            raise ValueError(f"sigma2 must be positive and finite, got {self.sigma2!r}")
        if not (self.lam >= 0):
            raise ValueError(f"lam must be >= 0, got {self.lam!r}")
        gram = Gram.of(D) if self.gram is None else self.gram
        if gram.matrix.shape != (D.shape[1],) * 2:
            raise ValueError(f"gram must have shape {(D.shape[1],) * 2}, got {gram.matrix.shape}")
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
            raise ValueError(f"sigma2 must be positive and finite, got {sigma2!r}")
        self = object.__new__(cls)
        vars(self).update(design=design, target=target, total_weight=total_weight, sigma2=sigma2, lam=lam,
                          gram=gram)
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


def _stationarity_violation(grad: np.ndarray, beta: list, lam: float) -> float:
    """Max coordinate violation of 0 in grad + lam * subdiff(|.|).

    The coordinate terms of :func:`kkt_residual`, evaluated on Python
    floats like the coordinate sweep, which holds ``beta`` as a list; a
    NaN coordinate makes the result NaN, as numpy's ``max`` would.
    """
    worst = 0.0
    for g, b in zip(grad.tolist(), beta):
        if b != 0:  # NaN included, whose sign is NaN
            v = abs(g + lam * (1.0 if b > 0 else -1.0 if b < 0 else b))
        else:
            v = abs(g) - lam
        if v > worst:
            worst = v
        elif v != v:
            return v
    return worst


def _stationarity_violations(grads: np.ndarray, betas: np.ndarray, lam: float) -> np.ndarray:
    """:func:`_stationarity_violation` of each row pair of ``grads`` and ``betas``, bit for bit."""
    on = np.abs(grads + lam * np.sign(betas))
    return np.where(betas != 0, on, np.abs(grads) - lam).max(axis=1, initial=0.0)


def kkt_residual(problem: WeightedLassoProblem, beta: np.ndarray) -> float:
    """Stationarity violation of F at ``beta``.

    With g the gradient of the smooth part, returns the max over
    coordinates of |g_j + lam sign(beta_j)| where beta_j != 0 and
    max(|g_j| - lam, 0) where beta_j = 0.
    """
    b = np.asarray(beta, dtype=float)
    grad = -problem.smooth_scale * (problem.design.T @ (problem.target - problem.design @ b))
    return _stationarity_violation(grad, b.tolist(), problem.lam)


def default_tolerance(problem: WeightedLassoProblem) -> float:
    """Scale-aware stationarity tolerance, 1e-8 of the gradient scale.

    The scale is (s / sigma2) * ||m|| * max column norm, which tracks the
    size of the gradient at the origin, so behavior is uniform across
    data dilations.
    """
    t = problem.target
    scale = problem.smooth_scale * math.sqrt(t @ t) * problem.gram.col_max  # t @ t and sqrt, as np.linalg.norm
    return 1e-8 * max(scale, _SCALE_EPS)


def _svd_failed(err, flag):
    raise LinAlgError("SVD did not converge in Linear Least Squares")


def _lstsq_stack(subs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """``np.linalg.lstsq(sub, r, rcond=None)[0]`` of each pair of rows, bit for bit.

    ``subs`` is a (count, t, t) stack of systems and ``rhs`` the (count, t)
    right-hand sides.  One call of the LAPACK gufunc that
    ``np.linalg.lstsq`` wraps solves them all, with that function's
    default cutoff eps * t and its error rule: a failed SVD in any row
    raises ``LinAlgError``.  The gufunc is looked up at call time, as
    ``np.linalg.lstsq`` does.
    """
    rcond = _EPS * subs.shape[-1]
    with np.errstate(call=_svd_failed, invalid="call", over="ignore", divide="ignore", under="ignore"):
        x = _umath_linalg.lstsq(subs, rhs[..., None], rcond, signature="ddd->ddid")[0]
    return x[..., 0]


@functools.cache
def _subsets(size: int) -> tuple:
    """The non-empty subsets of range(size), one group per member count t = 1 .. size.

    Group t - 1 is (masks, members): the bitmasks of the t-member
    subsets in ascending order, and a (count, t) array of their members,
    each row the mask's set bits in ascending order, ready to gather the
    sub-vectors and sub-Grams of many subsets at once.
    """
    masks = np.arange(1, 2**size)
    bits = masks[:, None] >> np.arange(size) & 1
    counts = bits.sum(axis=1)
    return tuple((masks[counts == t].tolist(), np.nonzero(bits[counts == t])[1].reshape(-1, t))
                 for t in range(1, size + 1))


def solve_weighted_lasso(
    problem: WeightedLassoProblem,
    beta_init: np.ndarray,
    max_iters: int | None = None,
    tol: float | None = None,
) -> LassoSolution:
    """Cyclic coordinate descent on F, warm-started from ``beta_init``.

    Stops once the stationarity violation drops to ``tol`` (default:
    :func:`default_tolerance`) or after ``max_iters`` full sweeps
    (default 10 n).  Each time a sweep leaves an unconverged support of
    at most 9 columns unchanged, an exact refinement solves the
    stationarity system on every non-empty sub-support under the
    support's signs, one stacked LAPACK least-squares call per subset
    size; a larger stalled support gets none, so coordinate descent
    runs on to ``max_iters`` unless it converges.  Coordinates whose
    design column is zero are forced to 0.  F is non-increasing
    across sweeps by exact per-coordinate minimization.
    """
    beta = np.array(beta_init, dtype=float)
    if beta.shape != (problem.n,):
        raise ValueError(f"beta_init must have shape ({problem.n},), got {beta.shape}")
    as_finite_array(beta, "beta_init")

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
        # near-duplicate direction active.  When the support S has
        # stalled, solve the stationarity system exactly on each of its
        # 2^|S| - 1 non-empty sub-supports (S contains the optimal one: a
        # needed outside column would be a KKT violation coordinate
        # descent would have activated), for |S| <= 9, one stacked LAPACK
        # call per subset size.  A finite, sign-consistent candidate is
        # accepted if its full KKT residual beats the current one without
        # raising the objective, which keeps F monotone.  The lowest
        # residual wins, ties to the lowest mask: the first-best rule in
        # bitmask order of the plain solver, gemv per candidate included,
        # that tests/test_lasso_reference.py pins byte for byte.
        support = np.flatnonzero(b)
        if support.size == 0 or 2 ** support.size > 512:
            return None
        signs = np.sign(b[support])
        rhs_all = q[support] - (lam / c) * signs
        cands = np.zeros((2 ** support.size - 1, b.size))  # row mask - 1: that sub-support's solution
        consistent = np.zeros(len(cands), dtype=bool)
        for masks, members in _subsets(support.size):
            columns = support[members]
            xs = _lstsq_stack(gram[columns[:, :, None], columns[:, None, :]], rhs_all[members])
            rows = np.subtract(masks, 1)
            cands[rows[:, None], columns] = xs
            consistent[rows] = np.isfinite(xs).all(axis=1) & ~(xs * signs[members] < 0).any(axis=1)
        cands = cands[consistent]
        gbs = np.empty_like(cands)
        for cand, gb_cand in zip(cands, gbs):
            np.matmul(gram, cand, out=gb_cand)
        residuals = _stationarity_violations(c * (gbs - q), cands, lam)
        (better,) = np.nonzero(residuals < current_residual)  # a NaN residual compares false
        base_value = value(b, gb_b)
        for i in better[np.argsort(residuals[better], kind="stable")].tolist():
            if value(cands[i], gbs[i]) <= base_value + 1e-12 * (1.0 + abs(base_value)):
                return cands[i], gbs[i], residuals.item(i)
        return None

    sweeps = 0
    b = beta.tolist()
    grad = c * (gb - q)
    residual = _stationarity_violation(grad, b, lam)
    converged = residual <= tol
    if converged or max_iters < 1:
        return LassoSolution(beta=beta, kkt_residual=residual, iterations=sweeps, converged=converged)

    # The sweeps run on Python floats: beta as a list, the soft-threshold
    # step written out.  It reproduces sign(z) * max(|z| - lam, 0) bit
    # for bit, signed zeros and NaN included; gb stays a numpy vector.
    # The stall test reads the support off the list, and a beta array is
    # built only for refine and the result.
    live, col2, columns = g.live, g.diag, g.columns
    curvature = [c * x for x in col2]
    if any(curvature[j] == 0.0 for j in live):
        # c * ||D_j||^2 underflowed: the coordinate map divides by zero
        raise NumericalError("coordinate descent produced non-finite values")
    qs = q.tolist()
    prev_support = [j for j, x in enumerate(b) if x]
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
        grad = c * (gb - q)
        if not np.isfinite(grad).all():
            raise NumericalError("coordinate descent produced non-finite values")
        residual = _stationarity_violation(grad, b, lam)
        converged = residual <= tol
        support = [j for j, x in enumerate(b) if x]
        if not converged and support == prev_support:
            refined = refine(np.array(b), gb, residual)
            if refined is not None:
                cand, gb, residual = refined
                b = cand.tolist()
                converged = residual <= tol
                support = [j for j, x in enumerate(b) if x]
        prev_support = support
        if not changed and not converged:
            # float-precision fixed point of the coordinate map; further
            # sweeps cannot move, so stop even when tol is unreachable
            break

    return LassoSolution(beta=np.array(b), kkt_residual=residual, iterations=sweeps, converged=converged)
