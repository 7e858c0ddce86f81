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
    scale = problem.smooth_scale * float(np.linalg.norm(problem.target)) * problem.gram.col_max
    return 1e-8 * max(scale, _SCALE_EPS)


@functools.cache
def _subsets(size: int) -> tuple:
    """The non-empty subsets of range(size), in bitmask order 1 .. 2^size - 1.

    Each entry is (index array, its ``np.ix_`` pair, index list): the
    positions of the set bits of the mask, ready to gather a sub-vector,
    a sub-Gram and the matching Python-float signs.
    """
    out = []
    for mask in range(1, 2 ** size):
        picked = [i for i in range(size) if mask >> i & 1]
        idx = np.array(picked)
        out.append((idx, np.ix_(idx, idx), picked))
    return tuple(out)


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

    # refine's candidates of this call, by signed column set (T, sign b_T):
    # q, lam, c and the Gram are fixed within one solve, so a candidate
    # never changes.  The key gives column j two bits at 4^j: 1 for a
    # positive sign, 2 for a negative one, 3 for any other (NaN).  An
    # entry is () for a rejected candidate, else [cand, its KKT
    # residual, its objective once needed].
    candidates = {}

    def refine(b, gb_b, current_residual):
        # Near-duplicate design columns make plain coordinate descent
        # shuttle mass between them at a slow, sometimes non-geometric
        # rate, while the true solution keeps at most one column per
        # near-duplicate direction active.  When the support S has
        # stalled, solve the stationarity system exactly on each of its
        # 2^|S| - 1 non-empty sub-supports (S contains the optimal one: a
        # needed outside column would be a KKT violation coordinate
        # descent would have activated), one lstsq each, for |S| <= 9.
        # sign(b_S), the right-hand side q_S - (lam/c) sign(b_S) and
        # G[S, S] are gathered once per call, and each candidate takes
        # its entries from them; a signed sub-support already solved in
        # this solve reuses its cached candidate instead of a new lstsq.
        # Every step that decides the result (lstsq, the full gram @ cand,
        # the KKT residual, the objective test and the strict first-best
        # rule in bitmask order) runs as in the plain solver, whose output
        # tests/test_lasso_reference.py pins bit for bit.  A candidate is
        # accepted only with a consistent sign pattern, a full KKT
        # residual better than the current iterate and no objective
        # increase, which preserves the monotonicity contract.  The
        # objective is evaluated only for a candidate that would become
        # the best.
        support = np.flatnonzero(b)
        if support.size == 0 or 2 ** support.size > 512:
            return None
        base_value = value(b, gb_b)
        signs = np.sign(b[support])
        sign_list = signs.tolist()
        codes = [(1 if s > 0 else 2 if s < 0 else 3) << 2 * j for j, s in zip(support.tolist(), sign_list)]
        rhs_all = q[support] - (lam / c) * signs
        sub_all = gram[np.ix_(support, support)]
        best = None
        for idx, ix, picked in _subsets(support.size):
            key = sum(map(codes.__getitem__, picked))
            entry = candidates.get(key)
            gb_cand = None
            if entry is None:
                x, *_ = np.linalg.lstsq(sub_all[ix], rhs_all[idx], rcond=None)
                entry = ()
                if all(math.isfinite(v) and not v * sign_list[i] < 0 for v, i in zip(x.tolist(), picked)):
                    cand = np.zeros_like(b)
                    cand[support[idx]] = x
                    gb_cand = gram @ cand
                    entry = [cand, _stationarity_violation(c * (gb_cand - q), cand.tolist(), lam), None]
                candidates[key] = entry
            if not entry or not (entry[1] < current_residual and (best is None or entry[1] < best[1])):
                continue
            if entry[2] is None:
                entry[2] = value(entry[0], gram @ entry[0] if gb_cand is None else gb_cand)
            if entry[2] <= base_value + 1e-12 * (1.0 + abs(base_value)):
                best = entry
        # a fresh gram @ cand: the sweep updates gb in place
        return None if best is None else (best[0], gram @ best[0], best[1])

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
