"""Weighted l1-penalized least squares via cyclic coordinate descent.

The mean update of one mixture component reduces to

    minimize  F(beta) = (s / (2 sigma2)) * ||m - D beta||^2 + lam * ||beta||_1

over beta in R^n, where D is the d x n design (the centered data as
columns), m the responsibility-weighted cluster mean, s the total
responsibility mass and sigma2 the component variance.  Coordinate
updates are exact soft-threshold steps, so F never increases; the Gram
matrix and column norms are computed once per sample
(:attr:`sparsemix.model.SampleSet.gram`) and shared by every subproblem
on it.  When the support stalls short of the tolerance, a feature-sign
search (Lee, Battle, Raina & Ng 2006) runs from the stalled point: it can
drop a column of the support and add one outside it, and its end point
replaces the stalled point only if that lowers the KKT residual without
raising F.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import EmptyClusterError, Gram, NumericalError, as_finite_array, as_int, no_bool

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
    t = problem.target
    scale = problem.smooth_scale * math.sqrt(t @ t) * problem.gram.col_max  # t @ t and sqrt, as np.linalg.norm
    return 1e-8 * max(scale, _SCALE_EPS)


def _feature_sign(design: np.ndarray, gram: np.ndarray, q: np.ndarray, c: float, lam: float, beta: np.ndarray,
                  tol: float, steps: int) -> np.ndarray:
    """Feature-sign search from ``beta``, at most ``steps`` steps.

    Lee, Battle, Raina & Ng (2006), "Efficient sparse coding
    algorithms".  Each step works on the signed active set A: it solves
    the stationarity system on A and moves along the segment toward that
    solution to the point of lowest objective among the solution and the
    points where a coordinate changes sign, dropping the coordinates
    that land on zero.  Once a step reaches its solution with no sign
    change, the worst outside KKT violator joins A under the sign that
    lowers F.  When D_A has a null space (d < |A|, or duplicate
    columns), the step instead moves along a null vector, which leaves
    the fit alone, in the direction that lowers sign(beta_A) . beta_A,
    until the first coordinate reaches zero.  Stops once no outside
    coordinate violates the KKT conditions by more than ``tol`` or a
    step fails to lower F.
    """
    b = beta.copy()
    theta = np.sign(b)
    solved = False
    for _ in range(steps):
        if solved or not theta.any():
            grad = c * (gram @ b - q)
            outside = np.where(theta != 0, -np.inf, np.abs(grad) - lam)
            j = int(np.argmax(outside))
            if not outside[j] > tol:
                break
            theta[j] = -np.sign(grad[j])
        active = np.flatnonzero(theta)
        b_a, theta_a = b[active], theta[active]
        _, sv, vt = np.linalg.svd(design[:, active])
        if sv.size < active.size or sv[-1] <= _EPS * max(design.shape[0], active.size) * sv[0]:
            v = vt[-1] if theta_a @ vt[-1] <= 0 else -vt[-1]
            (shrinking,) = np.nonzero(theta_a * v < 0)
            ts = -b_a[shrinking] / v[shrinking]
            i = int(np.argmin(ts))
            b_a = b_a + ts[i] * v
            b_a[shrinking[i]] = 0.0
            solved = False
        else:
            x = vt.T @ ((vt @ (q[active] - (lam / c) * theta_a)) / sv / sv)
            (crossing,) = np.nonzero((b_a != 0) & (x * theta_a <= 0))
            # row 0 is the current point, rows 1.. the sign changes, the last row x
            ts = np.concatenate(([0.0], b_a[crossing] / (b_a[crossing] - x[crossing]), [1.0]))
            points = b_a + ts[:, None] * (x - b_a)
            points[np.arange(1, crossing.size + 1), crossing] = 0.0
            sub = gram[np.ix_(active, active)]
            values = (0.5 * c * ((points @ sub) * points).sum(axis=1) - c * (points @ q[active])
                      + lam * np.abs(points).sum(axis=1))
            best = int(np.argmin(values))
            if best == 0:
                break
            b_a = points[best]
            solved = crossing.size == 0
        b[active] = b_a
        theta = np.sign(b)
    return b


def solve_weighted_lasso(
    problem: WeightedLassoProblem,
    beta_init: np.ndarray,
    max_iters: int | None = None,
    tol: float | None = None,
) -> LassoSolution:
    """Cyclic coordinate descent on F, warm-started from ``beta_init``.

    Stops once the stationarity violation drops to ``tol`` (default:
    :func:`default_tolerance`) or after ``max_iters`` full sweeps
    (default 10 n).  Each time a sweep leaves an unconverged support
    unchanged, a feature-sign search (:func:`_feature_sign`) of at most
    10 n steps, whatever ``max_iters`` is, runs from the stalled point.
    Its end point replaces the stalled point only if its KKT residual is
    lower and F rises by at most 1e-12 (1 + |F|).  Coordinates whose
    design column is zero are forced to 0.  F is non-increasing across
    sweeps by exact per-coordinate minimization.  A negative or NaN
    ``tol``, or a ``max_iters`` that is not an integer >= 0, raises a
    ValueError.
    """
    beta = np.array(beta_init, dtype=float)
    if beta.shape != (problem.n,):
        raise ValueError(f"beta_init must have shape ({problem.n},), got {beta.shape}")
    as_finite_array(beta, "beta_init")

    D = problem.design
    lam = problem.lam
    c = problem.smooth_scale
    n = problem.n
    steps = 10 * n
    max_iters = as_int("max_iters", steps if max_iters is None else max_iters, 0)
    tol = default_tolerance(problem) if tol is None else tol
    if not tol >= 0:  # NaN included
        raise ValueError(f"tol must be >= 0, got {tol!r}")

    g = problem.gram
    gram = g.matrix
    q = D.T @ problem.target
    for j in g.dead:
        beta[j] = 0.0
    gb = gram @ beta

    def value(b, gb_b):
        # objective up to the constant (c/2) ||m||^2
        return 0.5 * c * (b @ gb_b) - c * (q @ b) + lam * np.add.reduce(np.abs(b))

    def refine(b, gb_b, current_residual):
        # Near-duplicate design columns make plain coordinate descent
        # shuttle mass between them at a slow, sometimes non-geometric
        # rate, while the true solution keeps at most one column per
        # near-duplicate direction active.  A feature-sign search from
        # the stalled point can drop such a column and add one the
        # optimum needs.  Its end point is accepted if its full KKT
        # residual beats the current one without raising the objective,
        # which keeps F monotone.  The search has its own budget of 10 n
        # steps, so that ``max_iters`` counts sweeps alone.
        cand = _feature_sign(D, gram, q, c, lam, b, tol, steps)
        gb_cand = gram @ cand
        residual = _stationarity_violation(c * (gb_cand - q), cand.tolist(), lam)
        if not residual < current_residual:  # a NaN residual compares false
            return None
        base_value = value(b, gb_b)
        if value(cand, gb_cand) > base_value + 1e-12 * (1.0 + abs(base_value)):
            return None
        return cand, gb_cand, residual

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
