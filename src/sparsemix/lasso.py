"""Weighted l1-penalized least squares by a warm-started active-set method.

The mean update of one mixture component reduces to

    minimize  F(beta) = (s / (2 sigma2)) * ||m - D beta||^2 + lam * ||beta||_1

over beta in R^n, where D is the d x n design (the centered data as
columns), m the responsibility-weighted cluster mean, s the total
responsibility mass and sigma2 the component variance.  The solver
keeps a signed active set, starting from the support of the warm
start, and takes feature-sign steps on it (Lee, Battle, Raina & Ng
2006): each solves the stationarity system on the active set exactly,
or steps along a null vector of the active columns while they are
linearly dependent, and none raises F.  After a step that solved the
system, or from an empty active set, the worst KKT violator outside the
active set joins it.  The Gram matrix is computed once per sample
(:attr:`sparsemix.model.SampleSet.gram`) and shared by every
subproblem on it.

The design never changes within a sample, so neither does the
factorisation a step takes of its active columns.  Each is computed on
the first step that meets its active set and kept in
:attr:`sparsemix.model.Gram.faces`, keyed by the bytes of the active
index array, for as long as the ``Gram`` lives: the sample's, or the
problem's when it was built with ``gram=None``.  Every later step on
that set reads it, with the same bytes as a fresh SVD.  A full-rank
entry holds D_A, its column scales, U, the singular values and V^T:
(2 d + |A| + 2) |A| floats, with |A| <= d.  A rank-deficient one holds
only its null vector, |A| floats, the one array its step reads.  On the
140 inputs of ``tools/fit_timing.py`` (n = 10) a fit leaves 0.8 KB
(d = 2) and 38 KB (d = 50) in its sample's cache on average, at most
96 KB; the largest cache a solve of ``tools/lasso_timing.py`` leaves,
at n = 200 and d = 50, is 4.2 MB.
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

    ``gram`` carries the design's Gram constants, its cache of active-set
    factorisations included; when absent they are computed from
    ``design``.  A ``gram`` whose column scales differ from the design's
    is rejected, since its cached factorisations would be of another
    design.
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
        if gram.scale.tobytes() != np.abs(D).max(axis=0, initial=0.0).tobytes():
            raise ValueError("gram must be of this design: its column scales differ")
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


def _violations(grad: np.ndarray, theta: np.ndarray, lam: float) -> np.ndarray:
    """Each coordinate's violation of 0 in grad + lam * subdiff(|.|) under the signs ``theta``.

    |g_j + lam theta_j| where theta_j != 0 (NaN included) and |g_j| - lam
    where theta_j = 0.
    """
    return np.where(theta != 0, np.abs(grad + lam * theta), np.abs(grad) - lam)


def kkt_residual(problem: WeightedLassoProblem, beta: np.ndarray) -> float:
    """Stationarity violation of F at ``beta``.

    With g the gradient of the smooth part, returns the max over
    coordinates of |g_j + lam sign(beta_j)| where beta_j != 0 and
    max(|g_j| - lam, 0) where beta_j = 0; a NaN coordinate makes it NaN.
    """
    b = np.asarray(beta, dtype=float)
    grad = -problem.smooth_scale * (problem.design.T @ (problem.target - problem.design @ b))
    return float(np.max(_violations(grad, np.sign(b), problem.lam), initial=0.0))


def default_tolerance(problem: WeightedLassoProblem) -> float:
    """Scale-aware stationarity tolerance, 1e-8 of the gradient scale.

    The scale is (s / sigma2) * ||m|| * max column norm, which tracks the
    size of the gradient at the origin, so behavior is uniform across
    data dilations.
    """
    t = problem.target
    scale = problem.smooth_scale * math.sqrt(t @ t) * problem.gram.col_max  # t @ t and sqrt, as np.linalg.norm
    return 1e-8 * max(scale, _SCALE_EPS)


def _feature_sign(design: np.ndarray, gram: Gram, target: np.ndarray, c: float, lam: float,
                  beta: np.ndarray, theta: np.ndarray) -> tuple[np.ndarray, bool] | None:
    """One feature-sign step from ``beta`` on the signed active set ``theta``.

    Lee, Battle, Raina & Ng (2006), "Efficient sparse coding
    algorithms".  With A the coordinates where ``theta`` is nonzero, the
    step solves the stationarity system of F on A under the signs
    ``theta`` and moves to the point of lowest F among that solution and
    the points of the segment toward it where a coordinate changes sign,
    dropping the coordinates that land on zero.  A solution whose signs
    agree with ``theta`` is the minimiser of F on that orthant face and
    is taken as it is.  When D_A has a null space (d < |A|, or duplicate
    columns), the step instead moves along a null vector, which leaves
    the fit alone, in the direction that lowers sign(beta_A) . beta_A,
    until the first coordinate reaches zero.  The SVD is of D_A with each
    column divided by its largest entry (``gram.scale``), so that the
    round-off of the null vector and of the solution is relative to each
    column's own size, not to the largest column's.  It is a constant of
    the design, so it is taken once per active set and kept, read-only,
    in ``gram.faces``: (D_A, scales, U, singular values, V^T) for a
    full-rank D_A, and only the null vector for a rank-deficient one.
    Returns the new point and whether it is the solution on A, or None
    when the step cannot lower F.
    """
    (active,) = theta.nonzero()
    b_a, theta_a = beta[active], theta[active]
    key = active.tobytes()
    face = gram.faces.get(key)
    if face is None:
        s_a = gram.scale[active]
        d_a = design[:, active]
        u, sv, vt = np.linalg.svd(d_a / s_a, full_matrices=active.size > design.shape[0])
        if sv.size < active.size or sv[-1] <= _EPS * max(design.shape[0], active.size) * sv[0]:
            face = (vt[-1] / s_a,)
        else:
            face = (d_a, s_a, u, sv, vt)
        for array in face:
            array.setflags(write=False)
        gram.faces[key] = face
    if face[0].ndim == 1:  # the null vector of a rank-deficient D_A
        (v,) = face
        if theta_a @ v > 0:
            v = -v
        (shrinking,) = np.nonzero(theta_a * v < 0)
        ts = -b_a[shrinking] / v[shrinking]
        i = int(np.argmin(ts))
        if not ts[i] > 0:  # the column just added would leave its sign at once
            return None
        b_a = b_a + ts[i] * v
        b_a[shrinking[i]] = 0.0
        solved = False
    else:
        d_a, s_a, u, sv, vt = face
        # x = (D_A^T D_A)^-1 (D_A^T m - (lam / c) theta_A), through U^T m, not
        # V^T D_A^T m / sv, whose round-off the smallest sv would amplify twice,
        # and one step of iterative refinement on the residual of x
        shift = (lam / c) * (vt @ (theta_a / s_a)) / sv

        def face_solve(rhs):
            return vt.T @ ((u.T @ rhs - shift) / sv) / s_a

        x = face_solve(target)
        x = x + face_solve(target - d_a @ x)
        solved = bool((x * theta_a > 0).all())
        if solved:
            b_a = x
        else:
            (crossing,) = np.nonzero((b_a != 0) & (x * theta_a <= 0))
            # row 0 is the current point, rows 1.. the sign changes, the last row x
            ts = b_a[crossing] / (b_a[crossing] - x[crossing])
            points = np.vstack((b_a, b_a + ts[:, None] * (x - b_a), x))
            points[np.arange(1, crossing.size + 1), crossing] = 0.0
            resid = target - points @ d_a.T
            values = 0.5 * c * (resid * resid).sum(axis=1) + lam * np.abs(points).sum(axis=1)
            # a candidate at the current point's F is taken too: a sign change
            # there drops a coordinate a solve left at round-off size
            best = 1 + int(values[1:].argmin())
            if values[best] > values[0]:
                return None
            b_a = points[best]
    out = beta.copy()
    out[active] = b_a
    return out, solved


def solve_weighted_lasso(
    problem: WeightedLassoProblem,
    beta_init: np.ndarray,
    max_iters: int | None = None,
    tol: float | None = None,
) -> LassoSolution:
    """Active-set minimisation of F by feature-sign steps, warm-started from ``beta_init``.

    The signed active set starts as the support of ``beta_init``, with
    coordinates whose design column is zero forced to 0.  While the KKT
    residual, recomputed from ``gram @ beta``, exceeds ``tol`` (default:
    :func:`default_tolerance`) and fewer than ``max_iters`` steps
    (default 10 n) have run, each step is one :func:`_feature_sign` step;
    ``iterations`` counts them.  When the active set is empty or the last
    step solved on it, the step first adds the worst outside KKT violator
    under the sign that lowers F.  A warm start is solved first even when
    its active coordinates are stationary within ``tol``: their residuals
    can add up to an outside violation.  The loop also stops when a step
    cannot lower F, or when a solved point has no outside violator above
    ``tol``, so a fixed point ends it whatever ``tol`` is.  A non-finite
    gradient raises NumericalError; a negative or NaN ``tol``, or a
    ``max_iters`` that is not an integer >= 0, raises a ValueError.
    """
    beta = np.array(beta_init, dtype=float)
    if beta.shape != (problem.n,):
        raise ValueError(f"beta_init must have shape ({problem.n},), got {beta.shape}")
    as_finite_array(beta, "beta_init")

    D = problem.design
    lam = problem.lam
    c = problem.smooth_scale
    max_iters = as_int("max_iters", 10 * problem.n if max_iters is None else max_iters, 0)
    tol = default_tolerance(problem) if tol is None else tol
    if not tol >= 0:  # NaN included
        raise ValueError(f"tol must be >= 0, got {tol!r}")

    gram = problem.gram.matrix
    q = D.T @ problem.target
    beta[problem.gram.scale == 0] = 0.0
    steps, solved = 0, False
    while True:
        theta = np.sign(beta)
        grad = c * (gram @ beta - q)
        violations = _violations(grad, theta, lam)
        residual = float(violations.max(initial=0.0))
        if not math.isfinite(residual):
            raise NumericalError("the lasso gradient is not finite")
        if residual <= tol or steps == max_iters:
            break
        if solved or not theta.any():
            outside = np.where(theta == 0, violations, -np.inf)
            j = int(outside.argmax())
            if not outside[j] > tol:
                break  # stationary on the active set to round-off, and no outside violator
            theta[j] = -np.sign(grad[j])
        step = _feature_sign(D, problem.gram, problem.target, c, lam, beta, theta)
        steps += 1
        if step is None:
            break
        beta, solved = step

    return LassoSolution(beta=beta, kkt_residual=residual, iterations=steps, converged=residual <= tol)
