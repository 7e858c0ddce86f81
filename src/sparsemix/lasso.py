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
    (default 10 n).  When a sweep leaves an unconverged support unchanged
    and it has at most 9 columns, an exact refinement solves each of its
    signed sub-supports, with one stacked LAPACK least-squares call per
    subset size; a larger stalled support gets none, so coordinate
    descent runs on to ``max_iters`` unless it converges.  Coordinates
    whose design column is zero are forced to 0.  F is non-increasing
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

    # refine's candidates of this call, by signed column set (T, sign b_T):
    # q, lam, c and the Gram are fixed within one solve, so a candidate
    # never changes.  The key gives column j two bits at 4^j: 1 for a
    # positive sign, 2 for a negative one, 3 for any other (NaN).  An
    # entry is () for a rejected candidate, else [cand, its KKT
    # residual, its objective once needed, gram @ cand].
    candidates = {}

    def refine(b, gb_b, current_residual):
        # Near-duplicate design columns make plain coordinate descent
        # shuttle mass between them at a slow, sometimes non-geometric
        # rate, while the true solution keeps at most one column per
        # near-duplicate direction active.  When the support S has
        # stalled, solve the stationarity system exactly on each of its
        # 2^|S| - 1 non-empty sub-supports (S contains the optimal one: a
        # needed outside column would be a KKT violation coordinate
        # descent would have activated), for |S| <= 9.  sign(b_S) and the
        # right-hand side q_S - (lam/c) sign(b_S) are gathered once per
        # call; the sub-Grams and right-hand sides of all unseen
        # sub-supports of one size with one fancy index each, which one
        # stacked LAPACK call (_lstsq_stack) solves and one array
        # expression tests for finite, sign-consistent solutions.  A
        # signed sub-support already solved in this solve reuses its
        # cached candidate instead.  The new sign-consistent candidates
        # share one array, each row with its own gram @ row, and one
        # array expression gives their KKT residuals.  Every step that
        # decides the result (each row's least-squares solution, the full
        # gram @ cand, the KKT residual, the objective test and the strict
        # first-best rule in bitmask order) gives the bits of the plain
        # solver, whose output tests/test_lasso_reference.py pins.  A
        # candidate is accepted only with a consistent sign pattern, a
        # full KKT residual better than the current iterate and no
        # objective increase, which preserves the monotonicity contract.
        # The objective is evaluated only for a candidate that would
        # become the best.
        support = np.flatnonzero(b)
        if support.size == 0 or 2 ** support.size > 512:
            return None
        base_value = value(b, gb_b)
        signs = np.sign(b[support])
        rhs_all = q[support] - (lam / c) * signs
        keys = [0]  # keys[mask], by doubling: a mask's key adds its top column's code to the rest's
        for j, sign in zip(support.tolist(), signs.tolist()):
            keys += [key + ((1 if sign > 0 else 2 if sign < 0 else 3) << 2 * j) for key in keys]
        solved = []  # (key, columns, x) of each new sign-consistent candidate
        for masks, members in _subsets(support.size):
            new = [i for i, mask in enumerate(masks) if keys[mask] not in candidates]
            if not new:
                continue
            m = members if len(new) == len(masks) else members[new]
            columns = support[m]
            xs = _lstsq_stack(gram[columns[:, :, None], columns[:, None, :]], rhs_all[m])
            consistent = np.isfinite(xs).all(axis=1) & ~(xs * signs[m] < 0).any(axis=1)
            for i, cols, x, ok in zip(new, columns, xs, consistent.tolist()):
                candidates[keys[masks[i]]] = ()
                if ok:
                    solved.append((keys[masks[i]], cols, x))
        if solved:
            cands = np.zeros((len(solved), b.size))
            gbs = np.empty_like(cands)
            for cand, gb_cand, (_, cols, x) in zip(cands, gbs, solved):
                cand[cols] = x
                gb_cand[:] = gram @ cand
            residuals = _stationarity_violations(c * (gbs - q), cands, lam).tolist()
            for cand, gb_cand, residual, (key, *_) in zip(cands, gbs, residuals, solved):
                candidates[key] = [cand, residual, None, gb_cand]
        best = None
        for key in keys[1:]:
            entry = candidates[key]
            if not entry or not (entry[1] < current_residual and (best is None or entry[1] < best[1])):
                continue
            if entry[2] is None:
                entry[2] = value(entry[0], entry[3])
            if entry[2] <= base_value + 1e-12 * (1.0 + abs(base_value)):
                best = entry
        # a copy of gram @ cand: the sweep updates gb in place
        return None if best is None else (best[0], best[3].copy(), best[1])

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
