"""The lasso solver against the coordinate-descent reference solver.

The solver takes feature-sign steps on a signed active set.  The
reference below is the plain numpy coordinate-descent solver the
package used before, kept verbatim together with the helpers it calls:
the Gram built per call, the soft-threshold through numpy ufuncs and
the objective evaluated for every ``refine`` candidate, the sub-support
enumeration it runs on a stalled support.  Its KKT violation is the
numpy formula that ``test_lasso.py`` also checks the solver's against,
``oracles.numpy_stationarity_violation``.  The two reach the same
minimiser by different arithmetic, or different points of a non-unique
minimiser set, so they are compared by what each point solves, not by
its bytes.  At the default stop, the one the EM runs, the solver must
do no worse than the reference (:func:`assert_no_worse`).  Under
``tol = 0`` or ``max_iters = 1``, which the EM never sets, the two stop
at points whose flags cannot be compared, and the solver must keep its
own guarantees (:func:`assert_solver_guarantees`).  Everywhere, the
residual the solver reports is, bit for bit, that of the point it
returns.
"""

import contextlib
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from sparsemix import sparse_em
from sparsemix.lasso import (
    WeightedLassoProblem,
    _feature_sign,
    default_tolerance,
    kkt_residual,
    objective,
    solve_weighted_lasso,
)
from sparsemix.model import EmptyClusterError, Hyperparams, NumericalError, SampleSet
from sparsemix.simulate import ScenarioConfig, fit_seed_seq, gen_replicate
from oracles import numpy_stationarity_violation

_SCALE_EPS = 1e-12


def reference_soft_threshold(z, gamma):
    """sign(z) * max(|z| - gamma, 0); gamma must be >= 0."""
    return np.sign(z) * np.maximum(np.abs(z) - gamma, 0.0)


def reference_default_tolerance(problem):
    """Scale-aware stationarity tolerance, 1e-8 of the gradient scale."""
    col_max = float(np.sqrt(np.max(np.sum(problem.design**2, axis=0), initial=0.0)))
    scale = problem.smooth_scale * float(np.linalg.norm(problem.target)) * col_max
    return 1e-8 * max(scale, _SCALE_EPS)


def reference_solve_weighted_lasso(problem, beta_init, max_iters=None, tol=None, stalls=None):
    """Cyclic coordinate descent on F, warm-started from ``beta_init``.

    Each time ``refine`` runs on a stalled support, the support's size is
    appended to ``stalls`` if given; nothing else depends on it.  On a
    support of more than 9 columns ``refine`` gives up.
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
        tol = reference_default_tolerance(problem)

    gram = D.T @ D
    q = D.T @ problem.target
    col2 = np.diag(gram).copy()
    dead = col2 <= 0.0
    beta[dead] = 0.0
    gb = gram @ beta

    def value(b, gb_b):
        # objective up to the constant (c/2) ||m||^2
        return 0.5 * c * (b @ gb_b) - c * (q @ b) + lam * np.sum(np.abs(b))

    def refine(b, gb_b, current_residual):
        support = np.flatnonzero(b)
        if stalls is not None:
            stalls.append(support.size)
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
            resid = numpy_stationarity_violation(c * (gb_cand - q), cand, lam)
            val = value(cand, gb_cand)
            if resid < current_residual and val <= base_value + 1e-12 * (1.0 + abs(base_value)):
                if best is None or resid < best[2]:
                    best = (cand, gb_cand, resid)
        return best

    sweeps = 0
    grad = c * (gb - q)
    residual = numpy_stationarity_violation(grad, beta, lam)
    converged = residual <= tol
    prev_support = np.flatnonzero(beta)
    while not converged and sweeps < max_iters:
        changed = False
        for j in range(n):
            if dead[j]:
                continue
            z = c * (q[j] - gb[j] + col2[j] * beta[j])
            new = reference_soft_threshold(z, lam) / (c * col2[j])
            if new != beta[j]:
                gb += (new - beta[j]) * gram[:, j]
                beta[j] = new
                changed = True
        sweeps += 1
        grad = c * (gb - q)
        if not np.all(np.isfinite(grad)):
            raise NumericalError("coordinate descent produced non-finite values")
        residual = numpy_stationarity_violation(grad, beta, lam)
        converged = residual <= tol
        support = np.flatnonzero(beta)
        if not converged and np.array_equal(support, prev_support):
            refined = refine(beta, gb, residual)
            if refined is not None:
                beta, gb, residual = refined
                converged = residual <= tol
        prev_support = np.flatnonzero(beta)
        if not changed and not converged:
            break

    return beta, residual, sweeps, converged


def reference_penalty_weight(hp, Y, sigma2, total_weight, target):
    if hp.lam is not None:
        return hp.lam
    largest_norm = math.sqrt(float(np.max(np.sum(Y.data**2, axis=1))))
    noise = math.sqrt(2.0 * math.log(Y.n) * total_weight) * largest_norm / math.sqrt(sigma2)
    critical = (total_weight / sigma2) * float(np.max(np.abs(Y.data @ target), initial=0.0))
    return min(noise, sparse_em.MAX_PENALTY_FRACTION * critical)


# The partial-step references take the mass, the empty test and the
# target from sparse_em's helpers, which every block update shares, and
# pin what each step does with them: the penalty weight and the solve.
def reference_effective_lams(params, tau, Y, hp):
    if hp.lam is not None:
        return np.full(params.K, float(hp.lam))
    s = sparse_em.masses(tau)
    out = np.empty(params.K)
    for k in range(params.K):
        if sparse_em.is_empty(s[k], Y.n):
            out[k] = 0.0
            continue
        m = sparse_em.target(k, tau, Y, float(s[k]))
        out[k] = reference_penalty_weight(hp, Y, float(params.variances[k]), float(s[k]), m)
    return out


def reference_beta_problem(k, params, tau, Y, hp):
    """Component k's lasso subproblem and its tolerance."""
    s = sparse_em.nonempty_mass(k, sparse_em.masses(tau), Y.n)
    m = sparse_em.target(k, tau, Y, s)
    lam = reference_penalty_weight(hp, Y, float(params.variances[k]), s, m)
    problem = WeightedLassoProblem(
        design=Y.design, target=m, total_weight=s, sigma2=float(params.variances[k]), lam=lam
    )
    return problem, reference_default_tolerance(problem) * min(1.0, hp.tol / 1e-8)


def kkt_roundoff(problem, beta):
    """A bound on the round-off of recomputing ``kkt_residual(problem, beta)``.

    With u = eps / 2 and gamma_k = k u / (1 - k u) (Higham 2002, ch. 3),
    the computed r = m - D beta is off by at most gamma_{n+1} (|m| + |D||beta|)
    per entry, whatever the summation order, and the gradient c D^T r adds
    gamma_d |D|^T |r| and one rounding for c, so each gradient entry is
    off by at most about (n + d + 2) u c (|D|^T (|m| + |D||beta|))_j.
    Adding lam sign(beta_j), or subtracting lam, and taking |.| add
    u (|g_j| + lam), and a max over coordinates is off by at most its
    worst term.  (d + n + 2) eps (c max_j (|D|^T (|m| + |D||beta|))_j + lam)
    covers the sum.  Unlike a fixed fraction of the gradient scale at the
    origin it grows with |beta|, as the recomputation's round-off does.
    """
    D = np.abs(problem.design)
    d, n = D.shape
    scale = float(np.max(D.T @ (np.abs(problem.target) + D @ np.abs(beta)), initial=0.0))
    return (d + n + 2) * np.finfo(float).eps * (problem.smooth_scale * scale + problem.lam)


def assert_no_worse(problem, beta, reference_beta, tol):
    """``beta`` solves ``problem`` at least as well as the reference's ``reference_beta``.

    Both KKT residuals are recomputed from the problem: ``beta``'s is at
    most the reference's, or within ``tol`` (both converged, where the
    two residuals are round-off and either may be the lower), plus the
    round-off of the two recomputations (:func:`kkt_roundoff`).

    The objective may exceed the reference's only by what convexity
    allows a point that far from stationary.  The subdifferential of F at beta
    is {g + lam s : s_j = sign(beta_j) where beta_j != 0, s_j in [-1, 1]
    where beta_j = 0}, with g the gradient of the smooth part.  Its
    element v of least max-norm takes each coordinate closest to 0:
    |g_j + lam sign(beta_j)| where beta_j != 0 and max(|g_j| - lam, 0)
    where beta_j = 0, so ||v||_inf is the KKT residual rho of beta.
    Convexity gives F(beta_ref) >= F(beta) + v . (beta_ref - beta), so

        F(beta) - F(beta_ref) <= ||v||_inf ||beta - beta_ref||_1 = rho ||beta - beta_ref||_1.

    Two stationary points within the tolerance can differ in F by that
    much on a flat or near-flat minimiser set (near-duplicate columns,
    where F barely changes along the direction that trades one column
    for its twin).  rho is the recomputed residual plus its round-off
    bound, and 1e-12 (1 + |F|) covers the round-off of the two F values.
    """
    slack = kkt_roundoff(problem, beta) + kkt_roundoff(problem, reference_beta)
    rho = kkt_residual(problem, beta)
    assert rho <= max(kkt_residual(problem, reference_beta), tol) + slack
    value = objective(problem, reference_beta)
    gap = (rho + kkt_roundoff(problem, beta)) * float(np.sum(np.abs(beta - reference_beta)))
    assert objective(problem, beta) <= value + gap + 1e-12 * (1.0 + abs(value))


def objective_roundoff(problem, beta):
    """A bound on the round-off of evaluating ``objective(problem, beta)``.

    With u = eps / 2 and gamma_k = k u / (1 - k u) (Higham 2002, ch. 3),
    each entry of the computed r = m - D beta is off from the exact one
    by at most delta_i = gamma_{n+1} a_i, a = |m| + |D||beta|, whatever
    the summation order.  So the squares of the computed entries sum to
    within delta . (2 |r| + delta) of the exact ||r||^2, their summation
    adds gamma_d ||r||^2, and the product with c and the final addition
    add u each.  lam ||beta||_1, a sum of n terms of one sign and a
    product, is off by at most n u of itself, and the final addition adds
    u.  Taking eps for u in each term, with delta = (n + 1) eps a, covers
    the second-order terms:

        0.5 c ((d + 2) eps ||r||^2 + delta . (2 |r| + delta)) + (n + 1) eps lam ||beta||_1.

    Where D beta nearly cancels m at large |beta|, a is large while r
    and F are small, so a fixed fraction of |F| does not cover it.
    """
    D = problem.design
    d, n = D.shape
    eps = np.finfo(float).eps
    r = np.abs(problem.target - D @ beta)
    delta = (n + 1) * eps * (np.abs(problem.target) + np.abs(D) @ np.abs(beta))
    smooth = (d + 2) * eps * float(r @ r) + float(delta @ (2.0 * r + delta))
    return 0.5 * problem.smooth_scale * smooth + (n + 1) * eps * problem.lam * float(np.sum(np.abs(beta)))


def assert_solver_guarantees(problem, beta_init, beta, converged):
    """What the solver guarantees at any stop, the ``tol = 0`` and ``max_iters = 1`` ones included.

    No step raises F, so F at the result is at most F at ``beta_init``,
    up to the round-off of evaluating it at both points
    (:func:`objective_roundoff`).  Above the critical lam, max_j |g_j(0)|,
    the only minimiser is 0, and a solve that reports convergence ends
    exactly there.
    """
    slack = objective_roundoff(problem, beta) + objective_roundoff(problem, beta_init)
    assert objective(problem, beta) <= objective(problem, beta_init) + slack
    critical = problem.smooth_scale * float(np.max(np.abs(problem.design.T @ problem.target)))
    if problem.lam > critical and converged:
        assert np.all(beta == 0.0)


@st.composite
def problems(draw):
    """Lasso subproblems shaped like the EM's: d x n designs with n <= 10."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.sampled_from([1, 2, 5, 50]))
    n = draw(st.integers(1, 10))
    scale = draw(st.sampled_from([1e-3, 1.0, 30.0, 1e4]))
    points = rng.normal(size=(n, d)) * scale
    if n > 1 and draw(st.booleans()):
        # near-duplicate observations, the stalls refine exists for, or
        # exact duplicates, whose sub-supports can tie on the KKT residual
        dup = rng.integers(0, n, size=n)
        points = points[dup] + rng.normal(size=(n, d)) * scale * draw(st.sampled_from([1e-6, 0.0]))
    D = SampleSet(points).design.copy()
    zero = draw(st.lists(st.integers(0, n - 1), max_size=2))
    D[:, zero] = 0.0
    weights = rng.random(n)
    target = D @ weights / weights.sum() if draw(st.booleans()) else rng.normal(size=d) * scale
    s = draw(st.floats(0.01, 10.0))
    sigma2 = draw(st.floats(0.05, 100.0)) * scale**2
    critical = (s / sigma2) * float(np.max(np.abs(D.T @ target)))
    regime = draw(st.sampled_from(["zero", "moderate", "supercritical"]))
    lam = 0.0
    if regime == "moderate":
        lam = critical * draw(st.floats(0.001, 0.9))
    elif regime == "supercritical":
        lam = critical * draw(st.floats(1.0001, 3.0))
    problem = WeightedLassoProblem(design=D, target=target, total_weight=s, sigma2=sigma2, lam=lam)
    start = draw(st.sampled_from(["zero", "signed_zero", "random", "optimum"]))
    if start == "zero":
        beta0 = np.zeros(n)
    elif start == "signed_zero":
        beta0 = np.where(rng.random(n) < 0.5, -0.0, 0.0)
    elif start == "random":
        beta0 = rng.normal(size=n) * draw(st.sampled_from([1e-3, 1.0, 1e3]))
    else:
        beta0 = reference_solve_weighted_lasso(problem, np.zeros(n))[0]
    stop = draw(st.sampled_from([{}, {"tol": 0.0}, {"max_iters": 1}, {"tol": 0.0, "max_iters": 1}]))
    return problem, beta0, stop


SOLVER_SETTINGS = settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])


def near_duplicate_pairs_case():
    """d=50, n=10 points in near-duplicate pairs from a random start.

    Coordinate descent stalls on the full 10-column support, on which
    the reference's ``refine`` gives up, and runs to its 100-sweep cap.
    """
    rng = np.random.default_rng(2)
    points = rng.normal(size=(10, 50))
    points = points[np.arange(10) // 2] + rng.normal(size=(10, 50)) * 1e-6
    D = SampleSet(points).design
    weights = rng.random(10)
    target = D @ weights / weights.sum()
    lam = 0.01 * 3.0 * float(np.max(np.abs(D.T @ target)))
    problem = WeightedLassoProblem(design=D, target=target, total_weight=3.0, sigma2=1.0, lam=lam)
    return problem, rng.normal(size=10), {}


def small_case():
    """A 2 x 3 problem whose stalls all go to the reference's ``refine``."""
    D = np.array([[1.1, 1.1, -2.6], [-0.1, -0.1, 1.4]])
    problem = WeightedLassoProblem(design=D, target=np.array([0.7, 1.5]), total_weight=1.0, sigma2=1.0, lam=0.19)
    return problem, np.array([0.3, 0.6, 0.2]), {}


def plain_case():
    """A 2 x 2 problem with orthogonal columns: one sweep from 0 converges, with no stall."""
    D = np.array([[1.0, 0.0], [0.0, 2.0]])
    problem = WeightedLassoProblem(design=D, target=np.array([1.0, -1.0]), total_weight=1.0, sigma2=1.0, lam=0.3)
    return problem, np.zeros(2), {}


def large_coefficient_case():
    """A d=2, n=4 draw of ``problems()`` with near-duplicate columns, lam = 0 and ``tol = 0``.

    It starts at the reference's default-tolerance solution, whose two
    live coefficients are about -1.9e7 and 1.9e7.  At that size the
    round-off of evaluating F exceeds 1e-12 (1 + |F|): at the point the
    reference reaches from there, F evaluates 6.2e-12 higher than at the
    start, while exact rational arithmetic puts it 2.1e-15 lower.
    """
    h = float.fromhex
    D = np.array([[0.0, h("0x1.2dfd3e6c826fdp-10"), 0.0, h("0x1.2dfd526a08c63p-10")],
                  [0.0, h("-0x1.4e846805ab30bp-13"), 0.0, h("-0x1.4e8490dde9c72p-13")]])
    target = np.array([h("0x1.f711bdc5dbbaep-12"), h("-0x1.63c2bf9b01da9p-9")])
    problem = WeightedLassoProblem(design=D, target=target, total_weight=1.0, sigma2=h("0x1.0c6f7a0b5ed8dp-20"),
                                   lam=0.0)
    beta0 = np.array([0.0, h("-0x1.21b47da47dfb6p+24"), 0.0, h("0x1.21b46ae3b306fp+24")])
    return problem, beta0, {"tol": 0.0}


def reference_stalls(case):
    """The sizes of the stalled supports the reference's ``refine`` runs on in ``case``."""
    problem, beta0, stop = case
    stalls = []
    with contextlib.suppress(NumericalError):
        reference_solve_weighted_lasso(problem, beta0, stalls=stalls, **stop)
    return stalls


class TestNoWorseSlack:
    def test_one_ulp_apart_at_a_large_norm_point_is_no_worse(self):
        # far from the optimum the recomputed residual, about 7.6e5, moves by
        # 2.3e-10 when beta moves one ulp: 80 times the old slack, 1e-12 of
        # the gradient scale at the origin, and within the round-off bound
        problem = WeightedLassoProblem(design=np.array([[1.0, 0.5], [0.3, 2.0]]), target=np.array([1.0, 1.0]),
                                       total_weight=1.0, sigma2=1.0, lam=0.3)
        beta = np.array([1e6, -3e5])
        nudged = np.nextafter(beta, np.inf)
        assert kkt_residual(problem, nudged) > kkt_residual(problem, beta) + 1e-4 * default_tolerance(problem)
        assert_no_worse(problem, nudged, beta, tol=0.0)
        with pytest.raises(AssertionError):  # a real step away is still worse
            assert_no_worse(problem, beta * (1.0 + 1e-8), beta, tol=0.0)


class TestObjectiveRoundoff:
    def test_admits_the_rounding_and_rejects_a_real_rise(self):
        # the reference's end point on the large-coefficient case reads F
        # 6.2e-12 higher than the start, six times a fixed slack of
        # 1e-12 (1 + |F|), though exactly it is 2.1e-15 lower; the bound
        # admits it
        problem, beta0, stop = large_coefficient_case()
        reference_beta = reference_solve_weighted_lasso(problem, beta0, **stop)[0]
        start = objective(problem, beta0)
        assert objective(problem, reference_beta) > start + 1e-12 * (1.0 + abs(start))
        assert_solver_guarantees(problem, beta0, reference_beta, converged=False)
        # moving one coefficient by 1e-3, 5e-11 of its size, raises F by
        # 6.8e-7, about 400 times the bound, and the check rejects it
        risen = beta0 + np.array([0.0, 0.0, 0.0, 1e-3])
        with pytest.raises(AssertionError):
            assert_solver_guarantees(problem, beta0, risen, converged=False)


class TestSolverMatchesReference:
    @SOLVER_SETTINGS
    @given(case=problems())
    @example(case=near_duplicate_pairs_case())
    @example(case=small_case())
    @example(case=plain_case())
    # coefficients near 1.9e7, where F's own round-off exceeds a fixed
    # 1e-12 (1 + |F|) slack (TestObjectiveRoundoff)
    @example(case=large_coefficient_case())
    def test_solve_bit_for_bit(self, case):
        problem, beta0, stop = case
        solution = solve_weighted_lasso(problem, beta0, **stop)
        beta = solution.beta
        assert beta.dtype == np.float64 and beta.shape == (problem.n,)
        assert solution.kkt_residual == kkt_residual(problem, beta)
        reference_beta, _, _, reference_converged = reference_solve_weighted_lasso(problem, beta0, **stop)
        if stop:
            assert_solver_guarantees(problem, beta0, beta, solution.converged)
            return
        assert solution.converged >= reference_converged
        assert_no_worse(problem, beta, reference_beta, default_tolerance(problem))

    def test_examples_cover_both_kinds(self):
        # the explicit examples above draw, on every run, cases on which the
        # reference refines a stalled support and one on which it does not
        assert reference_stalls(near_duplicate_pairs_case())
        assert reference_stalls(small_case())
        assert not reference_stalls(plain_case())

    def test_a_step_to_zero_writes_positive_zero(self):
        # the reference's sweep keeps -0.0 for a coordinate shrunk to zero
        # from the negative side; a step that lands a coordinate on zero
        # writes +0.0, and a zero that no step moves keeps its sign bit
        D = np.array([[1.0, 0.0], [0.0, 1.0]])
        problem = WeightedLassoProblem(design=D, target=np.array([-0.1, 2.0]), total_weight=1.0, sigma2=1.0, lam=0.5)
        beta0 = np.array([-3.0, -0.0])
        assert math.copysign(1.0, reference_solve_weighted_lasso(problem, beta0)[0][0]) == -1.0
        got = solve_weighted_lasso(problem, beta0)
        assert got.converged and got.beta.tolist() == [0.0, 1.5]
        assert math.copysign(1.0, got.beta[0]) == 1.0
        kept = solve_weighted_lasso(problem, np.array([-0.0, 0.0]))
        assert kept.iterations == 1 and math.copysign(1.0, kept.beta[0]) == -1.0

    def test_underflowing_curvature_converges(self):
        # c * ||D_0||^2 = 1e-10 * 1e-320 underflows to zero, and the
        # reference's coordinate map divides by it and raises; the solver
        # divides by no curvature: it solves on column 0, scaled by its
        # largest entry, and ends in one step at the least-squares point
        D = np.array([[1e-160, 1.0]])
        problem = WeightedLassoProblem(design=D, target=np.array([1.0]), total_weight=1e-5, sigma2=1e5, lam=0.0)
        beta0 = np.array([1.0, 0.0])
        with np.errstate(divide="ignore", invalid="ignore"), pytest.raises(NumericalError):
            reference_solve_weighted_lasso(problem, beta0)
        sol = solve_weighted_lasso(problem, beta0)
        assert sol.converged and sol.iterations == 1
        assert sol.beta[0] == pytest.approx(1e160, rel=1e-15) and sol.beta[1] == 0.0


@contextlib.contextmanager
def count_steps():
    """Count the feature-sign steps the solver takes, one per call of ``_feature_sign``."""
    with mock.patch("sparsemix.lasso._feature_sign", wraps=_feature_sign) as steps:
        yield steps


@contextlib.contextmanager
def count_lstsq_systems():
    """Count the least-squares systems solved through ``np.linalg.lstsq``, one per call."""
    with mock.patch.object(np.linalg, "lstsq", wraps=np.linalg.lstsq) as lstsq:
        yield lstsq


class TestRefineSystems:
    def test_solves_exactly_the_reference_systems(self):
        # d=50, n=10 near-duplicate points: the reference's refine stalls on
        # nested supports of 8, 8 and 9 columns and solves every non-empty
        # sub-support of each, 2^|S| - 1 systems per stall and 1,021 in all;
        # the solver solves none of them, takes only feature-sign steps, one
        # SVD each, and must end no worse
        rng = np.random.default_rng(3)
        points = rng.normal(size=(10, 50))
        points = points[rng.integers(0, 10, size=10)] + rng.normal(size=(10, 50)) * 1e-6
        D = SampleSet(points).design
        weights = rng.random(10)
        target = D @ weights / weights.sum()
        lam = 0.05 * 3.0 * float(np.max(np.abs(D.T @ target)))
        problem = WeightedLassoProblem(design=D, target=target, total_weight=3.0, sigma2=1.0, lam=lam)
        stalls = []
        with count_lstsq_systems() as lstsq:
            reference = reference_solve_weighted_lasso(problem, np.zeros(10), stalls=stalls)
        assert stalls and max(stalls) <= 9
        assert lstsq.call_count == sum(2**size - 1 for size in stalls)
        with count_lstsq_systems() as lstsq, count_steps() as steps:
            sol = solve_weighted_lasso(problem, np.zeros(10))
        assert lstsq.call_count == 0 and steps.call_count == sol.iterations > 0
        assert reference[3] and sol.converged
        assert_no_worse(problem, sol.beta, reference[0], default_tolerance(problem))

    def test_tied_residuals_go_to_the_lowest_mask(self):
        # columns 0 and 1 are equal, so the reference's sub-supports {0, 2}
        # (mask 5) and {1, 2} (mask 6) give mirrored candidates with the same
        # KKT residual, the lowest of the stalled support's, and mask 5 wins;
        # the solver's steps from the same start must keep the same column
        # of the tied pair, and solve the problem no worse (the two end
        # points differ in their last bits)
        problem, beta0, _ = small_case()
        stalls = []
        reference = reference_solve_weighted_lasso(problem, beta0, stalls=stalls)
        with count_steps() as steps:
            sol = solve_weighted_lasso(problem, beta0)
        assert stalls and steps.call_count > 0
        assert reference[3] and sol.converged
        assert sol.beta[0] != 0 and sol.beta[1] == 0 and sol.beta[2] != 0
        assert reference[0][1] == 0
        assert_no_worse(problem, sol.beta, reference[0], default_tolerance(problem))


# Benchmark-style replicates (n=10, K=3) at a few points along a fit.
# Fits are compared whole in test_reference_loops.py; these pin the two
# partial-step pieces one by one, where a last-bit change shows directly.
states = st.fixed_dictionaries({
    "dim": st.sampled_from([1, 2, 5, 50]),
    "dilation": st.sampled_from([10.0, 30.0, 60.0, 100.0]),
    "data_seed": st.integers(0, 2**32 - 1),
    "replicate": st.integers(0, 999),
    "cycles": st.sampled_from([1, 2, 5, 60]),
    "lam": st.sampled_from([None, 0.5]),
    "tol": st.sampled_from([1e-7, 1e-8, 1e-10]),
})


# Data seed 0, replicate 1 at d=50 after one cycle: component 0's solve
# stalls on its full 10-column support, on which the reference's refine
# gives up.  No solve of PLAIN_STATE stalls.
REFINING_STATE = {"dim": 50, "dilation": 60.0, "data_seed": 0, "replicate": 1, "cycles": 1, "lam": None, "tol": 1e-7}
PLAIN_STATE = {"dim": 2, "dilation": 30.0, "data_seed": 0, "replicate": 1, "cycles": 5, "lam": None, "tol": 1e-7}


@contextlib.contextmanager
def recorded_solves():
    """The solutions of the solves ``sparse_em`` runs inside the block, in call order."""
    solve = sparse_em.solve_weighted_lasso
    solutions = []

    def recording(*args, **kwargs):
        solutions.append(solve(*args, **kwargs))
        return solutions[-1]

    with mock.patch.object(sparse_em, "solve_weighted_lasso", recording):
        yield solutions


def partial_state(case):
    config = ScenarioConfig(dim=case["dim"], dilation=case["dilation"], seed=case["data_seed"])
    Y = SampleSet(gen_replicate(config, case["replicate"]).points)
    hp = Hyperparams(restarts=1, max_cycles=case["cycles"], tol=case["tol"], lam=case["lam"])
    params = sparse_em.run(Y, 3, hp, seed=fit_seed_seq(config, case["replicate"])).params
    return Y, hp, params, sparse_em.e_step(params, Y)


class TestPartialStepsMatchReference:
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(case=states)
    @example(case=REFINING_STATE)
    @example(case=PLAIN_STATE)
    def test_update_beta_and_lams_bit_for_bit(self, case):
        Y, hp, params, tau = partial_state(case)
        lams = sparse_em.effective_lams(params, tau, Y, hp)
        assert lams.tobytes() == reference_effective_lams(params, tau, Y, hp).tobytes()
        for k in range(3):
            try:
                problem, tol = reference_beta_problem(k, params, tau, Y, hp)
            except EmptyClusterError:
                with pytest.raises(EmptyClusterError):
                    sparse_em.update_beta(k, params, tau, Y, hp, float(lams[k]))
                continue
            expected, _, _, expected_converged = reference_solve_weighted_lasso(problem, params.betas[k], tol=tol)
            with recorded_solves() as solutions:
                got = sparse_em.update_beta(k, params, tau, Y, hp, float(lams[k]))
            assert solutions[0].converged >= expected_converged
            assert_no_worse(problem, got, expected, tol)

    def test_examples_cover_both_kinds(self):
        # the explicit examples above draw, on every run, a state on which
        # the reference refines a stalled support and one on which it does not
        def stalls(case):
            Y, hp, params, tau = partial_state(case)
            out = []
            for k in range(3):
                with contextlib.suppress(EmptyClusterError):
                    problem, tol = reference_beta_problem(k, params, tau, Y, hp)
                    reference_solve_weighted_lasso(problem, params.betas[k], tol=tol, stalls=out)
            return out

        assert stalls(REFINING_STATE)
        assert not stalls(PLAIN_STATE)
