"""The lasso solver against the plain reference solver, byte for byte.

The solver reads its Gram constants from the sample and runs its
coordinate sweeps on Python floats.  The reference below is the plain
numpy solver it replaced, kept verbatim together with the helpers it
calls: the Gram built per call, the soft-threshold through numpy ufuncs
and the objective evaluated for every refine candidate.  On every input
the two must return the same bytes, signed zeros included, the same
KKT residual, sweep count and flag, or raise the same error.
"""

import contextlib
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from numpy.linalg import _umath_linalg

from sparsemix import sparse_em
from sparsemix.lasso import WeightedLassoProblem, _lstsq_stack, solve_weighted_lasso
from sparsemix.model import EmptyClusterError, Hyperparams, NumericalError, SampleSet
from sparsemix.simulate import ScenarioConfig, fit_seed_seq, gen_replicate

_SCALE_EPS = 1e-12


def reference_soft_threshold(z, gamma):
    """sign(z) * max(|z| - gamma, 0); gamma must be >= 0."""
    return np.sign(z) * np.maximum(np.abs(z) - gamma, 0.0)


def reference_stationarity_violation(grad, beta, lam):
    """Max coordinate violation of 0 in grad + lam * subdiff(|.|)."""
    on = np.abs(grad + lam * np.sign(beta))
    off = np.maximum(np.abs(grad) - lam, 0.0)
    return float(np.max(np.where(beta != 0, on, off)))


def reference_default_tolerance(problem):
    """Scale-aware stationarity tolerance, 1e-8 of the gradient scale."""
    col_max = float(np.sqrt(np.max(np.sum(problem.design**2, axis=0), initial=0.0)))
    scale = problem.smooth_scale * float(np.linalg.norm(problem.target)) * col_max
    return 1e-8 * max(scale, _SCALE_EPS)


def reference_solve_weighted_lasso(problem, beta_init, max_iters=None, tol=None):
    """Cyclic coordinate descent on F, warm-started from ``beta_init``."""
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
            resid = reference_stationarity_violation(c * (gb_cand - q), cand, lam)
            val = value(cand, gb_cand)
            if resid < current_residual and val <= base_value + 1e-12 * (1.0 + abs(base_value)):
                if best is None or resid < best[2]:
                    best = (cand, gb_cand, resid)
        return best

    sweeps = 0
    grad = c * (gb - q)
    residual = reference_stationarity_violation(grad, beta, lam)
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
        residual = reference_stationarity_violation(grad, beta, lam)
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
    noise = math.sqrt(2.0 * math.log(Y.n) * total_weight) * Y.max_row_norm / math.sqrt(sigma2)
    critical = (total_weight / sigma2) * float(np.max(np.abs(Y.data @ target), initial=0.0))
    fraction = sparse_em.LINE_PENALTY_FRACTION if Y.d == 1 else sparse_em.MAX_PENALTY_FRACTION
    return min(noise, fraction * critical)


def reference_effective_lams(params, tau, Y, hp):
    if hp.lam is not None:
        return np.full(params.K, float(hp.lam))
    out = np.empty(params.K)
    for k in range(params.K):
        s = float(tau[:, k].sum())
        if s <= sparse_em.EMPTY_FRACTION * Y.n:
            out[k] = 0.0
            continue
        m = (tau[:, k] @ Y.data) / s
        out[k] = reference_penalty_weight(hp, Y, float(params.variances[k]), s, m)
    return out


def reference_update_beta(k, params, tau, Y, hp):
    s = float(tau[:, k].sum())
    if s <= sparse_em.EMPTY_FRACTION * Y.n:
        raise EmptyClusterError(f"component {k} has responsibility mass {s:.3e}", component=k)
    m = (tau[:, k] @ Y.data) / s
    lam = reference_penalty_weight(hp, Y, float(params.variances[k]), s, m)
    problem = WeightedLassoProblem(
        design=Y.design, target=m, total_weight=s, sigma2=float(params.variances[k]), lam=lam
    )
    tol = reference_default_tolerance(problem) * min(1.0, hp.tol / 1e-8)
    return reference_solve_weighted_lasso(problem, beta_init=params.betas[k], tol=tol)[0]


def outcome(solve, *args, **kwargs):
    """A comparable record of a solve: its bytes and scalars, or its error."""
    try:
        result = solve(*args, **kwargs)
    except (NumericalError, ValueError) as err:
        return (type(err).__name__, str(err))
    if not isinstance(result, tuple):
        result = (result.beta, result.kkt_residual, result.iterations, result.converged)
    beta, residual, sweeps, converged = result
    assert beta.dtype == np.float64 and beta.shape == (beta.size,)
    return (beta.tobytes(), residual, sweeps, converged)


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


class TestSolverMatchesReference:
    @SOLVER_SETTINGS
    @given(case=problems())
    def test_solve_bit_for_bit(self, case):
        problem, beta0, stop = case
        assert outcome(solve_weighted_lasso, problem, beta0, **stop) == outcome(
            reference_solve_weighted_lasso, problem, beta0, **stop
        )

    def test_signed_zero_survives_a_sweep(self):
        # a coordinate shrunk to zero from the negative side stays -0.0
        D = np.array([[1.0, 0.0], [0.0, 1.0]])
        problem = WeightedLassoProblem(design=D, target=np.array([-0.1, 2.0]), total_weight=1.0, sigma2=1.0, lam=0.5)
        beta0 = np.array([-3.0, 0.0])
        got = solve_weighted_lasso(problem, beta0)
        assert got.beta.tobytes() == reference_solve_weighted_lasso(problem, beta0)[0].tobytes()
        assert math.copysign(1.0, got.beta[0]) == -1.0

    def test_underflowing_curvature_raises_like_reference(self):
        # c * ||D_0||^2 = 1e-10 * 1e-320 underflows to zero
        D = np.array([[1e-160, 1.0]])
        problem = WeightedLassoProblem(design=D, target=np.array([1.0]), total_weight=1e-5, sigma2=1e5, lam=0.0)
        beta0 = np.array([1.0, 0.0])
        with np.errstate(divide="ignore", invalid="ignore"):
            expected = outcome(reference_solve_weighted_lasso, problem, beta0)
        assert outcome(solve_weighted_lasso, problem, beta0) == expected
        with pytest.raises(NumericalError):
            solve_weighted_lasso(problem, beta0)


@contextlib.contextmanager
def count_lstsq_systems():
    """Count the least-squares systems LAPACK solves, one per matrix of each stack.

    Patches the gufunc that both ``np.linalg.lstsq`` and the solver's
    stacked call look up by attribute, so one counter covers both.
    """
    gufunc = _umath_linalg.lstsq
    sizes = []

    def counting(a, *args, **kwargs):
        sizes.append(math.prod(np.shape(a)[:-2]))
        return gufunc(a, *args, **kwargs)

    with mock.patch.object(_umath_linalg, "lstsq", counting):
        yield sizes


class TestRefineSystems:
    def test_solves_exactly_the_reference_systems(self):
        # d=50, n=10 near-duplicate points: refine stalls on nested supports
        # of one sign pattern, so later calls meet signed sub-supports that
        # earlier ones solved; the solver solves each of them again, as the
        # reference does, only stacked
        rng = np.random.default_rng(3)
        points = rng.normal(size=(10, 50))
        points = points[rng.integers(0, 10, size=10)] + rng.normal(size=(10, 50)) * 1e-6
        D = SampleSet(points).design
        weights = rng.random(10)
        target = D @ weights / weights.sum()
        lam = 0.05 * 3.0 * float(np.max(np.abs(D.T @ target)))
        problem = WeightedLassoProblem(design=D, target=target, total_weight=3.0, sigma2=1.0, lam=lam)
        counts = []
        outcomes = []
        for solve in (solve_weighted_lasso, reference_solve_weighted_lasso):
            with count_lstsq_systems() as sizes:
                outcomes.append(outcome(solve, problem, np.zeros(10)))
            counts.append(sum(sizes))
        assert outcomes[0] == outcomes[1]
        assert counts[0] == counts[1]

    def test_tied_residuals_go_to_the_lowest_mask(self):
        # columns 0 and 1 are equal, so the sub-supports {0, 2} (mask 5) and
        # {1, 2} (mask 6) give mirrored candidates with the same KKT
        # residual, the lowest of the stalled support's; mask 5 must win
        D = np.array([[1.1, 1.1, -2.6], [-0.1, -0.1, 1.4]])
        problem = WeightedLassoProblem(design=D, target=np.array([0.7, 1.5]), total_weight=1.0, sigma2=1.0, lam=0.19)
        beta0 = np.array([0.3, 0.6, 0.2])
        with count_lstsq_systems() as sizes:
            got = outcome(solve_weighted_lasso, problem, beta0)
        assert sum(sizes) > 0
        assert got == outcome(reference_solve_weighted_lasso, problem, beta0)
        beta = np.frombuffer(got[0])
        assert beta[0] != 0 and beta[1] == 0 and beta[2] != 0


@st.composite
def lstsq_stacks(draw):
    """(count, t, t) sub-Gram stacks with their (count, t) right-hand sides.

    Each row is a full-rank Gram, one with two equal or near-equal
    columns, a rank-deficient or an all-zero one, or one whose smallest
    singular value lies between eps / 2 and 2t eps, around the cutoff
    eps * t; each is scaled by 1e-150, 1 or 1e150.  Or it is a NaN row:
    a NaN in the right-hand side or an all-NaN sub-Gram.  A lone NaN or
    inf entry in a sub-Gram is left out: on some LAPACK builds its SVD
    never returns, stacked or not.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    t = draw(st.integers(1, 9))
    kinds = draw(st.lists(st.sampled_from(["full", "duplicate", "near_duplicate", "singular", "zero",
                                           "cutoff", "nan_rhs", "nan_gram"]), min_size=1, max_size=40))
    subs = np.empty((len(kinds), t, t))
    rhs = np.empty((len(kinds), t))
    for sub, r, kind in zip(subs, rhs, kinds):
        points = rng.normal(size=(int(rng.integers(0, t)) if kind == "singular" else t + 1, t))
        if kind in ("duplicate", "near_duplicate") and t > 1:
            i, j = rng.choice(t, size=2, replace=False)
            points[:, j] = points[:, i] + (rng.normal(size=len(points)) * 1e-6 if kind == "near_duplicate" else 0.0)
        if kind == "cutoff":
            q = np.linalg.qr(points[:t])[0]
            values = np.ones(t)
            values[-1] = np.finfo(float).eps * rng.uniform(0.5, 2 * t)
            points = values[:, None] ** 0.5 * q.T  # points.T @ points = q diag(values) q^T
        sub[:] = points.T @ points * draw(st.sampled_from([1e-150, 1.0, 1e150]))
        r[:] = rng.normal(size=t) * draw(st.sampled_from([1e-150, 1.0, 1e150]))
        if kind == "zero":
            sub[:] = 0.0
        elif kind == "nan_rhs":
            r[rng.integers(0, t)] = np.nan
        elif kind == "nan_gram":
            sub[:] = np.nan
    # a sub-Gram repeated across rows, as when two sign patterns share a column set
    if len(kinds) > 1 and draw(st.booleans()):
        subs[-1] = subs[0]
    return subs, rhs


def lstsq_outcome(solve):
    """Each row's solution bytes, or the error message."""
    try:
        return [x.tobytes() for x in solve()]
    except np.linalg.LinAlgError as err:
        return str(err)


class TestLstsqStack:
    @settings(max_examples=300, deadline=None)
    @given(case=lstsq_stacks())
    def test_matches_lstsq_per_matrix_bit_for_bit(self, case):
        subs, rhs = case
        expected = lstsq_outcome(lambda: [np.linalg.lstsq(sub, r, rcond=None)[0] for sub, r in zip(subs, rhs)])
        got = lstsq_outcome(lambda: _lstsq_stack(subs, rhs))
        assert got == expected

    def test_one_lapack_call_per_stack(self):
        subs = np.broadcast_to(np.eye(3), (5, 3, 3))
        with count_lstsq_systems() as sizes:
            x = _lstsq_stack(subs, np.ones((5, 3)))
        assert sizes == [5]
        assert x.shape == (5, 3) and x.dtype == np.float64


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


class TestPartialStepsMatchReference:
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(case=states)
    def test_update_beta_and_lams_bit_for_bit(self, case):
        config = ScenarioConfig(dim=case["dim"], dilation=case["dilation"], seed=case["data_seed"])
        Y = SampleSet(gen_replicate(config, case["replicate"]).points)
        hp = Hyperparams(restarts=1, max_cycles=case["cycles"], tol=case["tol"], lam=case["lam"])
        params = sparse_em.run(Y, 3, hp, seed=fit_seed_seq(config, case["replicate"])).params
        tau = sparse_em.e_step(params, Y)
        lams = sparse_em.effective_lams(params, tau, Y, hp)
        assert lams.tobytes() == reference_effective_lams(params, tau, Y, hp).tobytes()
        for k in range(3):
            try:
                expected = reference_update_beta(k, params, tau, Y, hp)
            except EmptyClusterError:
                with pytest.raises(EmptyClusterError):
                    sparse_em.update_beta(k, params, tau, Y, hp, float(lams[k]))
                continue
            assert sparse_em.update_beta(k, params, tau, Y, hp, float(lams[k])).tobytes() == expected.tobytes()
