"""Weighted lasso solver: closed-form cases, independent oracles, KKT."""

import itertools
import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from sparsemix.lasso import (
    LassoSolution,
    WeightedLassoProblem,
    _stationarity_violation,
    _stationarity_violations,
    _subsets,
    kkt_residual,
    objective,
    soft_threshold,
    solve_weighted_lasso,
)
from sparsemix.model import EmptyClusterError, Gram, SampleSet


def make_problem(rng, n=4, d=3, lam=0.5, s=2.0, sigma2=1.5, design=None, target=None):
    D = rng.normal(size=(d, n)) if design is None else design
    m = rng.normal(size=d) if target is None else target
    return WeightedLassoProblem(design=D, target=m, total_weight=s, sigma2=sigma2, lam=lam)


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


class TestSoftThreshold:
    def test_positive_shrinkage(self):
        assert soft_threshold(3.0, 1.0) == 2.0

    def test_kill_zone(self):
        assert soft_threshold(-0.5, 1.0) == 0.0

    def test_identity_at_zero_threshold(self):
        z = np.array([-2.0, 0.0, 0.7])
        npt.assert_array_equal(soft_threshold(z, 0.0), z)

    def test_odd_symmetry(self):
        z = np.linspace(-3, 3, 13)
        npt.assert_allclose(soft_threshold(-z, 0.4), -soft_threshold(z, 0.4))


class TestSolveWeightedLasso:
    def test_orthonormal_design_zero_penalty_projects(self):
        # unit-norm orthogonal columns, s/sigma2 = 1: beta_j = D_j . m
        D = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        m = np.array([0.8, -0.3, 0.9])
        problem = WeightedLassoProblem(design=D, target=m, total_weight=1.0, sigma2=1.0, lam=0.0)
        sol = solve_weighted_lasso(problem, np.zeros(2))
        npt.assert_allclose(sol.beta, D.T @ m, atol=1e-12)
        assert sol.converged

    def test_supercritical_lambda_returns_exact_zero(self):
        rng = np.random.default_rng(30)
        for _ in range(10):
            D = rng.normal(size=(3, 5))
            m = rng.normal(size=3)
            s, sigma2 = 2.5, 0.7
            crit = (s / sigma2) * np.max(np.abs(D.T @ m))
            problem = WeightedLassoProblem(
                design=D, target=m, total_weight=s, sigma2=sigma2, lam=1.0001 * crit
            )
            sol = solve_weighted_lasso(problem, rng.normal(size=5))
            npt.assert_array_equal(sol.beta, np.zeros(5))
            assert kkt_residual(problem, sol.beta) == 0.0

    def test_matches_sign_pattern_enumeration(self):
        rng = np.random.default_rng(31)
        problem = make_problem(rng, n=3, d=2, lam=0.8)
        sol = solve_weighted_lasso(problem, np.zeros(3), tol=1e-12)
        assert objective(problem, sol.beta) == pytest.approx(
            enumerate_sign_patterns(problem), abs=1e-6
        )

    def test_zero_penalty_matches_least_squares(self):
        # full column rank needs n <= d for a (d, n) design
        rng = np.random.default_rng(32)
        D = rng.normal(size=(6, 4))
        m = rng.normal(size=6)
        problem = WeightedLassoProblem(design=D, target=m, total_weight=3.0, sigma2=2.0, lam=0.0)
        sol = solve_weighted_lasso(problem, np.zeros(4), tol=1e-12, max_iters=5000)
        expected, *_ = np.linalg.lstsq(D, m, rcond=None)
        npt.assert_allclose(sol.beta, expected, atol=1e-6)

    def test_joint_scaling_invariance(self):
        # scaling s/sigma2 and lam by the same factor keeps the minimizer
        rng = np.random.default_rng(33)
        D = rng.normal(size=(3, 4))
        m = rng.normal(size=3)
        p1 = WeightedLassoProblem(design=D, target=m, total_weight=2.0, sigma2=1.0, lam=0.6)
        p2 = WeightedLassoProblem(design=D, target=m, total_weight=14.0, sigma2=7.0, lam=0.6 * 7.0 / 7.0)
        p3 = WeightedLassoProblem(design=D, target=m, total_weight=10.0, sigma2=1.0, lam=3.0)
        b1 = solve_weighted_lasso(p1, np.zeros(4), tol=1e-13).beta
        b3 = solve_weighted_lasso(p3, np.zeros(4), tol=1e-13).beta
        npt.assert_allclose(b1, b3, atol=1e-8)
        b2 = solve_weighted_lasso(p2, np.zeros(4), tol=1e-13).beta
        npt.assert_allclose(b1, b2, atol=1e-8)

    def test_zero_columns_forced_to_zero(self):
        rng = np.random.default_rng(34)
        D = rng.normal(size=(3, 4))
        D[:, 2] = 0.0
        problem = WeightedLassoProblem(
            design=D, target=rng.normal(size=3), total_weight=1.0, sigma2=1.0, lam=0.1
        )
        sol = solve_weighted_lasso(problem, np.array([0.0, 0.0, 5.0, 0.0]))
        assert sol.beta[2] == 0.0
        assert sol.converged

    def test_objective_nonincreasing_per_sweep(self):
        rng = np.random.default_rng(35)
        problem = make_problem(rng, n=6, d=3, lam=0.4)
        beta0 = rng.normal(size=6)
        values = [objective(problem, beta0)]
        for sweeps in range(1, 8):
            sol = solve_weighted_lasso(problem, beta0, max_iters=sweeps, tol=0.0)
            values.append(objective(problem, sol.beta))
        diffs = np.diff(values)
        assert np.all(diffs <= 1e-12)

    def test_warm_start_at_optimum_converges_immediately(self):
        rng = np.random.default_rng(36)
        problem = make_problem(rng, n=4, d=3, lam=0.3)
        sol = solve_weighted_lasso(problem, np.zeros(4), tol=1e-12)
        again = solve_weighted_lasso(problem, sol.beta, tol=1e-10)
        assert again.iterations == 0
        npt.assert_allclose(again.beta, sol.beta)

    def test_nonconvergence_flag(self):
        rng = np.random.default_rng(37)
        problem = make_problem(rng, n=8, d=4, lam=0.01)
        sol = solve_weighted_lasso(problem, rng.normal(size=8), max_iters=1, tol=1e-14)
        assert not sol.converged
        assert sol.iterations == 1

    def test_empty_cluster_error(self):
        rng = np.random.default_rng(38)
        with pytest.raises(EmptyClusterError):
            WeightedLassoProblem(
                design=rng.normal(size=(2, 3)),
                target=rng.normal(size=2),
                total_weight=0.0,
                sigma2=1.0,
                lam=0.1,
            )

    @pytest.mark.parametrize("total_weight", [np.nan, np.inf, -np.inf])
    def test_nonfinite_total_weight_is_a_value_error(self, total_weight):
        # not an EmptyClusterError: that one names a component to re-seed
        rng = np.random.default_rng(38)
        with pytest.raises(ValueError, match="total_weight must be finite"):
            WeightedLassoProblem(
                design=rng.normal(size=(2, 3)),
                target=rng.normal(size=2),
                total_weight=total_weight,
                sigma2=1.0,
                lam=0.1,
            )

    def test_negative_total_weight_is_empty(self):
        rng = np.random.default_rng(38)
        with pytest.raises(EmptyClusterError):
            WeightedLassoProblem(
                design=rng.normal(size=(2, 3)), target=rng.normal(size=2), total_weight=-1.0, sigma2=1.0, lam=0.1
            )

    def test_precomputed_gram_gives_identical_solution(self):
        rng = np.random.default_rng(44)
        for d in (1, 2, 5, 50):
            Y = SampleSet(rng.normal(size=(10, d)) * 30.0)
            m = Y.design @ rng.random(10) / 3.0
            for lam in (0.0, 0.05, 5.0):
                args = dict(design=Y.design, target=m, total_weight=3.0, sigma2=40.0, lam=lam)
                shared = WeightedLassoProblem(**args, gram=Y.gram)
                own = WeightedLassoProblem(**args)
                assert shared.gram is Y.gram and own.gram is not Y.gram
                beta0 = rng.normal(size=10)
                a = solve_weighted_lasso(shared, beta0)
                b = solve_weighted_lasso(own, beta0)
                assert a.beta.tobytes() == b.beta.tobytes()
                assert (a.kkt_residual, a.iterations, a.converged) == (b.kkt_residual, b.iterations, b.converged)

    def test_rejects_gram_of_another_size(self):
        rng = np.random.default_rng(45)
        with pytest.raises(ValueError, match="gram"):
            WeightedLassoProblem(
                design=rng.normal(size=(3, 4)), target=rng.normal(size=3), total_weight=1.0, sigma2=1.0,
                lam=0.1, gram=Gram.of(rng.normal(size=(3, 5))),
            )

    def test_rejects_nonfinite_inputs(self):
        rng = np.random.default_rng(39)
        D = rng.normal(size=(2, 3))
        D[0, 0] = np.nan
        with pytest.raises(ValueError):
            WeightedLassoProblem(design=D, target=np.zeros(2), total_weight=1.0, sigma2=1.0, lam=0.1)
        problem = make_problem(rng, n=3, d=2)
        with pytest.raises(ValueError):
            solve_weighted_lasso(problem, np.array([np.inf, 0.0, 0.0]))

    @pytest.mark.parametrize("field, value, error, message", [
        ("lam", -0.5, ValueError, "lam must be >= 0, got -0.5"),
        ("lam", True, ValueError, "lam takes numbers, not bools, got True"),
        ("total_weight", True, ValueError, "total_weight takes numbers, not bools, got True"),
        ("sigma2", True, ValueError, "sigma2 takes numbers, not bools, got True"),
        ("total_weight", math.inf, ValueError, "total_weight must be finite, got inf"),
        ("total_weight", -1.0, EmptyClusterError, "total_weight must be positive, got -1.0"),
        ("sigma2", -1.0, ValueError, "sigma2 must be positive and finite, got -1.0"),
        ("sigma2", math.nan, ValueError, "sigma2 must be positive and finite, got nan"),
        ("design", np.zeros(50), ValueError, r"design must be a 2-d array \(d, n\), got shape \(50,\)"),
        ("target", np.zeros(49), ValueError, r"target must have shape \(50,\), got \(49,\)"),
        ("design", np.where(np.arange(500).reshape(50, 10) == 12, np.nan, 1.0), ValueError,
         r"design contains non-finite entries, got nan at \(1, 2\)"),
        ("target", np.where(np.arange(50) == 3, -np.inf, 0.5), ValueError,
         r"target contains non-finite entries, got -inf at \(3,\)"),
        ("gram", Gram.of(np.ones((50, 11))), ValueError, r"gram must have shape \(10, 10\), got \(11, 11\)"),
    ])
    def test_input_errors_name_the_value(self, field, value, error, message):
        args = dict(design=np.ones((50, 10)), target=np.zeros(50), total_weight=1.0, sigma2=1.0, lam=0.5)
        with pytest.raises(error, match=f"^{message}$"):
            WeightedLassoProblem(**{**args, field: value})

    @pytest.mark.parametrize("beta_init, message", [
        (np.zeros(9), r"beta_init must have shape \(10,\), got \(9,\)"),
        (np.where(np.arange(10) == 4, np.nan, 0.0), r"beta_init contains non-finite entries, got nan at \(4,\)"),
    ])
    def test_beta_init_errors_name_the_value(self, beta_init, message):
        problem = WeightedLassoProblem(design=np.ones((50, 10)), target=np.zeros(50), total_weight=1.0, sigma2=1.0,
                                       lam=0.5)
        with pytest.raises(ValueError, match=f"^{message}$"):
            solve_weighted_lasso(problem, beta_init)

    def test_trusted_problem_matches_validated(self):
        rng = np.random.default_rng(46)
        Y = SampleSet(rng.normal(size=(10, 2)) * 30.0)
        D = Y.design
        m = D @ rng.random(10) / 3.0
        checked = WeightedLassoProblem(design=D, target=m, total_weight=3.0, sigma2=40.0, lam=0.5, gram=Y.gram)
        trusted = WeightedLassoProblem._trusted(D, m, 3.0, 40.0, 0.5, Y.gram)
        assert vars(trusted).keys() == vars(checked).keys()
        for name, value in vars(checked).items():
            got = getattr(trusted, name)
            assert got is value if isinstance(value, (np.ndarray, Gram)) else got == value, name
        beta0 = rng.normal(size=10)
        a, b = solve_weighted_lasso(trusted, beta0), solve_weighted_lasso(checked, beta0)
        assert a.beta.tobytes() == b.beta.tobytes() and a.kkt_residual == b.kkt_residual
        for sigma2 in (math.inf, 0.0, math.nan):
            with pytest.raises(ValueError, match="sigma2"):
                WeightedLassoProblem._trusted(D, m, 3.0, sigma2, 0.5, Y.gram)


class TestRefineCandidateCache:
    @pytest.mark.parametrize("seed, d, fraction", [(11, 50, 0.2), (21, 2, 0.01), (34, 5, 0.05)])
    def test_reaccepted_candidate_matches_reference(self, seed, d, fraction):
        # With tol = 0 refine accepts some cached candidate more than once
        # in a solve.  The sweep updates the gram @ cand it was handed in
        # place, so the cache must hand out a copy: a shared row would
        # give the second acceptance a stale product.
        from test_lasso_reference import outcome, reference_solve_weighted_lasso

        rng = np.random.default_rng(seed)
        points = rng.normal(size=(10, d))
        points = points[rng.integers(0, 10, size=10)] + rng.normal(size=(10, d)) * 1e-6
        D = SampleSet(points).design
        weights = rng.random(10)
        target = D @ weights / weights.sum()
        lam = fraction * 3.0 * float(np.max(np.abs(D.T @ target)))
        problem = WeightedLassoProblem(design=D, target=target, total_weight=3.0, sigma2=1.0, lam=lam)
        assert outcome(solve_weighted_lasso, problem, np.zeros(10), tol=0.0) == outcome(
            reference_solve_weighted_lasso, problem, np.zeros(10), tol=0.0)


def numpy_stationarity_violation(grad, beta, lam):
    on = np.abs(grad + lam * np.sign(beta))
    off = np.maximum(np.abs(grad) - lam, 0.0)
    return float(np.where(beta != 0, on, off).max())


coordinates = st.one_of(
    st.floats(-1e3, 1e3), st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 1e-300, 1e300])
)


class TestStationarityViolation:
    @given(pairs=st.lists(st.tuples(coordinates, coordinates), min_size=1, max_size=60),
           lam=st.sampled_from([0.0, -0.0, 0.5, 3, 1e300]))
    def test_matches_numpy_formula(self, pairs, lam):
        grad = np.array([g for g, _ in pairs])
        beta = np.array([b for _, b in pairs])
        with np.errstate(all="ignore"):
            expected = numpy_stationarity_violation(grad, beta, lam)
            got = _stationarity_violation(grad, beta.tolist(), lam)
        assert type(got) is float
        assert got == expected or (math.isnan(got) and math.isnan(expected))
        assert math.copysign(1.0, got) == math.copysign(1.0, expected)


def as_bytes(x) -> bytes:
    return np.float64(x).tobytes()


class TestStationarityViolations:
    # refine scores all its new candidates at once; each row must give the
    # bytes of the per-vector rule, which the coordinate sweep uses
    @given(rows=st.integers(1, 12).flatmap(lambda n: st.lists(
               st.tuples(st.lists(coordinates, min_size=n, max_size=n), st.lists(coordinates, min_size=n, max_size=n)),
               min_size=1, max_size=6)),
           lam=st.sampled_from([0.0, -0.0, 0.5, 3, 1e300]))
    # the first row's violations are all negative, so it must read +0.0
    @example(rows=[([0.25, -0.5, -0.0], [0.0, -0.0, 0.0]), ([4.0, 0.1, 0.2], [0.0, 0.0, 0.0])], lam=3)
    def test_rows_match_the_vector_rule(self, rows, lam):
        grads = np.array([g for g, _ in rows])
        betas = np.array([b for _, b in rows])
        got = _stationarity_violations(grads, betas, lam)
        assert got.shape == (len(rows),)
        for row, (g, b) in zip(got.tolist(), rows):
            assert as_bytes(row) == as_bytes(_stationarity_violation(np.array(g), b, lam))


class TestSubsets:
    @pytest.mark.parametrize("size", range(1, 10))
    def test_groups_list_every_mask_once_with_its_members(self, size):
        groups = _subsets(size)
        assert len(groups) == size
        seen = []
        for t, (masks, members) in enumerate(groups, start=1):
            assert masks == sorted(masks)
            assert members.shape == (len(masks), t)
            for mask, row in zip(masks, members.tolist()):
                assert row == [i for i in range(size) if mask >> i & 1]
            seen += masks
        assert sorted(seen) == list(range(1, 2**size))


class TestKktResidual:
    def test_zero_at_minimizer(self):
        rng = np.random.default_rng(40)
        problem = make_problem(rng, n=5, d=3, lam=0.7)
        sol = solve_weighted_lasso(problem, np.zeros(5), tol=1e-10)
        assert sol.converged
        assert kkt_residual(problem, sol.beta) <= 1e-10

    def test_zero_at_origin_when_lambda_dominates(self):
        rng = np.random.default_rng(41)
        D = rng.normal(size=(3, 4))
        m = rng.normal(size=3)
        grad0 = np.max(np.abs(D.T @ m))  # s/sigma2 = 1
        problem = WeightedLassoProblem(
            design=D, target=m, total_weight=1.0, sigma2=1.0, lam=grad0 * 1.5
        )
        assert kkt_residual(problem, np.zeros(4)) == 0.0

    def test_positive_and_decreasing_along_sweeps(self):
        rng = np.random.default_rng(42)
        problem = make_problem(rng, n=5, d=4, lam=0.2)
        beta0 = rng.normal(size=5)
        residuals = [kkt_residual(problem, beta0)]
        for sweeps in range(1, 6):
            sol = solve_weighted_lasso(problem, beta0, max_iters=sweeps, tol=0.0)
            residuals.append(kkt_residual(problem, sol.beta))
        assert residuals[0] > 0.0
        assert np.all(np.diff(residuals) <= 1e-12)

    def test_solution_dataclass_contents(self):
        rng = np.random.default_rng(43)
        problem = make_problem(rng, n=4, d=3, lam=0.5)
        sol = solve_weighted_lasso(problem, np.zeros(4))
        assert isinstance(sol, LassoSolution)
        assert sol.kkt_residual >= 0.0
        assert sol.kkt_residual == pytest.approx(kkt_residual(problem, sol.beta), abs=1e-14)
