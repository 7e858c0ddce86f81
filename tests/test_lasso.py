"""Weighted lasso solver: closed-form cases, independent oracles, KKT."""

import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sparsemix.lasso import (
    LassoSolution,
    WeightedLassoProblem,
    _violations,
    default_tolerance,
    kkt_residual,
    objective,
    solve_weighted_lasso,
)
from sparsemix.model import EmptyClusterError, Gram, SampleSet
from sparsemix.simulate import ScenarioConfig, gen_replicate
from oracles import enumerate_sign_patterns, numpy_stationarity_violation
from test_lasso_reference import count_steps, near_duplicate_pairs_case, reference_stalls


def make_problem(rng, n=4, d=3, lam=0.5, s=2.0, sigma2=1.5, design=None, target=None):
    D = rng.normal(size=(d, n)) if design is None else design
    m = rng.normal(size=d) if target is None else target
    return WeightedLassoProblem(design=D, target=m, total_weight=s, sigma2=sigma2, lam=lam)


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

    def test_objective_nonincreasing_per_step(self):
        # from a dense start on a rank-3 design the first steps are null
        # steps, which drop a column each and leave the fit alone, and the
        # solves follow; each run of max_iters steps is the first max_iters
        # steps of the next, so F must fall or stay from one to the next
        rng = np.random.default_rng(35)
        problem = make_problem(rng, n=6, d=3, lam=0.4)
        beta0 = rng.normal(size=6)
        values = [objective(problem, beta0)]
        for steps in range(1, 8):
            sol = solve_weighted_lasso(problem, beta0, max_iters=steps, tol=0.0)
            assert sol.iterations <= steps
            values.append(objective(problem, sol.beta))
        diffs = np.diff(values)
        assert np.all(diffs <= 1e-12)
        assert values[-1] < values[0]

    def test_warm_start_at_optimum_converges_immediately(self):
        rng = np.random.default_rng(36)
        problem = make_problem(rng, n=4, d=3, lam=0.3)
        sol = solve_weighted_lasso(problem, np.zeros(4), tol=1e-12)
        again = solve_weighted_lasso(problem, sol.beta, tol=1e-10)
        assert again.iterations == 0
        npt.assert_allclose(again.beta, sol.beta)

    def test_nonconvergence_flag(self):
        # from 0 the one step adds one column and solves on it
        rng = np.random.default_rng(37)
        problem = make_problem(rng, n=8, d=4, lam=0.01)
        sol = solve_weighted_lasso(problem, np.zeros(8), max_iters=1, tol=1e-14)
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
                lam=0.1, gram=Gram(rng.normal(size=(3, 5))),
            )

    def test_rejects_gram_of_another_design(self):
        # same shape, other entries: the factorisations it caches would be of
        # the other design.  With only D[0, 0]'s sign flipped the column
        # scales are equal, so only the entries tell the designs apart; a
        # solve from 0 on that Gram stops unconverged at residual 1.32.  A
        # Gram of an equal copy of the design is accepted, the problem reads
        # the copy's design, and the solve converges.
        rng = np.random.default_rng(47)
        D = rng.normal(size=(3, 4))
        args = dict(design=D, target=rng.normal(size=3), total_weight=1.0, sigma2=1.0, lam=0.1)
        flipped = D.copy()
        flipped[0, 0] = -flipped[0, 0]
        for other in (2.0 * D, flipped):
            with pytest.raises(ValueError, match="^gram must be of this design: its entries differ$"):
                WeightedLassoProblem(**args, gram=Gram(other))
        gram = Gram(D.copy())
        problem = WeightedLassoProblem(**args, gram=gram)
        assert problem.gram is gram and problem.design is gram.design
        sol = solve_weighted_lasso(problem, np.zeros(4))
        assert sol.converged and sol.kkt_residual <= 1e-15

    def test_leaves_the_callers_design_writable(self):
        # the Gram freezes a view of its own, not the caller's array, and
        # neither building nor solving writes to it
        rng = np.random.default_rng(48)
        D = rng.normal(size=(3, 6))
        before = D.tobytes()
        for gram in (None, Gram(D)):
            problem = WeightedLassoProblem(design=D, target=rng.normal(size=3), total_weight=2.0, sigma2=1.0,
                                           lam=0.2, gram=gram)
            sol = solve_weighted_lasso(problem, rng.normal(size=6))
            assert sol.converged and sol.iterations > 0
            assert problem.design is problem.gram.design and problem.design is not D
            assert not problem.design.flags.writeable and np.shares_memory(problem.design, D)
            assert D.flags.writeable and D.tobytes() == before

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
        ("gram", Gram(np.ones((50, 11))), ValueError, r"gram must be of a design of shape \(50, 10\), got \(50, 11\)"),
        ("gram", Gram(np.ones((10, 50))), ValueError, r"gram must be of a design of shape \(50, 10\), got \(10, 50\)"),
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

    @pytest.mark.parametrize("stop, message", [
        ({"tol": -1.0}, r"tol must be >= 0, got -1\.0"),
        ({"tol": math.nan}, r"tol must be >= 0, got nan"),
        ({"max_iters": 2.5}, r"max_iters must be an integer, got 2\.5"),
        ({"max_iters": -1}, r"max_iters must be >= 0, got -1"),
    ])
    def test_stop_setting_errors_name_the_value(self, stop, message):
        # lambda above the critical value: the start is the solution, exact zeros at
        # residual 0, so an unchecked setting would go unnoticed
        D = np.array([[1.0, 0.5, -0.2], [0.3, -1.0, 0.8]])
        problem = WeightedLassoProblem(design=D, target=np.array([0.4, -0.6]), total_weight=1.0, sigma2=1.0,
                                       lam=10.0)
        with pytest.raises(ValueError, match=f"^{message}$"):
            solve_weighted_lasso(problem, np.zeros(3), **stop)

    def test_trusted_problem_matches_validated(self):
        rng = np.random.default_rng(46)
        Y = SampleSet(rng.normal(size=(10, 2)) * 30.0)
        D = Y.design
        m = D @ rng.random(10) / 3.0
        checked = WeightedLassoProblem(design=D, target=m, total_weight=3.0, sigma2=40.0, lam=0.5, gram=Y.gram)
        trusted = WeightedLassoProblem._trusted(m, 3.0, 40.0, 0.5, Y.gram)
        # both read the sample's design through its Gram
        assert trusted.design is checked.design is Y.gram.design
        assert vars(trusted).keys() == vars(checked).keys()
        for name, value in vars(checked).items():
            got = getattr(trusted, name)
            assert got is value if isinstance(value, (np.ndarray, Gram)) else got == value, name
        beta0 = rng.normal(size=10)
        a, b = solve_weighted_lasso(trusted, beta0), solve_weighted_lasso(checked, beta0)
        assert a.beta.tobytes() == b.beta.tobytes() and a.kkt_residual == b.kkt_residual
        for sigma2 in (math.inf, 0.0, math.nan):
            with pytest.raises(ValueError, match="sigma2"):
                WeightedLassoProblem._trusted(m, 3.0, sigma2, 0.5, Y.gram)


class TestStalledLargeSupport:
    """Stalls on more than 9 columns, on which the reference's sub-support enumeration gives up."""

    def test_near_duplicate_pairs_match_enumeration(self):
        # d=50, n=10 points in near-duplicate pairs from a random start:
        # coordinate descent stalls on the full support, and without a
        # feature-sign finish ran to its 100-sweep cap unconverged
        problem, beta0, _ = near_duplicate_pairs_case()
        sol = solve_weighted_lasso(problem, beta0)
        assert sol.converged and sol.kkt_residual <= default_tolerance(problem)
        value = objective(problem, sol.beta)
        assert abs(value - enumerate_sign_patterns(problem)) <= 1e-9 * (1.0 + abs(value))

    def test_max_iters_bounds_the_steps(self):
        # max_iters counts every step, null steps and solves alike: a budget
        # short of the full solve's steps stops after that many, unconverged,
        # with F between the start's and the full solve's
        problem, beta0, _ = near_duplicate_pairs_case()
        full = solve_weighted_lasso(problem, beta0)
        assert full.converged and full.iterations > 1
        for budget in range(1, full.iterations):
            sol = solve_weighted_lasso(problem, beta0, max_iters=budget)
            assert sol.iterations == budget and not sol.converged
            assert objective(problem, full.beta) <= objective(problem, sol.beta) <= objective(problem, beta0)
        again = solve_weighted_lasso(problem, beta0, max_iters=full.iterations)
        assert again.beta.tobytes() == full.beta.tobytes() and again.converged

    def test_rank_deficient_duplicates(self):
        # d=2, n=12: six points, each twice, from a dense random start; the
        # reference's coordinate descent stalls at 10 or more columns of a
        # rank-2 design, and without a feature-sign finish the 0.01 problem
        # ended unconverged after 120 sweeps.  The solver steps along null
        # vectors before it solves a system.
        for fraction in (0.01, 0.1, 1.01, 1.5):
            rng = np.random.default_rng(7)
            D = SampleSet(rng.normal(size=(6, 2))[np.arange(12) // 2]).design
            weights = rng.random(12)
            target = D @ weights / weights.sum()
            critical = 3.0 * float(np.max(np.abs(D.T @ target)))
            problem = WeightedLassoProblem(design=D, target=target, total_weight=3.0, sigma2=1.0,
                                           lam=fraction * critical)
            beta0 = rng.normal(size=12)
            assert max(reference_stalls((problem, beta0, {}))) >= 10
            with np.errstate(all="raise"):
                sol = solve_weighted_lasso(problem, beta0)
            assert sol.converged
            if fraction > 1:
                assert np.all(sol.beta == 0.0)


@st.composite
def solve_sequences(draw):
    """A design and a run of warm-started lasso subproblems on it, as one sample's fit makes them.

    The design has up to 10 centered points in d = 1, 2 or 5, with exact
    duplicate columns or zeroed ones when drawn.  Each solve starts from
    0, from a dense random point (an active set larger than d, where d < n)
    or from the solution of the solve before it.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.sampled_from([1, 2, 5]))
    n = draw(st.integers(1, 10))
    points = rng.normal(size=(n, d))
    if draw(st.booleans()):
        points = points[rng.integers(0, n, size=n)]
    design = SampleSet(points).design.copy()
    design[:, draw(st.lists(st.integers(0, n - 1), max_size=2))] = 0.0
    solves = []
    for _ in range(draw(st.integers(1, 8))):
        weights = rng.random(n)
        target = design @ weights / weights.sum()
        s, sigma2 = float(rng.uniform(0.5, n)), float(rng.uniform(0.5, 2.0))
        lam = draw(st.sampled_from([0.0, 0.05, 0.3, 1.5])) * (s / sigma2) * float(np.max(np.abs(design.T @ target)))
        solves.append((target, s, sigma2, lam, draw(st.sampled_from(["zero", "dense", "previous"]))))
    return design, solves


def shared_and_fresh_solves(design, solves):
    """Solve ``solves`` in turn on one shared Gram and each on a fresh one; returns the shared Gram and both outcomes."""
    shared = Gram(design)
    rng = np.random.default_rng(0)
    outcomes = {"shared": [], "fresh": []}
    beta0 = np.zeros(design.shape[1])
    for target, s, sigma2, lam, start in solves:
        if start != "previous":
            beta0 = rng.normal(size=design.shape[1]) if start == "dense" else np.zeros(design.shape[1])
        for label, gram in (("shared", shared), ("fresh", None)):
            problem = WeightedLassoProblem(design=design, target=target, total_weight=s, sigma2=sigma2, lam=lam,
                                           gram=gram)
            sol = solve_weighted_lasso(problem, beta0)
            outcomes[label].append((sol.beta.tobytes(), sol.kkt_residual, sol.iterations, sol.converged))
        beta0 = sol.beta
    return shared, outcomes


def duplicates_and_zeros_case():
    # d = 1, eight columns from four points, each twice, and one zeroed: the
    # dense starts take null steps on active sets of up to 7 columns, and
    # later solves meet active sets that earlier ones factorised
    design = SampleSet(np.random.default_rng(8).normal(size=(4, 1))[np.arange(8) // 2]).design.copy()
    design[:, 3] = 0.0
    target = design @ np.linspace(0.1, 0.8, 8) / 3.6
    return design, [(target, 2.0, 1.0, lam, start) for lam in (0.0, 0.1, 0.5)
                    for start in ("dense", "previous", "zero", "dense")]


class TestFaceCache:
    """The active-set factorisations cached on a Gram change no solve's output."""

    @settings(max_examples=200, deadline=None)
    @given(case=solve_sequences())
    @example(case=duplicates_and_zeros_case())
    def test_warm_cache_changes_no_output(self, case):
        shared, outcomes = shared_and_fresh_solves(*case)
        assert outcomes["shared"] == outcomes["fresh"]
        d = case[0].shape[0]
        for key, face in shared.faces.items():
            assert all(not array.flags.writeable for array in face)
            active = np.frombuffer(key, dtype=np.intp)
            if face[0].ndim == 1:  # rank-deficient: its null vector alone
                assert len(face) == 1 and face[0].shape == active.shape
            else:
                assert len(face) == 5 and face[0].shape == (d, active.size) and active.size <= d

    def test_example_reuses_rank_deficient_faces_larger_than_d(self):
        design, solves = duplicates_and_zeros_case()
        with count_steps() as steps:
            shared, _ = shared_and_fresh_solves(design, solves)
        sizes = [np.frombuffer(key, dtype=np.intp).size for key, face in shared.faces.items() if face[0].ndim == 1]
        assert max(sizes) > design.shape[0] == 1
        # half the steps counted are the shared Gram's, and some of those reuse a face
        assert len(shared.faces) < steps.call_count / 2


class TestRoundOffCoordinates:
    def test_dropped_at_equal_objective(self):
        # a warm start at the exact fit of the mean of points 2, 5 and 6, with
        # two more coordinates at round-off size, as an earlier solve can
        # leave them; the solve on that support crosses zero in them almost
        # at once, where F is equal to rounding.  The step still drops them,
        # where a strict decrease of F stopped the solve at residual lam = 0.5
        Y = SampleSet(gen_replicate(ScenarioConfig(dim=50, dilation=100.0, seed=942), 942).points)
        target = (Y.data[2] + Y.data[5] + Y.data[6]) / 3
        beta0 = np.array([1e-16, 0.0, 1 / 3, 0.0, -3e-16, 1 / 3, 1 / 3, 0.0, 0.0, 0.0])
        for sigma2 in (1.0, 5.0, 20.0):
            problem = WeightedLassoProblem(design=Y.design, target=target, total_weight=3.0, sigma2=sigma2, lam=0.5)
            sol = solve_weighted_lasso(problem, beta0)
            assert sol.converged and sol.beta[0] == sol.beta[4] == 0.0
            assert objective(problem, sol.beta) < objective(problem, beta0)


class TestRefineReacceptance:
    @pytest.mark.parametrize("seed, d, fraction", [(11, 50, 0.2), (21, 2, 0.01), (34, 5, 0.05)])
    def test_reaccepted_candidate_matches_reference(self, seed, d, fraction):
        # With tol = 0 the reference's refine accepts a candidate again and
        # again in one solve (97 or 98 times here); the solver takes its
        # feature-sign steps, one call each.  The tol = 0 flags cannot be
        # compared; the end point must solve the problem no worse than the
        # reference's and keep F below its start.
        from test_lasso_reference import (
            assert_no_worse,
            assert_solver_guarantees,
            count_steps,
            reference_solve_weighted_lasso,
        )

        rng = np.random.default_rng(seed)
        points = rng.normal(size=(10, d))
        points = points[rng.integers(0, 10, size=10)] + rng.normal(size=(10, d)) * 1e-6
        D = SampleSet(points).design
        weights = rng.random(10)
        target = D @ weights / weights.sum()
        lam = fraction * 3.0 * float(np.max(np.abs(D.T @ target)))
        problem = WeightedLassoProblem(design=D, target=target, total_weight=3.0, sigma2=1.0, lam=lam)
        stalls = []
        reference = reference_solve_weighted_lasso(problem, np.zeros(10), tol=0.0, stalls=stalls)
        with count_steps() as steps:
            sol = solve_weighted_lasso(problem, np.zeros(10), tol=0.0)
        assert len(stalls) > 1 and steps.call_count == sol.iterations > 0
        assert_no_worse(problem, sol.beta, reference[0], 0.0)
        assert_solver_guarantees(problem, np.zeros(10), sol.beta, sol.converged)


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
            # the largest violation, and 0 at least, as kkt_residual and the solver read it
            got = float(np.max(_violations(grad, np.sign(beta), lam), initial=0.0))
        assert type(got) is float
        assert got == expected or (math.isnan(got) and math.isnan(expected))
        assert math.copysign(1.0, got) == math.copysign(1.0, expected)


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
        # a draw on which each of the first five steps lowers the KKT
        # residual; an active-set step lowers F, not always the residual
        rng = np.random.default_rng(42)
        problem = make_problem(rng, n=5, d=4, lam=0.2)
        beta0 = rng.normal(size=5)
        residuals = [kkt_residual(problem, beta0)]
        for steps in range(1, 6):
            sol = solve_weighted_lasso(problem, beta0, max_iters=steps, tol=0.0)
            residuals.append(kkt_residual(problem, sol.beta))
        assert residuals[0] > 0.0
        assert np.all(np.diff(residuals) <= 1e-12)

    def test_solution_dataclass_contents(self):
        rng = np.random.default_rng(43)
        problem = make_problem(rng, n=4, d=3, lam=0.5)
        sol = solve_weighted_lasso(problem, np.zeros(4))
        assert isinstance(sol, LassoSolution)
        assert sol.kkt_residual >= 0.0
        assert sol.kkt_residual == kkt_residual(problem, sol.beta)
