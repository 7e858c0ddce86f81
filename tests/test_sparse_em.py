"""Space-alternating EM driver: partial steps, monotonicity, stationarity."""

import math
from dataclasses import replace
from unittest import mock

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from oracles import random_params
from test_reference_loops import fit_inputs

from sparsemix import baseline, sparse_em
from sparsemix.evaluate import best_permutation_correct
from sparsemix.model import (
    Blocks,
    EmptyClusterError,
    Hyperparams,
    MixtureParams,
    NumericalError,
    SampleSet,
    penalized_value,
    q_function,
    self_regression_log_likelihood,
    squared_distances,
)
from sparsemix.simulate import ScenarioConfig, fit_seed_seq, gen_replicate
from sparsemix.sparse_em import (
    beta_gradient,
    e_step,
    indicator_init,
    penalty_weight,
    run,
    stationarity_report,
    update_beta,
    update_sigma,
    update_weights,
)


def random_sample_set(rng, n=8, d=2, scale=1.0):
    return SampleSet(scale * rng.normal(size=(n, d)))


def two_cluster_line(gap=20.0):
    """Six 1-d points in two tight groups ``gap`` apart."""
    pts = np.array([[-0.2], [0.2], [-0.1], [gap - 0.1], [gap + 0.1], [gap + 0.3]])
    return SampleSet(pts), np.array([0, 0, 0, 1, 1, 1])


def two_blob_plane(gap=16.0, seed=0, n_per=4):
    """Two tight 2-d blobs in generic position, ``gap`` apart.

    Generic coordinates keep the design columns well conditioned, which
    the 1-d fixture (all columns collinear) cannot offer.
    """
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n_per, 2)) * 0.4
    b = np.array([gap, 0.6 * gap]) + rng.normal(size=(n_per, 2)) * 0.4
    pts = np.vstack([a, b])
    return SampleSet(pts), np.array([0] * n_per + [1] * n_per)


class TestEStep:
    def test_identical_components_return_weights(self):
        rng = np.random.default_rng(50)
        Y = random_sample_set(rng, n=6, d=2)
        beta = 0.3 * rng.normal(size=6)
        params = MixtureParams(
            weights=np.array([0.3, 0.7]),
            betas=np.vstack([beta, beta]),
            variances=np.array([1.4, 1.4]),
        )
        tau = e_step(params, Y)
        npt.assert_allclose(tau, np.tile([0.3, 0.7], (6, 1)), rtol=1e-12)

    def test_separation_limit(self):
        # point sits exactly on the first mean; the other mean is far away
        Y = SampleSet(np.array([[-5.0], [5.0]]))
        params = MixtureParams(
            weights=np.array([0.5, 0.5]),
            betas=np.array([[1.0, 0.0], [0.0, 1.0]]),
            variances=np.array([1.0, 1.0]),
        )
        tau = e_step(params, Y)
        assert tau[0, 0] == pytest.approx(1.0, abs=1e-20)
        assert tau[1, 1] == pytest.approx(1.0, abs=1e-20)

    def test_matches_direct_bayes_rule(self):
        Y = SampleSet(np.array([[-1.0], [0.0], [1.0]]))
        params = MixtureParams(
            weights=np.array([0.4, 0.6]),
            betas=np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]),  # means -1 and +1
            variances=np.array([1.0, 1.0]),
        )
        tau = e_step(params, Y)
        for i, x in enumerate([-1.0, 0.0, 1.0]):
            p1 = 0.4 * math.exp(-((x + 1.0) ** 2) / 2.0)
            p2 = 0.6 * math.exp(-((x - 1.0) ** 2) / 2.0)
            assert tau[i, 0] == pytest.approx(p1 / (p1 + p2), rel=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(51)
        Y = random_sample_set(rng, n=10, d=3)
        tau = e_step(random_params(rng, 3, 10), Y)
        npt.assert_allclose(tau.sum(axis=1), 1.0, atol=1e-12)


class TestUpdateWeights:
    def test_uniform(self):
        tau = np.full((6, 3), 1.0 / 3.0)
        npt.assert_allclose(update_weights(tau), [1 / 3] * 3, rtol=1e-15)

    def test_hard_counts(self):
        tau = np.zeros((10, 2))
        tau[:3, 0] = 1.0
        tau[3:, 1] = 1.0
        npt.assert_allclose(update_weights(tau), [0.3, 0.7], rtol=1e-15)

    def test_normalization_identity(self):
        rng = np.random.default_rng(52)
        raw = rng.uniform(size=(12, 4))
        tau = raw / raw.sum(axis=1, keepdims=True)
        assert update_weights(tau).sum() == pytest.approx(1.0, abs=1e-12)


# (d, dilation) of the benchmark's mc_d2 and mc_d50 cells
BENCHMARK_CELLS = [(2, 10.0), (2, 30.0), (2, 50.0), (2, 70.0), (2, 100.0), (50, 60.0), (50, 100.0)]


class TestUpdateBeta:
    def test_single_point_cluster_interpolates(self):
        # n <= d, full column rank, zero penalty: fitted mean hits the point
        rng = np.random.default_rng(53)
        Y = random_sample_set(rng, n=3, d=4)
        params = random_params(rng, K=2, n=3)
        tau = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
        hp = Hyperparams(lam=0.0)
        beta0 = update_beta(0, params, tau, Y, hp, hp.lam)
        npt.assert_allclose(beta0 @ Y.data, Y.data[0], atol=1e-6)

    def test_supercritical_lambda_gives_origin(self):
        rng = np.random.default_rng(54)
        Y = random_sample_set(rng, n=6, d=2)
        params = random_params(rng, K=2, n=6)
        tau = e_step(params, Y)
        s = tau[:, 0].sum()
        m = (tau[:, 0] @ Y.data) / s
        crit = (s / params.variances[0]) * np.max(np.abs(Y.data @ m))
        hp = Hyperparams(lam=float(2.0 * crit))
        beta0 = update_beta(0, params, tau, Y, hp, hp.lam)
        npt.assert_array_equal(beta0, np.zeros(6))

    def test_penalized_surrogate_never_decreases(self):
        rng = np.random.default_rng(55)
        for lam in (0.0, 0.5):
            Y = random_sample_set(rng, n=7, d=2)
            params = random_params(rng, K=2, n=7)
            tau = e_step(params, Y)
            hp = Hyperparams(lam=lam)
            new = replace(params, betas=np.vstack([update_beta(0, params, tau, Y, hp, lam), params.betas[1]]))
            before = q_function(params, tau, Y) - lam * np.abs(params.betas).sum(axis=1).sum()
            after = q_function(new, tau, Y) - lam * np.abs(new.betas).sum(axis=1).sum()
            assert after >= before - 1e-9 * (1 + abs(before))

    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(cell=st.sampled_from(BENCHMARK_CELLS), data_seed=st.integers(0, 2**32 - 1),
           replicate=st.integers(0, 999))
    @example(cell=(50, 60.0), data_seed=0, replicate=1)
    @example(cell=(2, 30.0), data_seed=0, replicate=1)
    # in each, coordinate descent stalls on a support that lacks a column the optimum needs
    @example(cell=(50, 100.0), data_seed=59103585, replicate=85)
    @example(cell=(2, 50.0), data_seed=7565, replicate=381)
    def test_every_benchmark_solve_converges(self, cell, data_seed, replicate):
        # fits of the benchmark's cells (n=10, K=3, acceptance hyperparameters):
        # every weighted lasso of every beta step reaches its tolerance, the
        # full 10-column stalls of the centered d=50 design included
        dim, dilation = cell
        config = ScenarioConfig(dim=dim, dilation=dilation, seed=data_seed)
        Y = SampleSet(gen_replicate(config, replicate).points)
        solve = sparse_em.solve_weighted_lasso
        solutions = []

        def recording(*args, **kwargs):
            solutions.append(solve(*args, **kwargs))
            return solutions[-1]

        with mock.patch.object(sparse_em, "solve_weighted_lasso", recording):
            run(Y, 3, Hyperparams(restarts=1, max_cycles=60, tol=1e-7), seed=fit_seed_seq(config, replicate))
        assert solutions and all(sol.converged for sol in solutions)

    def test_empty_cluster_raises(self):
        rng = np.random.default_rng(56)
        Y = random_sample_set(rng, n=5, d=2)
        params = random_params(rng, K=2, n=5)
        tau = np.zeros((5, 2))
        tau[:, 1] = 1.0
        with pytest.raises(EmptyClusterError):
            update_beta(0, params, tau, Y, Hyperparams(), 0.1)


class TestUpdateSigma:
    def test_hand_computed_value(self):
        Y = SampleSet(np.array([[-1.0], [1.0]]))
        params = MixtureParams(weights=np.array([1.0]), betas=np.zeros((1, 2)), variances=np.array([5.0]))
        tau = np.ones((2, 1))
        hp = Hyperparams(variance_floor=1e-8)
        sq = squared_distances(Y.data, params.means(Y))
        assert update_sigma(0, tau, Y, hp, sq) == pytest.approx(1.0, rel=1e-12)

    def test_floor_engagement_on_zero_residuals(self):
        Y = SampleSet(np.zeros((3, 1)))
        params = MixtureParams(weights=np.array([1.0]), betas=np.zeros((1, 3)), variances=np.array([1.0]))
        tau = np.ones((3, 1))
        hp = Hyperparams(variance_floor=0.5)
        assert update_sigma(0, tau, Y, hp, squared_distances(Y.data, params.means(Y))) == 0.5

    def test_surrogate_never_decreases(self):
        rng = np.random.default_rng(57)
        Y = random_sample_set(rng, n=7, d=3)
        params = random_params(rng, K=2, n=7)
        tau = e_step(params, Y)
        hp = Hyperparams(variance_floor=1e-10)
        new_sigma = update_sigma(1, tau, Y, hp, squared_distances(Y.data, params.means(Y)))
        variances = params.variances.copy()
        variances[1] = new_sigma
        new = replace(params, variances=variances)
        assert q_function(new, tau, Y) >= q_function(params, tau, Y) - 1e-10

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(4, 12), d=st.sampled_from([1, 2, 5, 50]),
           K=st.integers(1, 4))
    def test_classic_em_variance_bit_for_bit(self, seed, n, d, K):
        # the sigma_k step and classic EM's M-step share one formula, so at
        # the same tau and betas they give the same bits
        rng = np.random.default_rng(seed)
        Y = random_sample_set(rng, n=n, d=d)
        tau = e_step(random_params(rng, K=K, n=n), Y)
        hp = Hyperparams()
        try:
            m_step = baseline._m_step(Blocks(Y), tau, hp.resolve_floor(Y))
        except EmptyClusterError:
            return
        sq = squared_distances(Y.data, m_step.means(Y))
        got = [update_sigma(k, tau, Y, hp, sq) for k in range(K)]
        assert np.array(got).tobytes() == m_step.variances.tobytes()


class TestRun:
    def test_single_component_closed_form(self):
        rng = np.random.default_rng(58)
        Y = random_sample_set(rng, n=6, d=2)
        hp = Hyperparams(lam=1.0, restarts=1)
        rep = run(Y, 1, hp)
        assert rep.converged and rep.cycles_run <= 2
        npt.assert_allclose(rep.params.weights, [1.0])
        npt.assert_array_equal(rep.params.betas, np.zeros((1, 6)))
        assert rep.params.variances[0] == pytest.approx(Y.total_variance / Y.d, rel=1e-12)

    def test_recovers_well_separated_clusters(self):
        Y, truth = two_cluster_line(gap=20.0)
        hp = Hyperparams(restarts=3, seed=1)
        rep = run(Y, 2, hp)
        assert best_permutation_correct(rep.assignments, truth, 2) == Y.n

    def test_trace_nondecreasing_with_fixed_lambda(self):
        rng = np.random.default_rng(59)
        for trial in range(20):
            n, d = 10, int(rng.choice([2, 5]))
            K = int(rng.choice([2, 3]))
            Y = random_sample_set(rng, n=n, d=d)
            hp = Hyperparams(lam=float(rng.uniform(0.0, 1.5)), restarts=1, seed=trial, max_cycles=40)
            rep = run(Y, K, hp)
            assert not rep.reseed_events
            trace = rep.objective_trace
            slack = 1e-7 * (1.0 + np.abs(trace[1:]))
            assert np.all(np.diff(trace) >= -slack)

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(case=st.fixed_dictionaries({
        "dim": st.sampled_from([1, 2, 5, 50]),
        "dilation": st.sampled_from([10.0, 30.0, 60.0, 100.0]),
        "data_seed": st.integers(0, 2**32 - 1),
        "replicate": st.integers(0, 999),
        "restarts": st.just(1),
        "lam": st.none(),
    }))
    def test_each_cycle_ascends_its_own_objective(self, case):
        # under the default adaptive weights: one set of weights per
        # cycle, the last of them reported, and the trace of a cycle
        # without a re-seed starts at or above the cycle's start value
        # and never decreases
        Y, hp, seed = fit_inputs(case)
        starts, weights = [], []
        effective_lams = sparse_em.effective_lams

        def recording(params, tau, Y, hp):
            lams = effective_lams(params, tau, Y, hp)
            starts.append(sparse_em.penalized_value(params, Y, lams))
            weights.append(lams)
            return lams

        with mock.patch.object(sparse_em, "effective_lams", recording):
            rep = run(Y, 3, hp, seed=seed)
        steps = 2 * 3 + 1
        trace = rep.objective_trace
        assert len(starts) == math.ceil(trace.size / steps)
        assert rep.lams.tobytes() == weights[-1].tobytes()
        reseeded = {cycle for cycle, _, _ in rep.reseed_events}
        for cycle, start in enumerate(starts):
            if cycle in reseeded:
                continue
            values = np.concatenate([[start], trace[cycle * steps:(cycle + 1) * steps]])
            slack = 1e-7 * (1.0 + np.abs(values[1:]))
            assert np.all(np.diff(values) >= -slack), f"cycle {cycle} dipped"

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(60)
        Y = random_sample_set(rng, n=9, d=3)
        hp = Hyperparams(restarts=3, seed=7)
        a = run(Y, 2, hp)
        b = run(Y, 2, hp)
        npt.assert_array_equal(a.objective_trace, b.objective_trace)
        npt.assert_array_equal(a.assignments, b.assignments)
        npt.assert_array_equal(a.params.betas, b.params.betas)
        npt.assert_array_equal(a.params.weights, b.params.weights)
        npt.assert_array_equal(a.params.variances, b.params.variances)
        assert a.restart_index == b.restart_index

    def test_label_permutation_equivariance(self):
        # permuting the initialization's labels (and the order of the
        # partial steps with them) permutes the output identically
        rng = np.random.default_rng(61)
        Y = random_sample_set(rng, n=10, d=2)
        hp = Hyperparams(lam=0.8, max_cycles=30)
        init = indicator_init(Y, 3, hp.resolve_floor(Y), rng)
        perm = np.array([2, 0, 1])
        inv = np.argsort(perm)
        natural = (("weights", -1),) + tuple(("beta", k) for k in range(3)) + tuple(("sigma", k) for k in range(3))
        order = (
            (("weights", -1),)
            + tuple(("beta", int(inv[c])) for c in range(3))
            + tuple(("sigma", int(inv[c])) for c in range(3))
        )
        out1 = sparse_em.em_loop(Y, init, hp, natural, sparse_em._step)
        relabelled = MixtureParams(init.weights[perm], init.betas[perm], init.variances[perm])
        out2 = sparse_em.em_loop(Y, relabelled, hp, order, sparse_em._step)
        npt.assert_array_equal(np.argmax(out2.tau, axis=1), inv[np.argmax(out1.tau, axis=1)])
        npt.assert_allclose(out2.params.weights, out1.params.weights[perm], rtol=1e-8)
        npt.assert_allclose(out2.params.betas, out1.params.betas[perm], atol=1e-8)
        npt.assert_allclose(out2.params.variances, out1.params.variances[perm], rtol=1e-8)

    def test_rejects_bad_arguments(self):
        rng = np.random.default_rng(62)
        Y = random_sample_set(rng, n=4, d=2)
        with pytest.raises(ValueError):
            run(Y, 0, Hyperparams())
        with pytest.raises(ValueError):
            run(Y, 5, Hyperparams())

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        kind=st.sampled_from(["duplicates", "all_equal", "n_eq_K", "d1", "wide", "constant_column"]),
        exponent=st.integers(-300, 150),
        K=st.integers(1, 3),
        lam=st.sampled_from([None, 0.0, 0.5]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(kind="all_equal", exponent=-300, K=3, lam=None, seed=0)
    @example(kind="wide", exponent=150, K=3, lam=None, seed=0)
    @example(kind="duplicates", exponent=150, K=2, lam=0.5, seed=0)
    @example(kind="wide", exponent=-151, K=2, lam=None, seed=0)  # soft rows at log densities near 7e4
    def test_degenerate_inputs_fit_to_finite_reports(self, kind, exponent, K, lam, seed):
        # duplicate rows, a single repeated point, n = K, d = 1, d >> n
        # and a constant column, at coordinate scales 1e-300 to 1e150
        rng = np.random.default_rng(seed)
        n, d = {"n_eq_K": (K, 3), "d1": (8, 1), "wide": (5, 200)}.get(kind, (8, 3))
        points = rng.normal(size=(n, d))
        if kind == "duplicates":
            points = points[rng.integers(0, 3, size=n)]
        elif kind == "all_equal":
            points[:] = points[0]
        elif kind == "constant_column":
            points[:, 0] = points[0, 0]
        Y = SampleSet(10.0**exponent * points)
        hp = Hyperparams(lam=lam, restarts=1, max_cycles=30, seed=seed)
        for rep, trace in (
            (run(Y, K, hp), "objective_trace"),
            (baseline.baseline_fit(Y, K, hp), "loglik_trace"),
        ):
            weights, variances = rep.params.weights, rep.params.variances
            assert np.all(np.isfinite(weights)) and np.all(np.isfinite(variances))
            assert np.all(np.isfinite(getattr(rep, trace)))
            assert abs(weights.sum() - 1.0) <= 1e-12
            assert rep.assignments.shape == (n,)
            assert np.all((rep.assignments >= 0) & (rep.assignments < K))

    def test_reseeds_recover_underflowed_component(self):
        rng = np.random.default_rng(63)
        Y = random_sample_set(rng, n=8, d=2)
        betas = np.zeros((2, 8))
        betas[0, 0] = 1.0
        betas[1, 1] = 1e4  # mean absurdly far: responsibilities underflow to 0
        init = MixtureParams(
            weights=np.array([0.5, 0.5]), betas=betas, variances=np.array([1.0, 1.0])
        )
        with mock.patch.object(sparse_em, "indicator_init", lambda *_: init):
            rep = run(Y, 2, Hyperparams(lam=0.5, restarts=1))
        assert rep.reseed_events
        assert rep.diagnostic is None
        assert np.all(np.isfinite(rep.params.betas))

    def test_report_subproblem_residuals_small_at_convergence(self):
        Y, _ = two_blob_plane()
        hp = Hyperparams(lam=0.5, restarts=2, tol=1e-13, max_cycles=500)
        rep = run(Y, 2, hp)
        assert rep.converged
        assert np.all(rep.beta_kkt_residuals < 1e-6)


class TestEmLoop:
    def test_non_finite_log_joint_mid_fit_raises(self):
        # while sum(lse) is finite the loop skips the responsibilities'
        # finiteness check; a step that leaves a NaN variance makes it NaN,
        # so the next step's responsibilities must take the check and raise
        rng = np.random.default_rng(58)
        Y = random_sample_set(rng, n=6, d=2)
        tags = []

        def nan_variance_step(blocks, params, tau, tag, Y, hp):
            tags.append(tag)
            variances = params.variances.copy()
            variances[1] = np.nan
            return MixtureParams._trusted(params.weights, params.betas, variances)

        with pytest.raises(NumericalError, match="^responsibilities contain non-finite entries$"):
            sparse_em.em_loop(Y, random_params(rng, 2, 6), Hyperparams(lam=0.0), ("first", "second"),
                              nan_variance_step)
        assert tags == ["first"]


def restart_outcomes(fit, Y, K, hp, seed):
    """``fit(Y, K, hp, seed=seed)`` and the outcome of each of its restarts, in order."""
    loop = sparse_em.em_loop
    outcomes = []

    def recording_loop(*args):
        outcomes.append(loop(*args))
        return outcomes[-1]

    with mock.patch.object(sparse_em, "em_loop", recording_loop):
        return fit(Y, K, hp, seed=seed), outcomes


# Two adaptive-lambda restarts whose rankings disagree: restart 1 ends at
# the higher log likelihood, restart 0 at the higher penalized trace value.
TWO_RESTARTS = {"dim": 2, "dilation": 50.0, "data_seed": 0, "replicate": 0, "restarts": 2, "lam": None}


class TestBestRestart:
    def test_strictly_larger_log_likelihood_wins_and_ties_keep_the_earlier(self):
        # the three restarts end at log likelihoods 1, 2 and 2: restart 1
        # beats restart 0, restart 2 only ties it, and the traces, which
        # end the other way round, play no part
        Y = random_sample_set(np.random.default_rng(64), n=8, d=2)
        hp = Hyperparams(restarts=3, max_cycles=5)
        loop = sparse_em.em_loop
        outcomes = []

        def ranked_loop(*args):
            i = len(outcomes) % 3
            outcomes.append(loop(*args)._replace(loglik=(1.0, 2.0, 2.0)[i], trace=np.array([(3.0, 1.0, 1.0)[i]])))
            return outcomes[-1]

        with mock.patch.object(sparse_em, "em_loop", ranked_loop):
            r, outcome = sparse_em.best_restart(Y, 2, hp, None, (None,), baseline._step)
            assert r == 1 and outcome is outcomes[1]
            assert run(Y, 2, hp).restart_index == 1
            assert baseline.baseline_fit(Y, 2, hp).restart_index == 1
        assert len(outcomes) == 9

    def test_adaptive_restarts_ranked_by_log_likelihood_not_penalized_trace(self):
        Y, hp, seed = fit_inputs(TWO_RESTARTS)
        rep, (first, second) = restart_outcomes(run, Y, 3, hp, seed)
        assert first.loglik == pytest.approx(-56.28337, abs=1e-5)
        assert second.loglik == pytest.approx(-56.28304, abs=1e-5)
        assert first.trace[-1] > second.trace[-1]  # -74.41845 against -74.41881
        assert rep.restart_index == 1
        assert rep.objective_trace.tobytes() == second.trace.tobytes()

    @settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(case=st.fixed_dictionaries({
        "dim": st.sampled_from([2, 50]),
        "dilation": st.sampled_from([10.0, 60.0, 100.0]),
        "data_seed": st.integers(0, 2**32 - 1),
        "replicate": st.integers(0, 999),
        "restarts": st.integers(2, 3),
        "lam": st.sampled_from([None, 0.5]),
    }))
    @example(case=TWO_RESTARTS)
    def test_fits_keep_the_restart_of_highest_log_likelihood(self, case):
        Y, hp, seed = fit_inputs(case)
        rep, outcomes = restart_outcomes(run, Y, 3, hp, seed)
        logliks = [o.loglik for o in outcomes]
        assert self_regression_log_likelihood(rep.params, Y) == max(logliks)
        assert rep.restart_index == logliks.index(max(logliks))
        # classic EM's trace ends at its log likelihood, so ranking by
        # either picks the same restart and its report keeps its bytes
        rep, outcomes = restart_outcomes(baseline.baseline_fit, Y, 3, hp, seed)
        assert all(o.trace[-1] == o.loglik for o in outcomes)
        assert rep.restart_index == int(np.argmax([o.trace[-1] for o in outcomes]))


class TestStationarity:
    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(64)
        for _ in range(5):
            Y = random_sample_set(rng, n=6, d=2)
            params = random_params(rng, K=2, n=6)
            k = int(rng.integers(2))
            grad = beta_gradient(params, Y, k)
            fd = np.zeros(Y.n)
            for j in range(Y.n):
                h = 1e-6 * (1.0 + abs(params.betas[k, j]))
                for sign in (+1.0, -1.0):
                    betas = params.betas.copy()
                    betas[k, j] += sign * h
                    shifted = replace(params, betas=betas)
                    fd[j] += sign * self_regression_log_likelihood(shifted, Y)
                fd[j] /= 2.0 * h
            scale = max(1.0, np.max(np.abs(grad)))
            assert np.max(np.abs(fd - grad)) / scale < 1e-5

    def test_single_component_zero_penalty_residual_is_grad_norm(self):
        rng = np.random.default_rng(65)
        Y = random_sample_set(rng, n=6, d=2)
        hp = Hyperparams(lam=0.0, restarts=1, max_cycles=1)
        rep = run(Y, 1, hp)
        residuals, _ = stationarity_report(rep, Y)
        grad = beta_gradient(rep.params, Y, 0)
        assert residuals[0] == pytest.approx(np.max(np.abs(grad)), rel=1e-12)

    def test_converged_fixture_certifies_stationarity(self):
        Y, _ = two_blob_plane()
        hp = Hyperparams(lam=0.5, restarts=2, tol=1e-13, max_cycles=500)
        rep = run(Y, 2, hp)
        assert rep.converged
        residuals, scales = stationarity_report(rep, Y)
        ok = ~np.isnan(residuals)
        assert ok.any()
        assert np.all(residuals[ok] <= 1e-4 * scales[ok])

    def test_early_stop_leaves_larger_residuals(self):
        Y, _ = two_blob_plane(gap=12.0)
        tight = Hyperparams(lam=0.5, restarts=1, seed=3, tol=1e-13, max_cycles=500)
        loose = replace(tight, max_cycles=1)
        converged = run(Y, 2, tight)
        stopped = run(Y, 2, loose)
        r_conv, _ = stationarity_report(converged, Y)
        r_stop, _ = stationarity_report(stopped, Y)
        assert np.nanmax(r_stop) > np.nanmax(r_conv)

    def test_one_e_step_per_report(self):
        rng = np.random.default_rng(67)
        Y = SampleSet(np.vstack([c + rng.normal(size=(4, 2)) for c in ([0, 0], [20, 0], [0, 20])]))
        hp = Hyperparams(restarts=1, max_cycles=30)
        rep = run(Y, 3, hp)
        with mock.patch.object(sparse_em, "e_step", wraps=sparse_em.e_step) as spy:
            residuals, _ = stationarity_report(rep, Y)
        assert np.isfinite(residuals).all()
        assert spy.call_count == 1

    def test_degenerate_blocks_marked_nan(self):
        rng = np.random.default_rng(66)
        Y = random_sample_set(rng, n=6, d=2)
        params = MixtureParams(
            weights=np.array([1.0, 0.0]),
            betas=np.zeros((2, 6)),
            variances=np.array([1.0, 1.0]),
        )
        from sparsemix.sparse_em import FitReport

        rep = FitReport(
            params=params,
            objective_trace=np.array([0.0]),
            beta_kkt_residuals=np.full(2, np.nan),
            cycles_run=0,
            converged=False,
            assignments=np.zeros(6, dtype=int),
            restart_index=0,
            reseed_events=[],
            lams=np.full(2, 0.1),
        )
        residuals, scales = stationarity_report(rep, Y)
        assert np.isnan(residuals[1]) and np.isnan(scales[1])
        assert np.isfinite(residuals[0])

    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(case=st.fixed_dictionaries({
        "dim": st.sampled_from([1, 2, 5, 50]),
        "dilation": st.sampled_from([10.0, 30.0, 60.0, 100.0]),
        "data_seed": st.integers(0, 2**32 - 1),
        "replicate": st.integers(0, 999),
        "restarts": st.just(1),
        "max_cycles": st.just(60),
        "tol": st.just(1e-7),
        "lam": st.sampled_from([None, 0.0, 0.5]),
    }))
    # component 1 ends with weight 3.2e-8, well clear of 0, but with a
    # responsibility mass of 9.4e-8, which the driver counts as empty
    @example(case={"dim": 2, "dilation": 60.0, "data_seed": 3, "replicate": 0, "restarts": 1,
                   "max_cycles": 200, "tol": 1e-9, "lam": None})
    def test_agrees_with_the_fit_kkt_residuals(self, case):
        # the report's numbers are exact functions of its own fields: the
        # last trace entry is the penalized objective under lams, and the
        # fit's residuals are the certificate's, bit for bit
        Y, hp, seed = fit_inputs(case)
        hp = replace(hp, max_cycles=case["max_cycles"], tol=case["tol"])
        rep = run(Y, 3, hp, seed=seed)
        assert rep.objective_trace[-1] == penalized_value(rep.params, Y, rep.lams)
        residuals, scales = stationarity_report(rep, Y)
        assert residuals.tobytes() == rep.beta_kkt_residuals.tobytes()
        assert np.isnan(scales).tolist() == np.isnan(residuals).tolist()

    def test_certifies_the_weights_the_fit_held(self):
        # component 2 ends with responsibility mass 3.6e-7; the l1 weight at
        # the final responsibilities is 9.4e-8 against the 5.1e-7 its last
        # cycle held, and under the former the block reads residual/scale 0.40
        case = {"dim": 2, "dilation": 60.0, "data_seed": 3, "replicate": 18, "restarts": 1, "lam": None}
        Y, hp, seed = fit_inputs(case)
        rep = run(Y, 3, hp, seed=seed)
        assert rep.converged
        residuals, scales = stationarity_report(rep, Y)
        assert np.isfinite(residuals).all()
        assert np.all(residuals <= 1e-3 * scales)
        # the draw's premise: under the weights at the final
        # responsibilities the same fit fails the certificate
        final_lams = sparse_em.effective_lams(rep.params, e_step(rep.params, Y), Y, hp)
        final_residuals, final_scales = stationarity_report(replace(rep, lams=final_lams), Y)
        assert np.any(final_residuals > 1e-3 * final_scales)


class TestPenaltyWeight:
    def test_fixed_lambda_wins(self):
        rng = np.random.default_rng(67)
        Y = random_sample_set(rng)
        params = random_params(rng, K=3, n=Y.n)
        tau = e_step(params, Y)
        tau[:, 0] += tau[:, 2]
        tau[:, 2] = 0.0  # an empty cluster gets the fixed weight too
        lams = sparse_em.effective_lams(params, tau, Y, Hyperparams(lam=2.5))
        assert lams.tolist() == [2.5, 2.5, 2.5]

    def test_heuristic_positive_and_dilation_invariant(self):
        # beta is dimensionless (means and data dilate together), so the
        # default weight must not change under a joint dilation of the
        # data, target and standard deviation
        rng = np.random.default_rng(68)
        pts = rng.normal(size=(10, 3))
        Y1 = SampleSet(pts)
        Y2 = SampleSet(10.0 * pts)
        m1 = Y1.data[:3].mean(axis=0)
        w1 = penalty_weight(Y1, 2.0, 3.0, m1)
        w2 = penalty_weight(Y2, 200.0, 3.0, 10.0 * m1)
        assert w1 > 0
        assert w2 == pytest.approx(w1, rel=1e-9)

    @pytest.mark.parametrize("d", [1, 2, 50])
    def test_capped_below_critical_value(self, d):
        # one clamp in every dimension keeps the weight below the value
        # that zeroes the whole block
        rng = np.random.default_rng(69)
        Y = random_sample_set(rng, n=6, d=d)
        m = Y.data[:2].mean(axis=0)
        s, sigma2 = 3.0, 1e6  # absurdly inflated variance estimate
        lam = penalty_weight(Y, sigma2, s, m)
        critical = (s / sigma2) * np.max(np.abs(Y.data @ m))
        assert 0 < lam <= sparse_em.MAX_PENALTY_FRACTION * critical
