"""Spherical EM baseline: closed forms, monotone likelihood, harness parity."""

from unittest import mock

import numpy as np
import numpy.testing as npt
import pytest
from test_reference_loops import assert_reports_identical, reference_baseline_loop

from sparsemix import baseline, sparse_em
from sparsemix.baseline import (
    SphericalParams,
    _m_step,
    baseline_fit,
    spherical_e_step,
    spherical_log_likelihood,
)
from sparsemix.model import Blocks, EmptyClusterError, Hyperparams, SampleSet
from sparsemix.sparse_em import MAX_RESEEDS
from sparsemix.sparse_em import run as sparse_run


def random_sample_set(rng, n=8, d=2, scale=1.0):
    return SampleSet(scale * rng.normal(size=(n, d)))


class TestMStep:
    def test_single_component_closed_form(self):
        rng = np.random.default_rng(70)
        Y = random_sample_set(rng, n=7, d=3)
        tau = np.ones((7, 1))
        params = _m_step(Blocks(Y), tau, floor=1e-12)
        npt.assert_allclose(params.means(Y)[0], 0.0, atol=1e-12)  # centered data
        assert params.variances[0] == pytest.approx(Y.total_variance() / Y.d, rel=1e-12)
        npt.assert_allclose(params.weights, [1.0])

    def test_hard_responsibilities_give_group_means(self):
        rng = np.random.default_rng(71)
        Y = random_sample_set(rng, n=6, d=2)
        tau = np.zeros((6, 2))
        tau[:2, 0] = 1.0
        tau[2:, 1] = 1.0
        params = _m_step(Blocks(Y), tau, floor=1e-12)
        npt.assert_allclose(params.means(Y)[0], Y.data[:2].mean(axis=0), rtol=1e-12)
        npt.assert_allclose(params.means(Y)[1], Y.data[2:].mean(axis=0), rtol=1e-12)
        npt.assert_allclose(params.weights, [2 / 6, 4 / 6], rtol=1e-12)

    def test_empty_component_raises(self):
        rng = np.random.default_rng(72)
        Y = random_sample_set(rng, n=4, d=2)
        tau = np.zeros((4, 2))
        tau[:, 0] = 1.0
        with pytest.raises(EmptyClusterError):
            _m_step(Blocks(Y), tau, floor=1e-12)


class TestSphericalParams:
    @pytest.mark.parametrize("field", ["weights", "means", "variances"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_fields(self, field, bad):
        fields = dict(weights=np.array([0.5, 0.5]), means=np.zeros((2, 3)), variances=np.array([1.0, 2.0]))
        fields[field] = fields[field].copy()
        fields[field].flat[0] = bad
        with pytest.raises(ValueError, match=f"^{field} "):
            SphericalParams(**fields)


class TestBaselineFit:
    def test_abort_matches_reference_loop(self):
        # no scenario draw empties a baseline component for good, so force
        # it: every M-step finds component 0 empty
        def always_empty(blocks, tau, floor):
            raise EmptyClusterError("forced", component=0)

        Y = random_sample_set(np.random.default_rng(80), n=10, d=2)
        hp = Hyperparams(restarts=2, max_cycles=60, tol=1e-7)
        with mock.patch.object(baseline, "_m_step", always_empty):
            rep = baseline_fit(Y, 3, hp)
            with mock.patch.object(sparse_em, "em_loop", reference_baseline_loop):
                ref = baseline_fit(Y, 3, hp)
        assert_reports_identical(rep, ref)
        assert rep.diagnostic == f"component 0 stayed empty after {MAX_RESEEDS} re-seeds"
        assert rep.reseed_events == [(it, 0) for it in range(MAX_RESEEDS + 1)]
        assert not rep.converged and rep.iterations == MAX_RESEEDS
        assert len(rep.loglik_trace) == MAX_RESEEDS + 1

    def test_single_component_in_one_step(self):
        rng = np.random.default_rng(73)
        Y = random_sample_set(rng, n=6, d=2)
        rep = baseline_fit(Y, 1, Hyperparams(restarts=1))
        assert rep.converged
        npt.assert_allclose(rep.params.means[0], 0.0, atol=1e-12)
        assert rep.params.variances[0] == pytest.approx(Y.total_variance() / Y.d, rel=1e-12)

    def test_loglik_trace_nondecreasing(self):
        rng = np.random.default_rng(74)
        for trial in range(20):
            n, d = 10, int(rng.choice([2, 5]))
            K = int(rng.choice([2, 3]))
            Y = random_sample_set(rng, n=n, d=d)
            rep = baseline_fit(Y, K, Hyperparams(restarts=1, seed=trial, max_cycles=40))
            if rep.reseed_events:
                continue
            trace = rep.loglik_trace
            slack = 1e-7 * (1.0 + np.abs(trace[1:]))
            assert np.all(np.diff(trace) >= -slack)

    def test_deterministic(self):
        rng = np.random.default_rng(75)
        Y = random_sample_set(rng, n=9, d=2)
        hp = Hyperparams(restarts=3, seed=11)
        a = baseline_fit(Y, 2, hp)
        b = baseline_fit(Y, 2, hp)
        npt.assert_array_equal(a.params.means, b.params.means)
        npt.assert_array_equal(a.assignments, b.assignments)
        npt.assert_array_equal(a.loglik_trace, b.loglik_trace)

    def test_recovers_separated_clusters(self):
        rng = np.random.default_rng(76)
        a = rng.normal(size=(4, 2)) * 0.5
        b = np.array([12.0, 9.0]) + rng.normal(size=(4, 2)) * 0.5
        Y = SampleSet(np.vstack([a, b]))
        rep = baseline_fit(Y, 2, Hyperparams(restarts=3, seed=0))
        labels = rep.assignments
        assert len(set(labels[:4])) == 1 and len(set(labels[4:])) == 1
        assert labels[0] != labels[4]

    def test_agrees_with_unpenalized_sparse_on_interpolating_design(self):
        # n <= d and lam = 0: the self-regression span is unrestricted, so
        # both estimators share fixed points; equivalent inits (same seed
        # picks the same data indices) land them on the same one
        rng = np.random.default_rng(77)
        a = rng.normal(size=(3, 8)) * 0.6
        b = rng.normal(size=(3, 8)) * 0.6
        b[:, 0] += 10.0
        Y = SampleSet(np.vstack([a, b]))
        hp = Hyperparams(lam=0.0, restarts=2, seed=4, tol=1e-12, max_cycles=400)
        sparse = sparse_run(Y, 2, hp)
        base = baseline_fit(Y, 2, hp)
        sparse_means = np.sort(sparse.params.means(Y), axis=0)
        base_means = np.sort(base.params.means, axis=0)
        npt.assert_allclose(sparse_means, base_means, atol=1e-4)

    def test_shares_espep_with_basis_betas(self):
        from sparsemix.model import MixtureParams
        from sparsemix.sparse_em import e_step

        rng = np.random.default_rng(78)
        Y = random_sample_set(rng, n=6, d=2)
        betas = np.zeros((2, 6))
        betas[0, 0] = 1.0
        betas[1, 3] = 1.0
        mp = MixtureParams(weights=np.array([0.4, 0.6]), betas=betas, variances=np.array([1.0, 2.0]))
        sp = SphericalParams(weights=mp.weights, means=Y.data[[0, 3]], variances=mp.variances)
        npt.assert_allclose(e_step(mp, Y), spherical_e_step(sp, Y), rtol=1e-12)

    def test_loglik_matches_model_core(self):
        rng = np.random.default_rng(79)
        Y = random_sample_set(rng, n=5, d=2)
        params = SphericalParams(
            weights=np.array([0.5, 0.5]),
            means=rng.normal(size=(2, 2)),
            variances=np.array([1.0, 2.0]),
        )
        # direct per-point evaluation
        expected = 0.0
        for i in range(Y.n):
            acc = 0.0
            for k in range(2):
                diff = Y.data[i] - params.means[k]
                acc += 0.5 * np.exp(-0.5 * diff @ diff / params.variances[k]) / (
                    2 * np.pi * params.variances[k]
                )
            expected += np.log(acc)
        assert spherical_log_likelihood(params, Y) == pytest.approx(expected, rel=1e-12)
