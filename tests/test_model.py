"""Core types and objective functions."""

import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.special import logsumexp

from sparsemix.model import (
    Gram,
    Hyperparams,
    MixtureParams,
    SampleSet,
    component_log_density,
    default_variance_floor,
    kullback_penalty,
    log_density_matrix,
    log_joint,
    logsumexp_rows,
    penalized_value,
    q_function,
    self_regression_log_likelihood,
)
from sparsemix.simulate import ScenarioConfig, gen_replicate
from sparsemix.sparse_em import e_step, run


def random_sample_set(rng, n=6, d=3, scale=1.0):
    return SampleSet.from_points(scale * rng.normal(size=(n, d)))


def random_params(rng, K, n, beta_scale=0.5):
    w = rng.uniform(0.2, 1.0, size=K)
    return MixtureParams(
        weights=w / w.sum(),
        betas=beta_scale * rng.normal(size=(K, n)),
        variances=rng.uniform(0.5, 2.0, size=K),
    )


def naive_log_likelihood(params, Y):
    """Direct per-point summation without log-sum-exp stabilization."""
    total = 0.0
    for i in range(Y.n):
        acc = 0.0
        for k in range(params.K):
            ld = component_log_density(Y.data[i], params.betas[k], params.variances[k], Y)
            acc += params.weights[k] * math.exp(ld)
        total += math.log(acc)
    return total


class TestSampleSet:
    def test_centering_and_offset(self):
        rng = np.random.default_rng(1)
        raw = rng.normal(size=(8, 3)) + np.array([5.0, -2.0, 100.0])
        Y = SampleSet.from_points(raw)
        npt.assert_allclose(Y.data.mean(axis=0), 0.0, atol=1e-10)
        npt.assert_allclose(Y.uncenter(Y.data), raw, atol=1e-9)
        assert Y.n == 8 and Y.d == 3

    def test_centering_survives_large_scales(self):
        rng = np.random.default_rng(2)
        raw = 1e4 * rng.normal(size=(10, 2)) + 5e3
        Y = SampleSet.from_points(raw)
        assert np.max(np.abs(Y.data.mean(axis=0))) <= 1e-10

    @pytest.mark.parametrize("scale", [1e7, 1e8, 1e12, 1e100])
    def test_centering_tolerance_follows_the_data_scale(self, scale):
        rng = np.random.default_rng(3)
        for _ in range(20):
            raw = scale * (1.0 + 0.1 * rng.normal(size=(10, 3)))
            Y = SampleSet.from_points(raw)
            npt.assert_allclose(Y.uncenter(Y.data), raw, rtol=1e-9)
        # an offset of one part in 1e6 of the scale is not rounding
        with pytest.raises(ValueError, match="not centered"):
            SampleSet(data=Y.data + 1e-6 * scale, center_offset=Y.center_offset)

    @pytest.mark.parametrize("scale", [1e155, 1e300])
    def test_rejects_overflowing_squared_norms(self, scale):
        rng = np.random.default_rng(4)
        raw = scale * (1.0 + 0.1 * rng.normal(size=(10, 3)))
        with pytest.raises(ValueError, match="squared norms .* overflow"):
            SampleSet.from_points(raw)
        # each squared norm is finite, their mean is not
        with pytest.raises(ValueError, match="squared norms .* overflow"):
            SampleSet(data=np.array([[1.2e154], [-1.2e154]]), center_offset=np.zeros(1))

    def test_max_row_norm(self):
        Y = random_sample_set(np.random.default_rng(5), n=7, d=3)
        assert Y.max_row_norm == max(math.sqrt(float(row @ row)) for row in Y.data)

    @settings(max_examples=60, deadline=None)
    @given(
        dim=st.sampled_from([1, 2, 5, 50]),
        dilation=st.sampled_from([10.0, 60.0, 100.0]),
        data_seed=st.integers(0, 2**32 - 1),
    )
    def test_gram(self, dim, dilation, data_seed):
        config = ScenarioConfig(dim=dim, dilation=dilation, seed=data_seed)
        Y = SampleSet.from_points(gen_replicate(config, 0).points)
        gram = Y.gram
        assert gram is Y.gram
        assert not gram.matrix.flags.writeable
        D = Y.design
        assert gram.matrix.tobytes() == (D.T @ D).tobytes()
        assert gram.matrix.tobytes() == Gram.of(D).matrix.tobytes()
        # the lasso tolerance's column max, which the sample's row norm replaces
        assert Y.max_row_norm == float(np.sqrt(np.max(np.sum(D**2, axis=0), initial=0.0)))
        assert gram.col_max == Y.max_row_norm == Gram.of(D).col_max
        assert gram.diag == tuple(np.diag(gram.matrix).tolist())
        assert gram.live == tuple(range(Y.n)) and gram.dead == ()
        for j, column in enumerate(gram.columns):
            assert column.tobytes() == gram.matrix[:, j].tobytes()

    def test_gram_dead_columns(self):
        D = np.array([[1.0, 0.0, -2.0, 0.0], [3.0, 0.0, 0.5, 0.0]])
        gram = Gram.of(D)
        assert gram.live == (0, 2) and gram.dead == (1, 3)
        assert gram.col_max == math.sqrt(10.0)
        assert Gram.of(np.zeros((2, 3))).col_max == 0.0

    def test_total_variance(self):
        Y = random_sample_set(np.random.default_rng(6), n=7, d=3)
        assert Y.total_variance() == float(np.mean(np.sum(Y.data**2, axis=1)))

    def test_import_loads_no_scipy(self):
        # scipy is a test-only dependency; importing it would also
        # multiply the package's import time
        import subprocess
        import sys

        code = "import sys, sparsemix; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"

    def test_rejects_uncentered_and_nonfinite(self):
        with pytest.raises(ValueError):
            SampleSet(data=np.ones((3, 2)), center_offset=np.zeros(2))
        with pytest.raises(ValueError):
            SampleSet(data=1e8 * np.ones((3, 2)), center_offset=np.zeros(2))
        with pytest.raises(ValueError):
            SampleSet.from_points(np.array([[1.0, np.nan]]))
        with pytest.raises(ValueError):
            SampleSet.from_points(np.zeros((0, 2)))

    def test_design_is_transpose(self):
        Y = random_sample_set(np.random.default_rng(3))
        npt.assert_array_equal(Y.design, Y.data.T)

    def test_immutable(self):
        Y = random_sample_set(np.random.default_rng(4))
        with pytest.raises(ValueError):
            Y.data[0, 0] = 1.0


class TestMixtureParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            MixtureParams(weights=np.array([0.5, 0.6]), betas=np.zeros((2, 3)), variances=np.ones(2))
        with pytest.raises(ValueError):
            MixtureParams(weights=np.array([0.5, 0.5]), betas=np.zeros((2, 3)), variances=np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            MixtureParams(weights=np.array([-0.1, 1.1]), betas=np.zeros((2, 3)), variances=np.ones(2))

    def test_means_are_derived(self):
        rng = np.random.default_rng(5)
        Y = random_sample_set(rng, n=4, d=2)
        params = random_params(rng, K=2, n=4)
        npt.assert_allclose(params.means(Y), params.betas @ Y.data)

    def test_basis_beta_realizes_data_point(self):
        rng = np.random.default_rng(6)
        Y = random_sample_set(rng, n=5, d=3)
        betas = np.zeros((1, 5))
        betas[0, 2] = 1.0
        params = MixtureParams(weights=np.array([1.0]), betas=betas, variances=np.array([1.3]))
        npt.assert_allclose(params.means(Y)[0], Y.data[2])


class TestHyperparams:
    def test_validation(self):
        with pytest.raises(ValueError):
            Hyperparams(lam=-1.0)
        with pytest.raises(ValueError):
            Hyperparams(tol=0.0)
        with pytest.raises(ValueError):
            Hyperparams(restarts=0)

    def test_negative_seed_names_field_and_value(self):
        # rejected before the fit reaches numpy's SeedSequence
        Y = random_sample_set(np.random.default_rng(8))
        with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
            run(Y, 2, Hyperparams(seed=-1))

    @pytest.mark.parametrize("field", ["lam", "variance_floor"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_names_field_and_value(self, field, value):
        with pytest.raises(ValueError, match=rf"^{field} must be finite and .*, got {value!r}$"):
            Hyperparams(**{field: value})

    def test_floor_resolution(self):
        Y = random_sample_set(np.random.default_rng(7))
        hp = Hyperparams()
        assert hp.resolve_floor(Y) == default_variance_floor(Y)
        assert Hyperparams(variance_floor=0.25).resolve_floor(Y) == 0.25


class TestComponentLogDensity:
    def test_unit_height_mode_is_zero(self):
        # zero residual, sigma2 = 1/(2 pi), d = 1: log density is exactly 0
        Y = SampleSet.from_points(np.array([[1.0], [-1.0]]))
        beta = np.zeros(2)
        val = component_log_density(np.zeros(1), beta, 1.0 / (2 * math.pi), Y)
        assert val == pytest.approx(0.0, abs=1e-14)

    def test_hand_evaluated_residual(self):
        # residual (1, 0), sigma2 = 1, d = 2 -> -log(2 pi) - 1/2
        Y = SampleSet.from_points(np.array([[1.0, 0.5], [-1.0, -0.5]]))
        val = component_log_density(np.array([1.0, 0.0]), np.zeros(2), 1.0, Y)
        assert val == pytest.approx(-2.3378770664093453, rel=1e-14)

    def test_doubling_variance_drops_log2_at_mode(self):
        Y = SampleSet.from_points(np.array([[1.0, 0.5], [-1.0, -0.5]]))
        beta = np.zeros(2)
        a = component_log_density(np.zeros(2), beta, 1.0, Y)
        b = component_log_density(np.zeros(2), beta, 2.0, Y)
        assert a - b == pytest.approx(math.log(2.0), rel=1e-14)

    def test_rejects_bad_inputs(self):
        Y = SampleSet.from_points(np.array([[1.0], [-1.0]]))
        with pytest.raises(ValueError):
            component_log_density(np.array([np.inf]), np.zeros(2), 1.0, Y)
        with pytest.raises(ValueError):
            component_log_density(np.zeros(1), np.zeros(2), 0.0, Y)


class TestLogLikelihood:
    def test_single_component_sums_densities(self):
        rng = np.random.default_rng(10)
        Y = random_sample_set(rng, n=5, d=2)
        params = random_params(rng, K=1, n=5)
        expected = sum(
            component_log_density(Y.data[i], params.betas[0], params.variances[0], Y)
            for i in range(Y.n)
        )
        assert self_regression_log_likelihood(params, Y) == pytest.approx(expected, rel=1e-12)

    def test_duplicate_components_collapse(self):
        rng = np.random.default_rng(11)
        Y = random_sample_set(rng, n=5, d=2)
        one = random_params(rng, K=1, n=5)
        two = MixtureParams(
            weights=np.array([0.5, 0.5]),
            betas=np.vstack([one.betas, one.betas]),
            variances=np.repeat(one.variances, 2),
        )
        assert self_regression_log_likelihood(two, Y) == pytest.approx(
            self_regression_log_likelihood(one, Y), rel=1e-12
        )

    def test_matches_naive_summation(self):
        rng = np.random.default_rng(12)
        Y = random_sample_set(rng, n=2, d=2)
        params = random_params(rng, K=2, n=2)
        assert self_regression_log_likelihood(params, Y) == pytest.approx(
            naive_log_likelihood(params, Y), rel=1e-12
        )

    def test_logsumexp_shift_property(self):
        # uniform weights: shifting a row of log densities by c moves that
        # row's contribution by exactly c, matching naive evaluation
        rng = np.random.default_rng(13)
        logdens = rng.normal(size=(4, 3))
        w = np.full(3, 1.0 / 3.0)
        base = logsumexp(logdens + np.log(w), axis=1)
        shifted = logsumexp((logdens + 2.5) + np.log(w), axis=1)
        npt.assert_allclose(shifted, base + 2.5, rtol=1e-12)
        naive = np.log(np.sum(w * np.exp(logdens), axis=1))
        npt.assert_allclose(base, naive, rtol=1e-12)

    @given(st.data())
    def test_logsumexp_rows_is_scipy_bit_for_bit(self, data):
        a = data.draw(hnp.arrays(
            np.float64,
            hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=8),
            elements=st.floats(allow_nan=False, allow_infinity=False),
        ))
        n, K = a.shape
        for i, j in data.draw(st.lists(st.tuples(st.integers(0, K - 1), st.integers(0, K - 1)), max_size=3)):
            a[:, j] = a[:, i]  # exact ties at the row max
        if data.draw(st.booleans()):
            a[data.draw(st.integers(0, n - 1))] = -np.inf  # a point no component can explain
        weights = np.asarray(data.draw(st.lists(st.sampled_from([0.0, 0.25, 0.5]), min_size=K, max_size=K)))
        logp, lse = log_joint(a, weights)  # zero weights give -inf columns
        assert logsumexp_rows(a).tobytes() == logsumexp(a, axis=1).tobytes()
        assert lse.tobytes() == logsumexp(logp, axis=1).tobytes()

    # One row per path: the first takes the fast path (finite max attained
    # once; a -inf entry from a zero weight does not leave it), the rest
    # each fall back to the tie-counting or the direct formula.
    PINNED_ROWS = {
        "unique max": [0.5, -1.0, 2.0],
        "unique max, zero weight": [-np.inf, 0.3, -2.0],
        "two-way tie": [1.0, 1.0, -3.0],
        "three-way tie": [2.0, 2.0, 2.0],
        "all -inf": [-np.inf, -np.inf, -np.inf],
        "+inf": [np.inf, 1.0, 0.0],
        "nan": [np.nan, 1.0, 0.0],
    }

    @pytest.mark.parametrize("name", list(PINNED_ROWS))
    def test_logsumexp_rows_pinned_rows(self, name):
        row = np.array([self.PINNED_ROWS[name]])
        with np.errstate(all="ignore"):
            expected = logsumexp(row, axis=1)
        with np.errstate(all="raise"):  # no path warns
            got = logsumexp_rows(row)
        assert got.tobytes() == expected.tobytes()

    def test_logsumexp_rows_pinned_rows_together(self):
        a = np.array(list(self.PINNED_ROWS.values()))
        with np.errstate(all="ignore"):
            expected = logsumexp(a, axis=1)
        assert logsumexp_rows(a).tobytes() == expected.tobytes()
        fast = a[:2]
        assert logsumexp_rows(fast).tobytes() == logsumexp(fast, axis=1).tobytes()

    def test_basis_vector_betas_match_spherical_likelihood(self):
        from sparsemix.baseline import SphericalParams, spherical_log_likelihood

        rng = np.random.default_rng(14)
        Y = random_sample_set(rng, n=6, d=2)
        betas = np.zeros((2, 6))
        betas[0, 1] = 1.0
        betas[1, 4] = 1.0
        params = MixtureParams(weights=np.array([0.4, 0.6]), betas=betas, variances=np.array([1.0, 2.0]))
        spherical = SphericalParams(
            weights=params.weights, means=Y.data[[1, 4]], variances=params.variances
        )
        assert self_regression_log_likelihood(params, Y) == pytest.approx(
            spherical_log_likelihood(spherical, Y), rel=1e-12
        )


class TestPenalizedObjective:
    def test_zero_penalty_equals_likelihood(self):
        rng = np.random.default_rng(15)
        Y = random_sample_set(rng)
        params = random_params(rng, K=2, n=Y.n)
        assert penalized_value(params, Y, [0.0, 0.0]) == self_regression_log_likelihood(params, Y)

    def test_zero_betas_ignore_penalty(self):
        rng = np.random.default_rng(16)
        Y = random_sample_set(rng)
        params = MixtureParams(
            weights=np.array([0.5, 0.5]), betas=np.zeros((2, Y.n)), variances=np.array([1.0, 2.0])
        )
        assert penalized_value(params, Y, [7.0, 7.0]) == self_regression_log_likelihood(params, Y)

    def test_direct_arithmetic(self):
        rng = np.random.default_rng(17)
        Y = random_sample_set(rng, n=4)
        betas = np.array([[1.0, -0.5, 0.0, 0.0], [0.0, 0.0, 2.0, 0.0]])  # l1 sums 1.5 + 2.0
        params = MixtureParams(weights=np.array([0.3, 0.7]), betas=betas, variances=np.array([1.0, 1.0]))
        ll = self_regression_log_likelihood(params, Y)
        assert penalized_value(params, Y, [1.0, 1.0]) == pytest.approx(ll - 3.5, rel=1e-12)
        assert penalized_value(params, Y, [1.0, 2.0]) == pytest.approx(ll - 5.5, rel=1e-12)

    def test_label_permutation_invariance(self):
        rng = np.random.default_rng(18)
        Y = random_sample_set(rng, n=5)
        params = random_params(rng, K=3, n=5)
        shuffled = params.permuted([2, 0, 1])
        lams = np.array([0.8, 0.3, 1.5])
        assert penalized_value(params, Y, lams) == pytest.approx(
            penalized_value(shuffled, Y, lams[[2, 0, 1]]), rel=1e-12
        )

    def test_rejects_negative_lambda(self):
        rng = np.random.default_rng(19)
        Y = random_sample_set(rng)
        params = random_params(rng, K=2, n=Y.n)
        with pytest.raises(ValueError, match="lams must be >= 0"):
            penalized_value(params, Y, [0.5, -0.1])
        with pytest.raises(ValueError, match="lams must be >= 0"):
            penalized_value(params, Y, [0.5, np.nan])

    @pytest.mark.parametrize("lams", [0.5, [0.5], [0.5, 0.5, 0.5], [[0.5, 0.5]]])
    def test_rejects_one_weight_per_component_mismatch(self, lams):
        rng = np.random.default_rng(19)
        Y = random_sample_set(rng)
        params = random_params(rng, K=2, n=Y.n)
        with pytest.raises(ValueError, match=r"lams must have shape \(2,\)"):
            penalized_value(params, Y, lams)


class TestQFunction:
    def test_single_component_equals_likelihood(self):
        rng = np.random.default_rng(20)
        Y = random_sample_set(rng, n=5, d=2)
        params = random_params(rng, K=1, n=5)
        tau = np.ones((5, 1))
        assert q_function(params, tau, Y) == pytest.approx(
            self_regression_log_likelihood(params, Y), rel=1e-12
        )

    def test_self_responsibilities_recover_likelihood(self):
        rng = np.random.default_rng(21)
        Y = random_sample_set(rng, n=6, d=2)
        params = random_params(rng, K=3, n=6)
        tau = e_step(params, Y)
        assert q_function(params, tau, Y) == pytest.approx(
            self_regression_log_likelihood(params, Y), rel=1e-10
        )

    def test_decomposition_identity(self):
        # q(theta, tau(theta_bar)) + kullback(theta, theta_bar) = loglik(theta)
        rng = np.random.default_rng(22)
        for _ in range(25):
            Y = random_sample_set(rng, n=6, d=2)
            theta = random_params(rng, K=2, n=6)
            theta_bar = random_params(rng, K=2, n=6)
            tau_bar = e_step(theta_bar, Y)
            lhs = q_function(theta, tau_bar, Y) + kullback_penalty(theta, theta_bar, Y)
            rhs = self_regression_log_likelihood(theta, Y)
            assert lhs == pytest.approx(rhs, abs=1e-8)

    def test_zero_weight_with_mass_is_minus_inf(self):
        rng = np.random.default_rng(23)
        Y = random_sample_set(rng, n=4, d=2)
        params = MixtureParams(
            weights=np.array([1.0, 0.0]),
            betas=np.zeros((2, 4)),
            variances=np.array([1.0, 1.0]),
        )
        tau = np.full((4, 2), 0.5)
        assert q_function(params, tau, Y) == -np.inf


class TestKullbackPenalty:
    def test_self_divergence_is_zero(self):
        rng = np.random.default_rng(24)
        Y = random_sample_set(rng, n=5, d=2)
        params = random_params(rng, K=2, n=5)
        assert kullback_penalty(params, params, Y) == pytest.approx(0.0, abs=1e-14)

    def test_scalar_kl_arithmetic(self):
        # single point at the origin: responsibilities depend only on the
        # weights when the components share mean and variance
        Y = SampleSet(data=np.zeros((1, 1)), center_offset=np.zeros(1))
        base = dict(betas=np.zeros((2, 1)), variances=np.array([1.0, 1.0]))
        theta = MixtureParams(weights=np.array([0.9, 0.1]), **base)
        theta_bar = MixtureParams(weights=np.array([0.5, 0.5]), **base)
        assert kullback_penalty(theta, theta_bar, Y) == pytest.approx(0.5108256237659907, rel=1e-12)

    def test_nonnegative_on_random_pairs(self):
        rng = np.random.default_rng(25)
        for _ in range(50):
            Y = random_sample_set(rng, n=5, d=2)
            a = random_params(rng, K=3, n=5)
            b = random_params(rng, K=3, n=5)
            assert kullback_penalty(a, b, Y) >= -1e-12


class TestResponsibilities:
    def test_check_accepts_valid_rows(self):
        rng = np.random.default_rng(26)
        Y = random_sample_set(rng, n=7, d=2)
        params = random_params(rng, K=3, n=7)
        tau = e_step(params, Y)
        assert tau.shape == (7, 3)
        assert np.all((tau >= 0) & (tau <= 1))
        npt.assert_allclose(tau.sum(axis=1), 1.0, rtol=0, atol=1e-10)

    def test_log_density_matrix_matches_scalar_op(self):
        rng = np.random.default_rng(27)
        Y = random_sample_set(rng, n=4, d=3)
        params = random_params(rng, K=2, n=4)
        mat = log_density_matrix(params, Y)
        for i in range(Y.n):
            for k in range(params.K):
                expected = component_log_density(
                    Y.data[i], params.betas[k], params.variances[k], Y
                )
                assert mat[i, k] == pytest.approx(expected, rel=1e-12)
