"""Core types and objective functions."""

import math
import re
import warnings

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.special import logsumexp

from sparsemix.model import (
    Blocks,
    Gram,
    Hyperparams,
    MixtureParams,
    SampleSet,
    as_finite_array,
    child_seed_seq,
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
from oracles import random_params


def random_sample_set(rng, n=6, d=3, scale=1.0):
    return SampleSet(scale * rng.normal(size=(n, d)))


def component_log_density(y, beta, sigma2: float, Y: SampleSet) -> float:
    """Scalar oracle: log of one spherical Gaussian component at ``y`` with mean Y beta.

    Returns -(d/2) log(2 pi sigma2) - ||y - Y beta||^2 / (2 sigma2).
    """
    yv = as_finite_array(y, "y")
    bv = as_finite_array(beta, "beta")
    if not (np.isfinite(sigma2) and sigma2 > 0):
        raise ValueError("sigma2 must be positive and finite")
    if yv.shape != (Y.d,) or bv.shape != (Y.n,):
        raise ValueError("y must have shape (d,), beta shape (n,)")
    resid = yv - bv @ Y.data
    return float(-0.5 * Y.d * (math.log(2.0 * math.pi) + math.log(sigma2)) - resid @ resid / (2.0 * sigma2))


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


def scipy_logsumexp_rows(a):
    with np.errstate(all="ignore"):
        return logsumexp(a, axis=1)


def assert_matches_scipy(got, a):
    """``got`` is scipy's logsumexp of the rows of ``a``: NaN and infinite where it is, else within 4 ulp.

    The ulp is that of max(1, |row max|), the scale of the max shift.
    """
    expected = scipy_logsumexp_rows(a)
    nan = np.isnan(expected)  # compared only as NaN: hypothesis draws NaN payloads
    assert (np.isnan(got) == nan).all()
    finite = np.isfinite(expected)
    assert got[~nan & ~finite].tobytes() == expected[~nan & ~finite].tobytes()
    ulp = 2 * np.spacing(np.maximum(1.0, np.abs(a[finite].max(axis=1))) / 2)  # no overflow at the largest double
    assert (np.abs(got[finite] - expected[finite]) <= 4 * ulp).all()


scenario_samples = st.builds(
    lambda dim, dilation, seed: SampleSet(gen_replicate(ScenarioConfig(dim, dilation, seed=seed), 0).points),
    st.sampled_from([1, 2, 5, 50]),
    st.sampled_from([10.0, 60.0, 100.0]),
    st.integers(0, 2**32 - 1),
)
# raw points at scales 1e-150 to 1e150, with widths around the 8-wide unrolling and
# 128-long blocks of numpy's pairwise sum
raw_samples = st.builds(
    lambda d, n, exponent, seed: SampleSet(
        10.0**exponent * (np.random.default_rng(seed).normal(size=(n, d)) + np.arange(d))
    ),
    st.sampled_from([1, 2, 3, 8, 9, 16, 17, 50, 129, 200]),
    st.integers(1, 200),
    st.floats(-150.0, 150.0),
    st.integers(0, 2**32 - 1),
)


class TestSampleSet:
    def test_centering_and_offset(self):
        rng = np.random.default_rng(1)
        raw = rng.normal(size=(8, 3)) + np.array([5.0, -2.0, 100.0])
        Y = SampleSet(raw)
        npt.assert_allclose(Y.data.mean(axis=0), 0.0, atol=1e-10)
        npt.assert_allclose(Y.uncenter(Y.data), raw, atol=1e-9)
        assert Y.n == 8 and Y.d == 3

    def test_centering_survives_large_scales(self):
        rng = np.random.default_rng(2)
        raw = 1e4 * rng.normal(size=(10, 2)) + 5e3
        Y = SampleSet(raw)
        assert np.max(np.abs(Y.data.mean(axis=0))) <= 1e-10

    @pytest.mark.parametrize("scale", [1e7, 1e8, 1e12, 1e100])
    def test_uncenter_round_trips_at_large_scales(self, scale):
        rng = np.random.default_rng(3)
        for _ in range(20):
            raw = scale * (1.0 + 0.1 * rng.normal(size=(10, 3)))
            Y = SampleSet(raw)
            npt.assert_allclose(Y.uncenter(Y.data), raw, rtol=1e-9)

    @pytest.mark.parametrize("scale", [1e155, 1e300, 5e307])
    def test_rejects_overflowing_squared_norms(self, scale):
        rng = np.random.default_rng(4)
        raw = scale * (1.0 + 0.1 * rng.normal(size=(10, 3)))
        # at 5e307 the column sums overflow too; that is rejected by name,
        # with no warning from any module
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="squared norms .* overflow"):
                SampleSet(raw)
            # each squared norm is finite, their mean is not
            with pytest.raises(ValueError, match="squared norms .* overflow"):
                SampleSet(np.array([[1.2e154], [-1.2e154]]))

    def test_max_row_norm(self):
        Y = random_sample_set(np.random.default_rng(5), n=7, d=3)
        assert Y.gram.col_max == max(math.sqrt(float(row @ row)) for row in Y.data)

    @settings(max_examples=120, deadline=None)
    @given(Y=st.one_of(scenario_samples, raw_samples))
    def test_gram(self, Y):
        gram = Y.gram
        assert gram is Y.gram
        # a read-only view of the sample's design, its data transposed
        D = Y.design
        assert not gram.design.flags.writeable
        assert gram.design.shape == D.shape and gram.design.tobytes() == D.tobytes()
        assert np.shares_memory(gram.design, Y.data)
        # the column max, derived from the design, has the bits of the largest row norm of the data
        assert gram.col_max == Gram(D).col_max == math.sqrt(float(np.max(np.sum(Y.data**2, axis=1))))
        assert Y.total_variance == float(np.mean(np.sum(Y.data**2, axis=1)))
        # a centered sample of one point is all zero: its column is zero
        nonzero = np.array([bool(row.any()) for row in Y.data])
        assert np.array_equal(D.any(axis=0), nonzero)
        # each column's largest absolute entry, read-only, and an empty cache of factorisations
        assert not gram.scale.flags.writeable
        assert gram.scale.tobytes() == np.array([np.abs(row).max() for row in Y.data]).tobytes()
        assert np.array_equal(gram.scale != 0, nonzero)
        assert Gram(D).faces == {}

    def test_gram_dead_columns(self):
        D = np.array([[1.0, 0.0, -2.0, 0.0], [3.0, 0.0, 0.5, 0.0]])
        gram = Gram(D)
        assert gram.col_max == math.sqrt(10.0)
        assert np.array_equal(gram.scale, [3.0, 0.0, 2.0, 0.0])
        assert Gram(np.zeros((2, 3))).col_max == 0.0
        # the design is the only argument: the constants derived from it cannot be passed
        with pytest.raises(TypeError):
            Gram(D, math.sqrt(10.0), np.array([3.0, 0.0, 2.0, 0.0]))
        with pytest.raises(TypeError):
            Gram(D, faces={})
        # the Gram's view is read-only and the caller's array is not
        assert not gram.design.flags.writeable and D.flags.writeable and np.shares_memory(gram.design, D)

    def test_total_variance(self):
        Y = random_sample_set(np.random.default_rng(6), n=7, d=3)
        assert Y.total_variance == float(np.mean(np.sum(Y.data**2, axis=1)))

    def test_import_loads_no_scipy(self):
        # scipy is a test-only dependency; importing it would also
        # multiply the package's import time
        import subprocess
        import sys

        code = "import sys, sparsemix; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"

    def test_rejects_uncentered_and_nonfinite(self):
        # the points are the only input: no sample is built from data said to be centered
        with pytest.raises(TypeError):
            SampleSet(data=np.ones((3, 2)), center_offset=np.zeros(2))
        with pytest.raises(ValueError):
            SampleSet(np.array([[1.0, np.nan]]))
        with pytest.raises(ValueError):
            SampleSet(np.zeros((0, 2)))

    def test_design_is_transpose(self):
        Y = random_sample_set(np.random.default_rng(3))
        npt.assert_array_equal(Y.design, Y.data.T)

    def test_immutable(self):
        raw = np.random.default_rng(4).normal(size=(6, 3))
        Y = SampleSet(raw)
        with pytest.raises(ValueError):
            Y.data[0, 0] = 1.0
        with pytest.raises(ValueError):
            Y.center_offset[0] = 1.0
        # the caller's array is neither frozen nor shared
        raw[0, 0] = 1.0
        assert not np.shares_memory(Y.data, raw) and not np.shares_memory(Y.center_offset, raw)


class TestChildSeedSeq:
    # restarts, replicate data and replicate fits all draw their streams
    # through this one rule, so it must give spawn's children for any seed
    @given(entropy=st.integers(0, 2**128 - 1), spawn_key=st.lists(st.integers(0, 2**32 - 1), max_size=3).map(tuple),
           pool_size=st.sampled_from([4, 8]), index=st.integers(0, 20))
    def test_equals_spawn(self, entropy, spawn_key, pool_size, index):
        seq = np.random.SeedSequence(entropy, spawn_key=spawn_key, pool_size=pool_size)
        child = child_seed_seq(seq, index)
        spawned = np.random.SeedSequence(entropy, spawn_key=spawn_key, pool_size=pool_size).spawn(index + 1)[index]
        assert (child.entropy, child.spawn_key, child.pool_size) == (spawned.entropy, spawned.spawn_key, pool_size)
        npt.assert_array_equal(child.generate_state(8), spawned.generate_state(8))
        assert seq.n_children_spawned == 0  # the parent is not advanced
        if not spawn_key and pool_size == 4:  # an int seed stands for SeedSequence(seed)
            npt.assert_array_equal(child_seed_seq(entropy, index).generate_state(8), spawned.generate_state(8))


class TestMixtureParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            MixtureParams(weights=np.array([0.5, 0.6]), betas=np.zeros((2, 3)), variances=np.ones(2))
        with pytest.raises(ValueError):
            MixtureParams(weights=np.array([0.5, 0.5]), betas=np.zeros((2, 3)), variances=np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            MixtureParams(weights=np.array([-0.1, 1.1]), betas=np.zeros((2, 3)), variances=np.ones(2))

    @pytest.mark.parametrize("field, value, message", [
        ("weights", np.array([0.5, 0.6]), "weights must be finite, non-negative and sum to 1"),
        ("weights", np.array([np.nan, 1.0]), "weights must be finite, non-negative and sum to 1"),
        ("weights", np.array([np.inf, 1.0]), "weights must be finite, non-negative and sum to 1"),
        ("weights", np.array([]), "weights must be a non-empty vector"),
        ("variances", np.array([1.0, 0.0]), "variances must be finite and positive"),
        ("variances", np.array([np.inf, 1.0]), "variances must be finite and positive"),
        ("variances", np.ones(3), "variances must have the shape (2,) of weights"),
    ])
    def test_messages_name_field_and_value(self, field, value, message):
        kw = dict(weights=np.array([0.5, 0.5]), betas=np.zeros((2, 3)), variances=np.ones(2))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}, got {re.escape(repr(value))}$"):
            MixtureParams(**{**kw, field: value})

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

    def test_nonpositive_tol_names_value(self):
        with pytest.raises(ValueError, match=r"^tol must be positive, got -0.0$"):
            Hyperparams(tol=-0.0)

    @pytest.mark.parametrize("field", ["max_cycles", "restarts", "seed"])
    def test_rejects_bool_counts(self, field):
        with pytest.raises(ValueError, match=rf"^{field} must be an integer, got True$"):
            Hyperparams(**{field: True})

    @pytest.mark.parametrize("field", ["lam", "tol", "variance_floor"])
    def test_rejects_bool_numbers(self, field):
        with pytest.raises(ValueError, match=rf"^{field} takes numbers, not bools, got True$"):
            Hyperparams(**{field: True})

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
        Y = SampleSet(np.array([[1.0], [-1.0]]))
        beta = np.zeros(2)
        val = component_log_density(np.zeros(1), beta, 1.0 / (2 * math.pi), Y)
        assert val == pytest.approx(0.0, abs=1e-14)

    def test_hand_evaluated_residual(self):
        # residual (1, 0), sigma2 = 1, d = 2 -> -log(2 pi) - 1/2
        Y = SampleSet(np.array([[1.0, 0.5], [-1.0, -0.5]]))
        val = component_log_density(np.array([1.0, 0.0]), np.zeros(2), 1.0, Y)
        assert val == pytest.approx(-2.3378770664093453, rel=1e-14)

    def test_doubling_variance_drops_log2_at_mode(self):
        Y = SampleSet(np.array([[1.0, 0.5], [-1.0, -0.5]]))
        beta = np.zeros(2)
        a = component_log_density(np.zeros(2), beta, 1.0, Y)
        b = component_log_density(np.zeros(2), beta, 2.0, Y)
        assert a - b == pytest.approx(math.log(2.0), rel=1e-14)

    def test_rejects_bad_inputs(self):
        Y = SampleSet(np.array([[1.0], [-1.0]]))
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
    def test_logsumexp_rows_is_within_4_ulp_of_scipy(self, data):
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
        assert_matches_scipy(logsumexp_rows(a), a)
        assert_matches_scipy(lse, logp)

    @given(st.data())
    def test_logsumexp_rows_non_finite_entries_match_scipy(self, data):
        a = data.draw(hnp.arrays(
            np.float64,
            hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=8),
            elements=st.floats(allow_nan=True, allow_infinity=True),
        ))
        K = a.shape[1]
        for i, j in data.draw(st.lists(st.tuples(st.integers(0, K - 1), st.integers(0, K - 1)), max_size=3)):
            a[:, j] = a[:, i]  # exact ties at the row max, infinite ones included
        assert_matches_scipy(logsumexp_rows(a), a)

    # One row per case.  The finite ones are checked within 4 ulp of
    # scipy; the edge rows exactly: an all -inf row, a +inf entry and a
    # NaN entry, whose infinite or NaN max must not turn the shift into
    # NaN, a shift that overflows to -inf, and terms whose exp underflows
    # to 0.  Every row must pass without a floating-point warning.
    PINNED_ROWS = {
        "unique max": [0.5, -1.0, 2.0],
        "unique max, zero weight": [-np.inf, 0.3, -2.0],
        "two-way tie": [1.0, 1.0, -3.0],
        "three-way tie": [2.0, 2.0, 2.0],
        "all -inf": [-np.inf, -np.inf, -np.inf],
        "+inf": [np.inf, 1.0, 0.0],
        "nan": [np.nan, 1.0, 0.0],
        "shift beyond the float range": [-1.7976931348623157e308, 3e292, -np.inf],
        "exp underflows": [0.0, -800.0, -1e5],
    }
    EDGE_ROWS = ("all -inf", "+inf", "nan", "shift beyond the float range", "exp underflows")

    @pytest.mark.parametrize("name", list(PINNED_ROWS))
    def test_logsumexp_rows_pinned_rows(self, name):
        row = np.array([self.PINNED_ROWS[name]])
        with np.errstate(all="raise"):  # no row warns
            got = logsumexp_rows(row)
        if name in self.EDGE_ROWS:
            assert got.tobytes() == scipy_logsumexp_rows(row).tobytes()
        else:
            assert_matches_scipy(got, row)

    def test_logsumexp_rows_pinned_rows_together(self):
        a = np.array(list(self.PINNED_ROWS.values()))
        got = logsumexp_rows(a)
        assert_matches_scipy(got, a)
        edge = [i for i, name in enumerate(self.PINNED_ROWS) if name in self.EDGE_ROWS]
        assert got[edge].tobytes() == logsumexp_rows(a[edge]).tobytes() == scipy_logsumexp_rows(a[edge]).tobytes()

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
        shuffled = MixtureParams(params.weights[[2, 0, 1]], params.betas[[2, 0, 1]], params.variances[[2, 0, 1]])
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

    def test_negative_lambda_named_with_value(self):
        rng = np.random.default_rng(19)
        Y = random_sample_set(rng)
        params = random_params(rng, K=2, n=Y.n)
        with pytest.raises(ValueError, match=r"^lams must be >= 0, got \[0.5, -0.25\]$"):
            penalized_value(params, Y, [0.5, -0.25])

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), d=st.sampled_from([1, 2, 5, 50]), n=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
    def test_one_evaluation_gives_likelihood_and_l1(self, data, d, n, seed):
        # Blocks.set_betas holds the one l1 formula; it has the bytes of abs(betas).sum(axis=1)
        K = data.draw(st.integers(1, n), label="K")
        lams = np.array(data.draw(st.lists(st.just(0.0) | st.floats(1e-3, 1e3), min_size=K, max_size=K),
                                  label="lams"))
        rng = np.random.default_rng(seed)
        Y = random_sample_set(rng, n=n, d=d)
        params = random_params(rng, K=K, n=n)
        params = MixtureParams(params.weights, params.betas * (rng.random((K, n)) < 0.5), params.variances)
        blocks = Blocks(Y)
        lse = blocks.evaluate(params)[1]
        want = float(np.sum(lse)) - float(lams @ blocks.l1)
        assert penalized_value(params, Y, lams).hex() == want.hex()
        assert blocks.l1.tobytes() == np.abs(params.betas).sum(axis=1).tobytes()

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
        Y = SampleSet(np.zeros((1, 1)))
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
