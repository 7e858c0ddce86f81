"""The model's one evaluator against the direct composition, bit for bit.

Every evaluation of a ``MixtureParams`` goes through ``model.Blocks``.
Within one restart the EM loop carries one instance and keeps the means,
squared distances, log normalizers, log weights and log densities that a
partial step leaves unchanged; everywhere else a fresh instance is
built.  Both must equal ``log_joint(log_density_matrix(...))``, which
composes the same arithmetic directly: the loop's (logp, lse) after
every kind of step and after every re-seed, for the sparse cycle and for
the baseline's M-step, and the objectives (``e_step``,
``self_regression_log_likelihood``, ``q_function``, ``kullback_penalty``)
against their formulas written on that composition.  Every block the
loop carries must also equal, byte for byte, the block of a fresh
``Blocks(Y)`` synced to the same parameters, including the beta blocks
that the baseline's M-step installs itself.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from test_reference_loops import ABORT, BASELINE_RESEED, RESEED, cases, fit_inputs

from sparsemix import baseline, sparse_em
from sparsemix.model import (
    Blocks,
    EmptyClusterError,
    MixtureParams,
    SampleSet,
    kullback_penalty,
    log_density_matrix,
    log_joint,
    log_weights,
    q_function,
    self_regression_log_likelihood,
)


def direct_evaluate(params, Y):
    return log_joint(log_density_matrix(params, Y), params.weights)


BLOCK_NAMES = ("sq", "l1", "norms", "log_dens", "log_w")


def assert_blocks_match(blocks, params, names=BLOCK_NAMES):
    """Each named block of ``blocks`` has the bytes of a fresh ``Blocks`` synced to ``params``."""
    fresh = Blocks(blocks.Y)
    fresh.sync(params)
    for name in names:
        got, want = getattr(blocks, name), getattr(fresh, name)
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name


class CheckedLoop:
    """Patches the EM loop so every carried evaluation is checked.

    ``seen`` counts the checked evaluations by what preceded them: the
    start of a restart, a weights/beta/sigma step, a baseline M-step or
    a re-seed.
    """

    def __init__(self):
        self.seen = {}
        self.last = "init"

    def __enter__(self):
        step, evaluate, reseed = sparse_em._step, Blocks.evaluate, sparse_em._reseed
        m_step = baseline._step

        def checked_step(blocks, params, tau, tag, Y, hp):
            # the loop has just evaluated params, so the sigma step reads its blocks as they stand
            assert blocks.betas is params.betas and blocks.variances is params.variances, tag
            assert blocks.weights is params.weights and blocks.log_dens is not None, tag
            self.last = tag[0]
            return step(blocks, params, tau, tag, Y, hp)

        def checked_m_step(*args):
            self.last = "m_step"
            return m_step(*args)

        def checked_evaluate(blocks, params):
            logp, lse = evaluate(blocks, params)
            fresh_logp, fresh_lse = direct_evaluate(params, blocks.Y)
            assert logp.tobytes() == fresh_logp.tobytes(), self.last
            assert lse.tobytes() == fresh_lse.tobytes(), self.last
            assert_blocks_match(blocks, params)
            self.seen[self.last] = self.seen.get(self.last, 0) + 1
            self.last = "init"
            return logp, lse

        def checked_reseed(*args):
            self.last = "reseed"
            return reseed(*args)

        self.patches = [
            mock.patch.object(sparse_em, "_step", checked_step),
            mock.patch.object(Blocks, "evaluate", checked_evaluate),
            mock.patch.object(sparse_em, "_reseed", checked_reseed),
            mock.patch.object(baseline, "_step", checked_m_step),
        ]
        for patch in self.patches:
            patch.start()
        return self

    def __exit__(self, *exc):
        for patch in reversed(self.patches):
            patch.stop()


class TestCarriedBlocks:
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(case=cases)
    @example(case=RESEED)
    @example(case=ABORT)
    @example(case={**RESEED, "lam": 0.5})
    @example(case=BASELINE_RESEED)
    def test_loop_evaluations_match_fresh(self, case):
        Y, hp, seed = fit_inputs(case)
        with CheckedLoop() as loop:
            report = sparse_em.run(Y, 3, hp, seed=seed)
        assert {"init", "weights", "beta"} <= set(loop.seen)
        if report.cycles_run > 0:
            assert "sigma" in loop.seen
        if hp.restarts == 1:  # with more, the report is one restart of several
            assert ("reseed" in loop.seen) == bool(report.reseed_events)
        with CheckedLoop() as loop:
            report = baseline.baseline_fit(Y, 3, hp, seed=seed)
        assert {"init", "m_step"} <= set(loop.seen)
        if hp.restarts == 1:
            assert ("reseed" in loop.seen) == bool(report.reseed_events)

    def test_pinned_draws_check_reseeded_blocks(self):
        for case, fit, step in ((RESEED, sparse_em.run, "sigma"), (ABORT, sparse_em.run, "sigma"),
                                (BASELINE_RESEED, baseline.baseline_fit, "m_step")):
            Y, hp, seed = fit_inputs(case)
            with CheckedLoop() as loop:
                fit(Y, 3, hp, seed=seed)
            assert loop.seen["reseed"] >= 1 and loop.seen[step] >= 1


class TestMStepBlocks:
    """Classic EM's M-step computes its betas' blocks once and leaves them in the carried ``Blocks``."""

    @settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(case=cases)
    @example(case=BASELINE_RESEED)
    def test_m_step_leaves_fresh_blocks(self, case):
        Y, hp, seed = fit_inputs(case)
        m_step = baseline._m_step
        checked = []

        def checked_m_step(blocks, tau, floor):
            params = m_step(blocks, tau, floor)
            assert blocks.betas is params.betas  # so the loop's sync keeps them
            assert_blocks_match(blocks, params, ("sq", "l1"))
            assert blocks.log_dens is None  # stale until the sync that follows
            blocks.sync(params)
            assert_blocks_match(blocks, params)
            checked.append(params)
            return params

        with mock.patch.object(baseline, "_m_step", checked_m_step):
            baseline.baseline_fit(Y, 3, hp, seed=seed)
        assert checked

    def test_empty_component_leaves_blocks_unchanged(self):
        Y, hp, seed = fit_inputs(BASELINE_RESEED)
        params = sparse_em.indicator_init(Y, 2, hp.resolve_floor(Y), np.random.default_rng(0))
        blocks = Blocks(Y)
        blocks.evaluate(params)
        tau = np.zeros((Y.n, 2))
        tau[:, 0] = 1.0
        before = {name: getattr(blocks, name) for name in ("betas", *BLOCK_NAMES)}
        with pytest.raises(EmptyClusterError):
            baseline._m_step(blocks, tau, hp.resolve_floor(Y))
        assert all(getattr(blocks, name) is value for name, value in before.items())
        assert_blocks_match(blocks, params)


# Each objective written on the direct composition log_joint(log_density_matrix(...)), the reference for Blocks.
def direct_e_step(params, Y):
    logp, lse = direct_evaluate(params, Y)
    return np.exp(logp - lse[:, None])


def direct_log_likelihood(params, Y):
    return float(np.sum(direct_evaluate(params, Y)[1]))


def direct_q_function(params, tau, Y):
    logp = log_density_matrix(params, Y) + log_weights(params.weights)[None, :]
    with np.errstate(invalid="ignore", divide="ignore"):
        complete = np.where(tau > 0, tau * logp, 0.0)
        entropy = np.where(tau > 0, tau * np.log(tau), 0.0)
    return float(np.sum(complete) - np.sum(entropy))


def direct_kullback_penalty(theta, theta_bar, Y):
    logp, lse = direct_evaluate(theta, Y)
    log_t = logp - lse[:, None]
    logp, lse = direct_evaluate(theta_bar, Y)
    log_tb = logp - lse[:, None]
    tb = np.exp(log_tb)
    with np.errstate(invalid="ignore"):
        terms = np.where(tb > 0, tb * (log_tb - log_t), 0.0)
    return float(np.sum(terms))


def same_bits(a, b) -> bool:
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


@st.composite
def evaluation_inputs(draw):
    """Data and two parameter sets on it; weights may hold exact zeros (log weight -inf)."""
    n, d, K = draw(st.integers(1, 6)), draw(st.integers(1, 4)), draw(st.integers(1, 4))
    Y = SampleSet(draw(hnp.arrays(float, (n, d), elements=st.floats(-100.0, 100.0))))

    def params():
        w = draw(hnp.arrays(float, K, elements=st.floats(0.0, 1.0)).filter(lambda w: w.sum() > 0.01))
        return MixtureParams(
            weights=w / w.sum(),
            betas=draw(hnp.arrays(float, (K, n), elements=st.floats(-3.0, 3.0))),
            variances=draw(hnp.arrays(float, K, elements=st.floats(1e-2, 1e2))),
        )

    return Y, params(), params()


class TestFreshEvaluation:
    @settings(max_examples=200, deadline=None)
    @given(inputs=evaluation_inputs())
    def test_objectives_match_direct_composition(self, inputs):
        Y, theta, theta_bar = inputs
        logp, lse = Blocks(Y).evaluate(theta)
        direct_logp, direct_lse = direct_evaluate(theta, Y)
        assert same_bits(logp, direct_logp) and same_bits(lse, direct_lse)
        tau = sparse_em.e_step(theta_bar, Y)
        assert same_bits(tau, direct_e_step(theta_bar, Y))
        assert same_bits(self_regression_log_likelihood(theta, Y), direct_log_likelihood(theta, Y))
        assert same_bits(q_function(theta, tau, Y), direct_q_function(theta, tau, Y))
        assert same_bits(kullback_penalty(theta, theta_bar, Y), direct_kullback_penalty(theta, theta_bar, Y))
