"""The fitting loops against plain reference loops, bit for bit.

Each driver evaluates the model once per partial step and builds its
parameters unvalidated inside the loop.  The reference loops below do
the same work the direct way: a fresh E-step before every step, the
objective from its own evaluation afterwards, and validated parameters
throughout.  Swapped in for the fast loop (``sparse_em.em_loop``) under
the same restart driver, they must produce byte-identical reports.
"""

from dataclasses import fields, replace
from unittest import mock

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from sparsemix import baseline, sparse_em
from sparsemix.model import (
    Blocks,
    EmptyClusterError,
    Hyperparams,
    SampleSet,
    self_regression_log_likelihood,
    squared_distances,
)
from sparsemix.simulate import ScenarioConfig, fit_seed_seq, gen_replicate


def reference_loop(Y, params, hp, order, _step):
    """The sparse loop with one E-step and one objective evaluation per step.

    The penalty weights come from ``effective_lams`` once per cycle, at
    the responsibilities the cycle starts from, and serve every step of
    the cycle; the cycle converges when its last objective value lies
    within ``hp.tol`` of its start value under those weights.
    """
    floor = hp.resolve_floor(Y)
    sigma2_init = sparse_em.default_sigma2(Y, params.K, floor)
    trace = []
    reseed_events = []
    reseed_counts = np.zeros(params.K, dtype=int)
    diagnostic = None
    converged = False
    cycles_run = 0
    aborted = False

    for cycle in range(hp.max_cycles):
        for step_idx, (kind, k) in enumerate(order):
            tau = sparse_em.e_step(params, Y)
            if step_idx == 0:
                lams = sparse_em.effective_lams(params, tau, Y, hp)
                start = sparse_em.penalized_value(params, Y, lams)
            try:
                if kind == "weights":
                    params = replace(params, weights=sparse_em.update_weights(tau))
                elif kind == "beta":
                    betas = params.betas.copy()
                    betas[k] = sparse_em.update_beta(k, params, tau, Y, hp, lam=lams[k])
                    params = replace(params, betas=betas)
                else:
                    variances = params.variances.copy()
                    sq = squared_distances(Y.data, params.means(Y))
                    variances[k] = sparse_em.update_sigma(k, tau, Y, hp, sq)
                    params = replace(params, variances=variances)
            except EmptyClusterError:
                reseed_counts[k] += 1
                reseed_events.append((cycle, step_idx, k))
                if reseed_counts[k] > sparse_em.MAX_RESEEDS:
                    diagnostic = f"component {k} stayed empty after {sparse_em.MAX_RESEEDS} re-seeds"
                    aborted = True
                else:
                    params = sparse_em._reseed(params, tau, k, Y, sigma2_init)
            trace.append(sparse_em.penalized_value(params, Y, lams))
            if aborted:
                break
        if aborted:
            break
        obj = trace[-1]
        if cycle >= 1:
            if abs(obj - start) <= hp.tol * (1.0 + abs(obj)):
                converged = True
                cycles_run = cycle + 1
                break
        cycles_run = cycle + 1

    return sparse_em.LoopOutcome(params, np.asarray(trace), cycles_run, converged and not aborted,
                                 sparse_em.e_step(params, Y), tuple(reseed_events), diagnostic, lams,
                                 self_regression_log_likelihood(params, Y))


def reference_baseline_loop(Y, params, hp, _order, _step):
    """The baseline loop with separate E-step and log-likelihood evaluations."""
    floor = hp.resolve_floor(Y)
    sigma2_init = sparse_em.default_sigma2(Y, params.K, floor)
    trace = []
    reseed_events = []
    reseed_counts = np.zeros(params.K, dtype=int)
    converged = False
    diagnostic = None
    iterations = 0

    for it in range(hp.max_cycles):
        tau = sparse_em.e_step(params, Y)
        try:
            params = baseline._m_step(Blocks(Y), tau, floor)
        except EmptyClusterError as err:
            k = err.component
            reseed_counts[k] += 1
            reseed_events.append((it, 0, k))
            if reseed_counts[k] > sparse_em.MAX_RESEEDS:
                diagnostic = f"component {k} stayed empty after {sparse_em.MAX_RESEEDS} re-seeds"
                trace.append(self_regression_log_likelihood(params, Y))
                break
            params = sparse_em._reseed(params, tau, k, Y, sigma2_init)
        trace.append(self_regression_log_likelihood(params, Y))
        iterations = it + 1
        if it >= 1 and abs(trace[-1] - trace[-2]) <= hp.tol * (1.0 + abs(trace[-1])):
            converged = True
            break

    return sparse_em.LoopOutcome(params, np.asarray(trace), iterations, converged, sparse_em.e_step(params, Y),
                                 tuple(reseed_events), diagnostic, np.zeros(params.K),
                                 self_regression_log_likelihood(params, Y))


def assert_reports_identical(fast, ref):
    assert type(fast) is type(ref)
    for name in (f.name for f in fields(ref)):
        value, got = getattr(ref, name), getattr(fast, name)
        if name == "params":
            for field_name in (f.name for f in fields(value)):
                arr, other = getattr(value, field_name), getattr(got, field_name)
                assert other.dtype == arr.dtype and other.shape == arr.shape, field_name
                assert other.tobytes() == arr.tobytes(), field_name
                assert not other.flags.writeable, field_name
        elif isinstance(value, np.ndarray):
            assert got.dtype == value.dtype and got.shape == value.shape, name
            assert got.tobytes() == value.tobytes(), name
        else:
            assert got == value, name


# Benchmark-style replicates: n=10, K=3, drawn like the acceptance cells.
cases = st.fixed_dictionaries({
    "dim": st.sampled_from([1, 2, 5, 50]),
    "dilation": st.sampled_from([10.0, 30.0, 60.0, 100.0]),
    "data_seed": st.integers(0, 2**32 - 1),
    "replicate": st.integers(0, 999),
    "restarts": st.integers(1, 2),
    "lam": st.sampled_from([None, 0.5]),
})

LOOP_SETTINGS = settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])


def fit_inputs(case):
    config = ScenarioConfig(dim=case["dim"], dilation=case["dilation"], seed=case["data_seed"])
    Y = SampleSet(gen_replicate(config, case["replicate"]).points)
    hp = Hyperparams(restarts=case["restarts"], max_cycles=60, tol=1e-7, lam=case["lam"])
    return Y, hp, fit_seed_seq(config, case["replicate"])


# Pinned draws that reach the rare branches, checked below: RESEED
# re-seeds a sparse component and converges, ABORT exhausts the sparse
# re-seed budget, BASELINE_RESEED re-seeds a baseline component.  No
# baseline abort turned up in 3600 scenario draws, so none is pinned.
RESEED = {"dim": 50, "dilation": 60.0, "data_seed": 0, "replicate": 3, "restarts": 1, "lam": None}
ABORT = {"dim": 50, "dilation": 60.0, "data_seed": 0, "replicate": 0, "restarts": 1, "lam": None}
BASELINE_RESEED = {"dim": 50, "dilation": 60.0, "data_seed": 0, "replicate": 29, "restarts": 1, "lam": None}


class TestSparseLoop:
    @LOOP_SETTINGS
    @given(case=cases)
    @example(case=RESEED)
    @example(case=ABORT)
    def test_run_matches_reference_loop(self, case):
        Y, hp, seed = fit_inputs(case)
        with mock.patch.object(sparse_em, "em_loop", reference_loop):
            ref = sparse_em.run(Y, 3, hp, seed=seed)
        assert_reports_identical(sparse_em.run(Y, 3, hp, seed=seed), ref)

    def test_pinned_draws_reach_their_branches(self):
        Y, hp, seed = fit_inputs(RESEED)
        reseeded = sparse_em.run(Y, 3, hp, seed=seed)
        assert reseeded.reseed_events and reseeded.diagnostic is None and reseeded.converged
        Y, hp, seed = fit_inputs(ABORT)
        aborted = sparse_em.run(Y, 3, hp, seed=seed)
        assert aborted.diagnostic is not None and not aborted.converged


class TestBaselineLoop:
    @LOOP_SETTINGS
    @given(case=cases)
    @example(case=BASELINE_RESEED)
    def test_baseline_fit_matches_reference_loop(self, case):
        Y, hp, seed = fit_inputs(case)
        with mock.patch.object(sparse_em, "em_loop", reference_baseline_loop):
            ref = baseline.baseline_fit(Y, 3, hp, seed=seed)
        assert_reports_identical(baseline.baseline_fit(Y, 3, hp, seed=seed), ref)

    def test_pinned_draw_reseeds(self):
        Y, hp, seed = fit_inputs(BASELINE_RESEED)
        assert baseline.baseline_fit(Y, 3, hp, seed=seed).reseed_events
