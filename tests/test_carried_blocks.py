"""The sparse EM loop's carried model blocks against fresh evaluations, bit for bit.

Within one restart the loop keeps the means, squared distances, log
normalizers, log weights and log densities that a partial step leaves
unchanged, and computes the column statistics of each responsibility
matrix once.  Every (logp, lse) the loop reads must equal a fresh
evaluation of the same parameters, after every kind of step and after
every re-seed, and the column statistics a step reads must be those of
its own responsibilities.
"""

from unittest import mock

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from test_reference_loops import ABORT, RESEED, cases, fit_inputs

from sparsemix import sparse_em
from sparsemix.model import SampleSet


class CheckedLoop:
    """Patches the sparse loop so every carried evaluation is checked.

    ``seen`` counts the checked evaluations by what preceded them: the
    start of a restart, a weights/beta/sigma step or a re-seed.
    """

    def __init__(self):
        self.seen = {}
        self.last = "init"

    def __enter__(self):
        step, evaluate, reseed = sparse_em._Blocks.step, sparse_em._Blocks.evaluate, sparse_em._reseed
        # the position of tau among each function's arguments
        stats_checked = {name: self._checks_stats(getattr(sparse_em, name), at)
                         for name, at in (("update_beta", 2), ("update_sigma", 2), ("effective_lams", 1))}

        def checked_step(blocks, params, tau, tag, Y, hp):
            self.last = tag[0]
            return step(blocks, params, tau, tag, Y, hp)

        def checked_evaluate(blocks, params, Y):
            logp, lse = evaluate(blocks, params, Y)
            fresh_logp, fresh_lse = sparse_em._evaluate(params, Y)
            assert logp.tobytes() == fresh_logp.tobytes(), self.last
            assert lse.tobytes() == fresh_lse.tobytes(), self.last
            self.seen[self.last] = self.seen.get(self.last, 0) + 1
            self.last = "init"
            return logp, lse

        def checked_reseed(*args):
            self.last = "reseed"
            return reseed(*args)

        self.patches = [
            mock.patch.object(sparse_em._Blocks, "step", checked_step),
            mock.patch.object(sparse_em._Blocks, "evaluate", checked_evaluate),
            mock.patch.object(sparse_em, "_reseed", checked_reseed),
        ] + [mock.patch.object(sparse_em, name, fn) for name, fn in stats_checked.items()]
        for patch in self.patches:
            patch.start()
        return self

    def __exit__(self, *exc):
        for patch in reversed(self.patches):
            patch.stop()

    @staticmethod
    def _checks_stats(fn, at):
        def checked(*args, stats=None, **kwargs):
            tau = args[at]
            if stats is not None:
                assert stats.tau is tau
                assert stats.s == [float(tau[:, k].sum()) for k in range(tau.shape[1])]
            return fn(*args, stats=stats, **kwargs)

        return checked


class TestCarriedBlocks:
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(case=cases)
    @example(case=RESEED)
    @example(case=ABORT)
    @example(case={**RESEED, "relax": 0.7})
    @example(case={**RESEED, "lam": 0.5})
    def test_loop_evaluations_match_fresh(self, case):
        Y, hp, seed = fit_inputs(case)
        with CheckedLoop() as loop:
            report = sparse_em.run(Y, 3, hp, seed=seed)
        assert {"init", "weights", "beta"} <= set(loop.seen)
        if report.cycles_run > 0:
            assert "sigma" in loop.seen
        if hp.restarts == 1:  # with more, the report is one restart of several
            assert ("reseed" in loop.seen) == bool(report.reseed_events)

    def test_pinned_draws_check_reseeded_blocks(self):
        for case in (RESEED, ABORT):
            Y, hp, seed = fit_inputs(case)
            with CheckedLoop() as loop:
                sparse_em.run(Y, 3, hp, seed=seed)
            assert loop.seen["reseed"] >= 1 and loop.seen["sigma"] >= 1


class TestColumnStats:
    def test_never_reused_for_a_different_tau(self):
        rng = np.random.default_rng(5)
        Y = SampleSet.from_points(rng.normal(size=(10, 2)))
        blocks = sparse_em._Blocks(Y)
        tau = rng.dirichlet(np.ones(3), size=10)
        first = blocks.stats(tau)
        assert blocks.stats(tau) is first
        same_values = tau.copy()
        assert blocks.stats(same_values) is not first
        other = rng.dirichlet(np.ones(3), size=10)
        stats = blocks.stats(other)
        assert stats.tau is other
        for k in range(3):
            s = float(other[:, k].sum())
            assert stats.s[k] == s
            assert stats.mean(k).tobytes() == ((other[:, k] @ Y.data) / s).tobytes()

    def test_column_sums_match_per_column_sums(self):
        rng = np.random.default_rng(6)
        Y = SampleSet.from_points(rng.normal(size=(10, 2)))
        # past 8192 rows too, numpy's reduction buffer size
        for n, K in ((1, 1), (10, 3), (37, 5), (300, 4), (8193, 2), (20000, 3)):
            tau = rng.dirichlet(np.ones(K) * 0.3, size=n)
            stats = sparse_em.ColumnStats(tau, Y)
            assert stats.s == [float(tau[:, k].sum()) for k in range(K)]
