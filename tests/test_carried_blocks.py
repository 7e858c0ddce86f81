"""The sparse EM loop's carried model blocks against fresh evaluations, bit for bit.

Within one restart the loop keeps the means, squared distances, log
normalizers, log weights and log densities that a partial step leaves
unchanged.  Every (logp, lse) the loop reads must equal a fresh
evaluation of the same parameters, after every kind of step and after
every re-seed.
"""

from unittest import mock

from hypothesis import HealthCheck, example, given, settings
from test_reference_loops import ABORT, RESEED, cases, fit_inputs

from sparsemix import sparse_em


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
