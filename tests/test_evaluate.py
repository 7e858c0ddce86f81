"""Permutation-matched scoring and the Monte Carlo cell driver."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsemix.evaluate import McResult, best_permutation_correct, fit_replicate, run_mc_cell
from sparsemix.model import Hyperparams
from sparsemix.simulate import ScenarioConfig


def brute_force_best(assignments, truth, K):
    """Element-wise enumeration, independent of the confusion-matrix path."""
    best = 0
    for perm in itertools.permutations(range(K)):
        matches = sum(1 for a, t in zip(assignments, truth) if perm[a] == t)
        best = max(best, matches)
    return best


class TestBestPermutationCorrect:
    def test_identity(self):
        truth = np.array([0, 1, 2, 0, 1])
        assert best_permutation_correct(truth, truth, 3) == 5

    def test_swapped_labels_score_full(self):
        truth = np.array([0, 1, 0, 1])
        swapped = 1 - truth
        assert best_permutation_correct(swapped, truth, 2) == 4

    def test_hand_enumerated_case(self):
        assignments = np.array([0, 0, 1, 1])
        truth = np.array([0, 1, 0, 1])
        assert best_permutation_correct(assignments, truth, 2) == 2

    def test_matches_brute_force_on_random_pairs(self):
        rng = np.random.default_rng(80)
        for _ in range(300):
            a = rng.integers(0, 3, size=10)
            t = rng.integers(0, 3, size=10)
            assert best_permutation_correct(a, t, 3) == brute_force_best(a, t, 3)

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(81)
        a = rng.integers(0, 3, size=12)
        t = rng.integers(0, 3, size=12)
        base = best_permutation_correct(a, t, 3)
        for perm in itertools.permutations(range(3)):
            relabeled = np.array([perm[x] for x in a])
            assert best_permutation_correct(relabeled, t, 3) == base
            relabeled_t = np.array([perm[x] for x in t])
            assert best_permutation_correct(a, relabeled_t, 3) == base

    def test_symmetry(self):
        rng = np.random.default_rng(82)
        for _ in range(50):
            a = rng.integers(0, 3, size=8)
            t = rng.integers(0, 3, size=8)
            assert best_permutation_correct(a, t, 3) == best_permutation_correct(t, a, 3)

    def test_random_assigner_beats_naive_rate(self):
        # the max over permutations lifts a random assigner above n/K
        rng = np.random.default_rng(83)
        scores = [
            best_permutation_correct(rng.integers(0, 3, size=10), rng.integers(0, 3, size=10), 3)
            for _ in range(2000)
        ]
        assert np.mean(scores) > 10 / 3

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), K=st.integers(1, 7))
    def test_assignment_matches_brute_force_up_to_k7(self, data, K):
        labels = st.lists(st.integers(0, K - 1), min_size=0, max_size=25)
        a = np.array(data.draw(labels), dtype=int)
        t = np.array(data.draw(st.lists(st.integers(0, K - 1), min_size=a.size, max_size=a.size)), dtype=int)
        confusion = np.zeros((K, K), dtype=int)
        np.add.at(confusion, (a, t), 1)
        brute = max(int(confusion[np.arange(K), perm].sum()) for perm in itertools.permutations(range(K)))
        assert best_permutation_correct(a, t, K) == brute

    def test_rejects_out_of_range_labels(self):
        with pytest.raises(ValueError):
            best_permutation_correct(np.array([0, 3]), np.array([0, 1]), 3)


class TestRunMcCell:
    CFG = ScenarioConfig(dim=2, dilation=40.0, replicates=6, seed=3)
    HP = Hyperparams(restarts=2, max_cycles=40, tol=1e-7, seed=0)

    def test_records_ordered_and_bounded(self):
        res = run_mc_cell(self.CFG, "sparse", self.HP)
        assert isinstance(res, McResult)
        assert [r.replicate for r in res.records] == list(range(6))
        assert all(0 <= r.correct <= 10 for r in res.records)
        assert res.ancrci == pytest.approx(np.mean([r.correct for r in res.records]))
        assert res.cell == (2, 40.0, "sparse")

    def test_deterministic_across_runs_and_pool(self):
        serial = run_mc_cell(self.CFG, "sparse", self.HP, jobs=1)
        pooled = run_mc_cell(self.CFG, "sparse", self.HP, jobs=2)
        assert [r.correct for r in serial.records] == [r.correct for r in pooled.records]
        assert [r.data_hash for r in serial.records] == [r.data_hash for r in pooled.records]

    def test_methods_run_on_identical_datasets(self):
        sparse = run_mc_cell(self.CFG, "sparse", self.HP)
        baseline = run_mc_cell(self.CFG, "baseline", self.HP)
        assert [r.data_hash for r in sparse.records] == [r.data_hash for r in baseline.records]

    def test_extreme_separation_recovers_nonempty_splits(self):
        # with every component populated and huge separation the
        # classic fit recovers essentially every label; the penalized
        # fit trades a little of that ceiling for robustness
        cfg = ScenarioConfig(dim=2, dilation=1e4, replicates=30, seed=5)
        hp = Hyperparams(restarts=3, max_cycles=60, tol=1e-7, seed=0)
        from sparsemix.simulate import gen_replicate

        def conditioned_mean(method):
            res = run_mc_cell(cfg, method, hp)
            kept = [
                rec.correct
                for rec in res.records
                if np.bincount(gen_replicate(cfg, rec.replicate).labels, minlength=3).min() > 0
            ]
            assert len(kept) >= 15
            return float(np.mean(kept))

        assert conditioned_mean("baseline") >= 9.5
        assert conditioned_mean("sparse") >= 7.5

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="unknown method"):
            fit_replicate(self.CFG, "kmeans", self.HP, 0)
