"""Scoring of fitted assignments and Monte Carlo aggregation.

Cluster labels are arbitrary, so a fit is scored by the best match over
all relabelings: the count of indices where some permutation of the
fitted labels agrees with the truth.  The Monte Carlo driver runs one
(dimension, dilation, method) cell, records every replicate and reports
the mean matched count (ANCRCI, average number of correctly recovered
class indices).  The best relabeling is found as a maximum-weight
assignment on the confusion matrix.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .baseline import baseline_fit
from .model import Hyperparams, SampleSet, as_int
from .simulate import ScenarioConfig, data_hash, fit_seed_seq, gen_replicate
from .sparse_em import run as sparse_fit

METHODS = ("sparse", "baseline")


@dataclass(frozen=True, slots=True)
class ReplicateRecord:
    replicate: int
    correct: int
    converged: bool
    seconds: float
    data_hash: str


@dataclass(frozen=True)
class McResult:
    """Per-replicate records plus their mean correct count for one cell."""

    records: tuple       # ReplicateRecord, ordered by replicate index
    ancrci: float


def best_permutation_correct(assignments, truth, K: int) -> int:
    """Max agreement count over all K! relabelings of ``assignments``.

    A maximum-weight assignment on the K x K confusion matrix, solved
    exactly in O(K^3) by :func:`_max_weight_assignment`.
    """
    a = np.asarray(assignments, dtype=int)
    t = np.asarray(truth, dtype=int)
    if a.shape != t.shape or a.ndim != 1:
        raise ValueError("assignments and truth must be equal-length vectors")
    if np.any(a < 0) or np.any(a >= K) or np.any(t < 0) or np.any(t >= K):
        raise ValueError("labels out of range [0, K)")
    confusion = np.bincount(a * K + t, minlength=K * K).reshape(K, K)
    return _max_weight_assignment(confusion.tolist())


def _max_weight_assignment(weight: list) -> int:
    """Largest ``sum_i weight[i][p(i)]`` over permutations p of a square matrix.

    The Hungarian method (Kuhn 1955) in its shortest-augmenting-path
    form: rows join one at a time, each along a cheapest path in the
    reduced costs ``-weight[i][j] - u[i] - v[j] >= 0``, and the duals u,
    v keep that invariant.  Integer weights stay integers throughout, so
    the result is exact.  Index 0 of the arrays is a virtual column.
    """
    K = len(weight)
    inf = float("inf")
    u = [0] * (K + 1)
    v = [0] * (K + 1)
    row_of = [0] * (K + 1)   # row_of[j]: the row (1-based) assigned to column j, 0 if none
    for i in range(1, K + 1):
        row_of[0] = i
        j0 = 0
        slack = [inf] * (K + 1)
        back = [0] * (K + 1)
        used = [False] * (K + 1)
        while row_of[j0] != 0:
            used[j0] = True
            i0 = row_of[j0]
            costs = weight[i0 - 1]
            delta, j1 = inf, 0
            for j in range(1, K + 1):
                if not used[j]:
                    cur = -costs[j - 1] - u[i0] - v[j]
                    if cur < slack[j]:
                        slack[j], back[j] = cur, j0
                    if slack[j] < delta:
                        delta, j1 = slack[j], j
            for j in range(K + 1):
                if used[j]:
                    u[row_of[j]] += delta
                    v[j] -= delta
                else:
                    slack[j] -= delta
            j0 = j1
        while j0:
            j1 = back[j0]
            row_of[j0] = row_of[j1]
            j0 = j1
    return sum(weight[row_of[j] - 1][j - 1] for j in range(1, K + 1))


def fit_replicate(scenario: ScenarioConfig, method: str, hp: Hyperparams, replicate: int) -> ReplicateRecord:
    """Generate, fit and score one replicate of a cell."""
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    sample = gen_replicate(scenario, replicate)
    Y = SampleSet(sample.points)
    seed = fit_seed_seq(scenario, replicate)
    start = time.perf_counter()
    if method == "sparse":
        report = sparse_fit(Y, scenario.K, hp, seed=seed)
    else:
        report = baseline_fit(Y, scenario.K, hp, seed=seed)
    seconds = time.perf_counter() - start
    correct = best_permutation_correct(report.assignments, sample.labels, scenario.K)
    return ReplicateRecord(
        replicate=replicate,
        correct=correct,
        converged=bool(report.converged),
        seconds=seconds,
        data_hash=data_hash(sample),
    )


def run_mc_cell(scenario: ScenarioConfig, method: str, hp: Hyperparams, jobs: int = 1) -> McResult:
    """All replicates of one (dim, dilation, method) cell.

    Replicates run independently, in a pool of at most ``jobs`` worker
    processes (never more than there are replicates) when ``jobs`` > 1;
    both paths return the records in replicate order, so the output does
    not depend on scheduling.  Non-converged fits are recorded with their
    final assignments scored like any other, never dropped.
    """
    as_int("jobs", jobs, 1)
    n = scenario.replicates
    columns = ([scenario] * n, [method] * n, [hp] * n, range(n))
    workers = min(jobs, n)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(fit_replicate, *columns, chunksize=8))
    else:
        records = list(map(fit_replicate, *columns))
    return McResult(records=tuple(records), ancrci=float(np.mean([rec.correct for rec in records])))
