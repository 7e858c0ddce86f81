"""The benchmark's workloads: their inputs, closed-loop runs and checks.

Every workload is a single client that starts the next fit (or sweep)
only after the previous one returned.  The fit configuration is the
acceptance suite's `BENCH_HP` and scenario, restated here so that the
benchmark does not depend on `tests/`.

`mc_d2` and `mc_d50` call `evaluate.fit_replicate` in-process on a
stream of fresh replicates.  Their traced runs also run one
`cli.main(["sweep", ...])` in-process (`SWEEP`), which fits each cell in
its own process pool and writes the CSVs, the manifest and
`timings.txt`.  Every input derives from the workload seed, so the same
seed gives the same fits.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import itertools
import json
import shutil
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from sparsemix import cli, evaluate
from sparsemix.evaluate import best_permutation_correct
from sparsemix.model import Hyperparams
from sparsemix.simulate import ScenarioConfig, data_hash, gen_replicate
from sparsemix.sparse_em import FitReport
from speed import SpeedProbe

HP = Hyperparams(seed=0, restarts=1, max_cycles=60, tol=1e-7)
SCENARIO = {"n_points": 10, "K": 3, "weights": (0.3, 0.2, 0.5), "variances": (5.0, 7.0, 10.0)}
METHODS = ("sparse", "baseline")
WEIGHT_SUM_TOL = 1e-9


def scenario(dim: int, dilation: float, seed: int, replicates: int = 1) -> ScenarioConfig:
    return ScenarioConfig(dim=dim, dilation=float(dilation), replicates=replicates, seed=seed, **SCENARIO)


@dataclass(frozen=True)
class Item:
    """One fit: `fit_replicate(scenario, method, hp, replicate)`."""

    scenario: ScenarioConfig
    method: str
    replicate: int
    paired: bool = True  # False for the baseline-only timing controls

    @property
    def key(self) -> tuple:
        return (self.scenario.dim, self.scenario.dilation, self.replicate)


@dataclass(frozen=True)
class McWorkload:
    """An endless stream of rounds over the cells of one dimension.

    Round k fits replicate k // C of cell k % C with both methods, then
    fits `controls` further replicates with the baseline alone: baseline
    fits are ~40x cheaper, and without the extra inputs their percentiles
    would rest on too few data sets to be steady.  The first
    `accuracy_replicates` x C rounds always run; ANCRCI and the exact
    counts come from their paired fits, so they depend on the seed and
    the code only.  Later rounds add timing samples on fresh inputs.
    """

    dim: int
    dilations: tuple
    accuracy_replicates: int
    controls: int

    @property
    def accuracy_rounds(self) -> int:
        return self.accuracy_replicates * len(self.dilations)

    def round(self, seed: int, k: int) -> list:
        sc = scenario(self.dim, self.dilations[k % len(self.dilations)], seed)
        r = k // len(self.dilations)
        items = [Item(sc, method, r) for method in METHODS]
        first_control = CONTROL_REPLICATES + r * self.controls
        return items + [Item(sc, "baseline", first_control + j, paired=False) for j in range(self.controls)]

    def rounds(self, seed: int):
        return (self.round(seed, k) for k in itertools.count())

    def warm_up_scenario(self) -> ScenarioConfig:
        return scenario(self.dim, self.dilations[0], 0)


@dataclass(frozen=True)
class SweepWorkload:
    """One `sweep` over a grid of cells, both methods."""

    dims: tuple
    dilations: tuple
    replicates: int  # per cell; several pool chunks of 8 each

    def argv(self, seed: int, jobs: int, out: Path) -> list:
        return [
            "sweep",
            "--dims", *map(str, self.dims),
            "--dilations", *map(str, self.dilations),
            "--methods", *METHODS,
            "--replicates", str(self.replicates),
            "--seed", str(seed),
            "--restarts", str(HP.restarts),
            "--max-cycles", str(HP.max_cycles),
            "--tol", repr(HP.tol),
            "--jobs", str(jobs),
            "--out", str(out),
        ]

    def items(self, seed: int) -> list:
        """The fits of one sweep, in `replicates.csv` row order."""
        return [
            Item(scenario(dim, dil, seed, self.replicates), method, r)
            for dim in self.dims
            for dil in self.dilations
            for method in METHODS
            for r in range(self.replicates)
        ]



# replicate indices of the baseline-only controls start here, far from
# the paired replicates 0, 1, 2, ...
CONTROL_REPLICATES = 1_000_000

WORKLOADS = {
    "mc_d2": McWorkload(dim=2, dilations=(10, 30, 50, 70, 100), accuracy_replicates=12, controls=4),
    "mc_d50": McWorkload(dim=50, dilations=(60, 100), accuracy_replicates=40, controls=4),
}

# The sweep of the traced runs: the only path through the per-cell process
# pool, the CSV and manifest writers and timings.txt.  32 replicates give
# each cell four pool chunks of 8, so both workers get work.
SWEEP = SweepWorkload(dims=(2, 50), dilations=(100,), replicates=32)


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def warm_up(workload) -> None:
    """One untimed fit per method on a fixed input, outside any timing."""
    for method in METHODS:
        evaluate.fit_replicate(workload.warm_up_scenario(), method, HP, 0)


# ---------------------------------------------------------------------------
# fits and their checks
# ---------------------------------------------------------------------------

class ReportCapture:
    """Keeps the report behind each `fit_replicate` call for the checks.

    A pass-through on the two estimator names `fit_replicate` calls; it
    adds one Python call per fit and changes nothing else.
    """

    ATTRS = ("sparse_fit", "baseline_fit")

    def __init__(self):
        self.last = None
        self._saved = {}

    def __enter__(self):
        for attr in self.ATTRS:
            fn = getattr(evaluate, attr)
            self._saved[attr] = fn
            setattr(evaluate, attr, self._keep(fn))
        return self

    def __exit__(self, *exc):
        for attr, fn in self._saved.items():
            setattr(evaluate, attr, fn)
        self._saved.clear()

    def _keep(self, fn):
        def keep(*args, **kwargs):
            self.last = fn(*args, **kwargs)
            return self.last

        return keep


@dataclass
class Fit:
    item: Item
    round: int          # index of the round the fit belongs to
    record: object      # evaluate.ReplicateRecord, None on error
    report: object      # FitReport or BaselineReport, None on error
    error: str | None = None


def fit_one(item: Item, k: int, capture: ReportCapture, hp: Hyperparams) -> Fit:
    capture.last = None
    try:
        rec = evaluate.fit_replicate(item.scenario, item.method, hp, item.replicate)
    except Exception as err:  # a failing fit is counted, the run goes on
        return Fit(item, k, None, None, f"{type(err).__name__}: {err}")
    return Fit(item, k, rec, capture.last)


def fit_rounds(rounds, capture: ReportCapture, seconds: float, min_rounds: int,
               hp: Hyperparams = HP, probe: SpeedProbe | None = None):
    """Closed loop: fit round after round, at least `min_rounds`, then
    until `seconds` have passed.  With `probe`, one speed-probe kernel
    runs after each round.  Returns the fits and the wall time spent
    fitting (probe time excluded)."""
    fits = []
    probing = 0.0
    start = time.perf_counter()
    for k, items in enumerate(rounds):
        if k >= min_rounds and time.perf_counter() - start - probing >= seconds:
            break
        fits.extend(fit_one(item, k, capture, hp) for item in items)
        if probe is not None:
            probing += probe.sample()
    return fits, time.perf_counter() - start - probing


def trace_of(report) -> np.ndarray:
    return report.objective_trace if isinstance(report, FitReport) else report.loglik_trace


def digest(fit: Fit) -> str:
    """Fingerprint of everything a fit returned."""
    rec, rep = fit.record, fit.report
    outcome = (rec.correct, rec.converged, rec.data_hash, getattr(rep, "cycles_run", None),
               getattr(rep, "iterations", None), rep.reseed_events, rep.diagnostic)
    h = hashlib.sha256(repr(outcome).encode())
    for arr in (rep.assignments, rep.params.weights, rep.params.variances, trace_of(rep)):
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def report_problem(report, method: str, n: int, K: int) -> str | None:
    p = report.params
    location = p.betas if method == "sparse" else p.means
    if not all(np.all(np.isfinite(a)) for a in (p.weights, p.variances, location)):
        return "non-finite parameters"
    if np.any(p.weights < 0) or abs(float(p.weights.sum()) - 1.0) > WEIGHT_SUM_TOL:
        return "weights do not sum to 1"
    if np.any(p.variances <= 0):
        return "non-positive variance"
    a = np.asarray(report.assignments)
    if a.shape != (n,) or np.any(a < 0) or np.any(a >= K):
        return "labels outside [0, K)"
    return None


def fit_problem(fit: Fit) -> str | None:
    """Why one fit is wrong, or None."""
    if fit.error is not None:
        return fit.error
    if fit.report is None:
        return "no report captured"
    sc = fit.item.scenario
    why = report_problem(fit.report, fit.item.method, sc.n_points, sc.K)
    if why is not None:
        return why
    labels = gen_replicate(sc, fit.item.replicate).labels
    if fit.record.correct != best_permutation_correct(fit.report.assignments, labels, sc.K):
        return "correct count disagrees with the report's assignments"
    if fit.record.converged != bool(fit.report.converged):
        return "converged flag disagrees with the report"
    return None


def check_fits(fits: list, problems: list) -> int:
    """Checks every fit and that both methods saw the same data on each
    replicate; returns the number of failed fits."""
    bad = set()
    for pos, fit in enumerate(fits):
        why = fit_problem(fit)
        if why is not None:
            bad.add(pos)
            problems.append(f"{fit.item.method} fit of {fit.item.key}: {why}")
    hashes = {}
    for fit in fits:
        if fit.record is not None:
            hashes.setdefault(fit.item.key, set()).add(fit.record.data_hash)
    for key, seen in hashes.items():
        if len(seen) != 1:
            problems.append(f"replicate {key}: the methods saw different data")
            bad.update(pos for pos, fit in enumerate(fits) if fit.item.key == key)
    return len(bad)


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

@dataclass
class SweepRun:
    seed: int
    code: int
    wall: float
    replicates_csv: bytes
    timings: list       # dicts from timings.txt
    failures: list      # manifest "failures"


def sweep_once(workload: SweepWorkload, seed: int, jobs: int, out: Path) -> SweepRun:
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(workload.argv(seed, jobs, out))
    wall = time.perf_counter() - start
    try:
        csv_bytes = (out / "replicates.csv").read_bytes()
        timings = [json.loads(line) for line in (out / "timings.txt").read_text().splitlines()]
        failures = json.loads((out / "manifest.json").read_text())["failures"]
    except (OSError, ValueError, KeyError) as err:
        csv_bytes, timings, failures = b"", [], [f"unreadable outputs: {err}"]
    shutil.rmtree(out, ignore_errors=True)
    return SweepRun(seed, code, wall, csv_bytes, timings, failures)


def csv_row(fit: Fit) -> list:
    """The `replicates.csv` row of an in-process fit."""
    sc, rec = fit.item.scenario, fit.record
    return [str(sc.dim), cli.fmt_num(sc.dilation), fit.item.method, str(fit.item.replicate),
            str(rec.correct), str(rec.converged).lower(), rec.data_hash]


def check_sweep(workload: SweepWorkload, run: SweepRun, reference: list, problems: list) -> int:
    """Failed fits of one sweep.

    Every row must name the right cell and replicate, carry the hash of
    the data `gen_replicate` makes for it and equal the row of its
    in-process twin in `reference` (the same fits, in row order).
    """
    items = workload.items(run.seed)
    if run.code != 0 or run.failures:
        problems.append(f"sweep seed {run.seed}: exit {run.code}, failures {run.failures}")
        return len(items)
    rows = list(csv.reader(io.StringIO(run.replicates_csv.decode("ascii"))))[1:]
    if len(rows) != len(items) or len(run.timings) != len(items):
        problems.append(f"sweep seed {run.seed}: {len(rows)} rows and {len(run.timings)} timings "
                        f"for {len(items)} fits")
        return len(items)
    bad = 0
    for item, row, twin in zip(items, rows, reference):
        sc = item.scenario
        bad += not (row[:4] == [str(sc.dim), cli.fmt_num(sc.dilation), item.method, str(item.replicate)]
                    and row[6] == data_hash(gen_replicate(sc, item.replicate))
                    and twin.record is not None and row == csv_row(twin))
    if bad:
        problems.append(f"sweep seed {run.seed}: {bad} replicates.csv rows differ from in-process fits")
    return bad
