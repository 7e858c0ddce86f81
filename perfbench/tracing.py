"""Outside-in layer tracing: wrap the package's public functions in place.

Nothing under `src/` is edited.  Entering a `Tracer` replaces each
binding listed in `LAYERS` (a module attribute or a class attribute)
with a wrapper that records calls, total time and self time; leaving it
puts the originals back.  Self time is a span's duration
minus the time of the wrapped spans it called; a function imported into
several modules is wrapped at every binding the fit path uses, under one
layer name.  Each wrapper also adds its own cost to the caller's self
time, which is why the traced run is never used for end-to-end numbers.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass

import numpy as np

from sparsemix import baseline, cli, evaluate, lasso, model, simulate, sparse_em

# layer name -> the bindings that carry it, as (owner, attribute)
LAYERS = {
    "sparse_em.run": [(evaluate, "sparse_fit"), (sparse_em, "run")],
    "sparse_em.e_step": [(sparse_em, "e_step")],
    "sparse_em.penalized_value": [(sparse_em, "penalized_value")],
    "sparse_em.effective_lams": [(sparse_em, "effective_lams")],
    "sparse_em.update_beta": [(sparse_em, "update_beta")],
    "sparse_em.update_sigma": [(sparse_em, "update_sigma")],
    "sparse_em.update_weights": [(sparse_em, "update_weights")],
    "lasso.solve": [(sparse_em, "solve_weighted_lasso"), (lasso, "solve_weighted_lasso")],
    # refine() is a closure inside the solver; lstsq is its only numpy call
    "lasso.lstsq": [(np.linalg, "lstsq")],
    "lasso.WeightedLassoProblem.validate": [(lasso.WeightedLassoProblem, "__post_init__")],
    "model.MixtureParams.validate": [(model.MixtureParams, "__post_init__")],
    "model.log_density_matrix": [(sparse_em, "log_density_matrix"), (model, "log_density_matrix")],
    "baseline.fit": [(evaluate, "baseline_fit"), (baseline, "baseline_fit")],
    "baseline.e_step": [(baseline, "spherical_e_step")],
    "baseline.m_step": [(baseline, "_m_step")],
    "baseline.loglik": [(baseline, "spherical_log_likelihood")],
    "simulate.gen_replicate": [(evaluate, "gen_replicate"), (simulate, "gen_replicate")],
    "simulate.data_hash": [(evaluate, "data_hash"), (simulate, "data_hash")],
    "evaluate.best_permutation_correct": [(evaluate, "best_permutation_correct")],
    "evaluate.fit_replicate": [(evaluate, "fit_replicate")],
    "evaluate.run_mc_cell": [(cli, "run_mc_cell"), (evaluate, "run_mc_cell")],
    "cli.write_outputs": [
        (cli, "write_ancrci_tables"),
        (cli, "write_replicate_csv"),
        (cli, "write_plot_files"),
        (cli, "write_timings"),
        (cli, "write_manifest"),
    ],
}


@dataclass
class Span:
    calls: int = 0
    total: float = 0.0
    self_time: float = 0.0


class Tracer:
    """Context manager: wraps the layers in `names` on entry, restores on exit."""

    def __init__(self, names=tuple(LAYERS)):
        self.names = names
        self.spans = {name: Span() for name in LAYERS}
        self.cells: list[tuple[float, float]] = []  # (cell wall, summed fit seconds) per cell
        self.lasso_sweeps = 0
        self.lasso_converged = 0
        self._stack: list[float] = []  # child time accumulated by each open span
        self._saved: list[tuple[object, str, object]] = []

    @property
    def wrapped_calls(self) -> int:
        return sum(s.calls for s in self.spans.values())

    def __enter__(self):
        for name in self.names:
            for owner, attr in LAYERS[name]:
                original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, name: str, fn):
        span = self.spans[name]
        stack = self._stack
        clock = time.perf_counter
        observe = {"lasso.solve": self._observe_solve, "evaluate.run_mc_cell": self._observe_cell}.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                span.calls += 1
                span.total += elapsed
                span.self_time += elapsed - child
                if stack:
                    stack[-1] += elapsed
            if observe is not None:
                observe(result, elapsed)
            return result

        return wrapper

    def _observe_solve(self, solution, _elapsed) -> None:
        self.lasso_sweeps += solution.iterations
        self.lasso_converged += bool(solution.converged)

    def _observe_cell(self, result, elapsed) -> None:
        self.cells.append((elapsed, sum(rec.seconds for rec in result.records)))


# Which end-to-end metric a per-layer metric should move, and where.
# Keyed by metric-name prefix; the longest matching prefix wins.
MOVES = {
    "sparse_em.": ("sparse_fit_ms_p50", "mc_d2 (less on mc_d50)"),
    "sparse_em.cycles_per_fit": ("sparse_fit_ms_p90, ancrci_sparse", "mc_d2; ancrci on mc_d2 and mc_d50"),
    "sparse_em.budget_hit_frac": ("sparse_fit_ms_p90, ancrci_sparse", "mc_d2; ancrci on mc_d2 and mc_d50"),
    "sparse_em.abort_frac": ("ancrci_sparse", "mc_d2 and mc_d50"),
    "sparse_em.reseeds_per_fit": ("ancrci_sparse", "mc_d2 and mc_d50"),
    "lasso.": ("sparse_fit_ms_p50, sparse_fit_ms_p90", "mc_d50 (little on mc_d2)"),
    "model.": ("sparse_fit_ms_p50", "mc_d2"),
    "baseline.": ("baseline_fit_ms_p50, baseline_fit_ms_p90", "all workloads"),
    "simulate.": ("fits_per_s", "all workloads"),
    "evaluate.": ("fits_per_s", "all workloads"),
    "evaluate.pool_busy_frac": ("sweep wall time (not an end-to-end metric)", "the traced sweep"),
    "evaluate.cell_overhead_ms": ("sweep wall time (not an end-to-end metric)", "the traced sweep"),
    "cli.": ("sweep wall time (not an end-to-end metric)", "the traced sweep"),
    "trace.": ("none (cost of tracing itself)", "-"),
}


def moves(metric: str) -> tuple:
    return MOVES[max((p for p in MOVES if metric.startswith(p)), key=len)]
