"""sparsemix benchmark: ms per fit, sweep throughput and accuracy.

Run from the root of a checkout:

    python3 perfbench/run.py --workload mc_d2 --seed 1 --seconds 30 --trace 0

`--trace 0` prints every end-to-end metric of BENCHMARK.json, `--trace 1`
every per-layer metric; human-readable lines come first and the last
line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import benchenv

SETUP_PROBES = 5
MAX_JOBS = 2


def git_revision() -> str:
    git = shutil.which("git")
    if git is None:
        return "unknown"
    out = subprocess.run([git, "-C", str(benchenv.ROOT), "rev-parse", "HEAD"],
                         capture_output=True, text=True, timeout=30, check=False)
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup_seconds(workload: str) -> float:
    """Median set-up time, at reference speed, of fresh processes that
    import sparsemix and warm up."""
    probe = Path(__file__).with_name("setup_probe.py")
    raw, scaled = [], []
    for _ in range(SETUP_PROBES):
        out = subprocess.run([sys.executable, str(probe), workload],
                             capture_output=True, text=True, timeout=120, check=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        raw.append(result["setup_s"])
        scaled.append(result["setup_s"] * result["speed_factor"])
    print(f"setup: raw {[round(t, 4) for t in raw]} s, at reference speed {[round(t, 4) for t in scaled]} s")
    return statistics.median(scaled)


def ms_stats(seconds: list) -> tuple:
    import numpy as np

    ms = np.asarray(seconds) * 1e3
    if ms.size == 0:
        return float("nan"), float("nan"), 0
    return float(np.percentile(ms, 50)), float(np.percentile(ms, 90)), int(ms.size)


def mean(values) -> float:
    values = list(values)
    return float(sum(values) / len(values)) if values else 0.0


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def exact_metrics(fits: list, max_cycles: int) -> dict:
    """ANCRCI and counts read from report fields; they repeat bit for bit."""
    done = [f for f in fits if f.report is not None and f.item.paired]
    sparse = [f.report for f in done if f.item.method == "sparse"]
    base = [f.report for f in done if f.item.method == "baseline"]
    return {
        "ancrci_sparse": mean(f.record.correct for f in done if f.item.method == "sparse"),
        "ancrci_baseline": mean(f.record.correct for f in done if f.item.method == "baseline"),
        "sparse_em.cycles_per_fit": mean(r.cycles_run for r in sparse),
        "sparse_em.budget_hit_frac": mean(
            not r.converged and r.diagnostic is None and r.cycles_run == max_cycles for r in sparse),
        "sparse_em.abort_frac": mean(r.diagnostic is not None for r in sparse),
        "sparse_em.reseeds_per_fit": mean(len(r.reseed_events) for r in sparse),
        "baseline.iterations_per_fit": mean(r.iterations for r in base),
    }


def layer_metrics(tracer, fits: list) -> dict:
    """Per-fit calls and self time of every wrapped layer, plus ratios."""
    spans = tracer.spans
    count = {m: sum(1 for f in fits if f.item.method == m) for m in ("sparse", "baseline")}
    per_fit = {"sparse_em.": count["sparse"], "lasso.": count["sparse"], "model.": count["sparse"],
               "baseline.": count["baseline"], "simulate.": len(fits), "evaluate.": len(fits)}
    out = {}
    for name, span in spans.items():
        n = next((v for p, v in per_fit.items() if name.startswith(p)), 0)
        out[f"{name}.calls"] = span.calls / n if n else 0.0
        out[f"{name}.self_ms"] = span.self_time * 1e3 / n if n else 0.0
        out[f"{name}.total_ms"] = span.total * 1e3 / n if n else 0.0
    run = spans["sparse_em.run"]
    solve = spans["lasso.solve"]
    steps = sum(len(f.report.objective_trace) for f in fits if f.report is not None and f.item.method == "sparse")
    out["sparse_em.run.self_frac"] = run.self_time / run.total if run.total else 0.0
    out["lasso.sweeps_per_solve"] = tracer.lasso_sweeps / solve.calls if solve.calls else 0.0
    out["lasso.converged_frac"] = tracer.lasso_converged / solve.calls if solve.calls else 0.0
    out["lasso.lstsq_calls_per_solve"] = spans["lasso.lstsq"].calls / solve.calls if solve.calls else 0.0
    out["model.log_density_calls_per_step"] = spans["model.log_density_matrix"].calls / steps if steps else 0.0
    return out


def timing_metrics(sparse_s: list, baseline_s: list, fits: int, wall: float, probe) -> dict:
    """Timing metrics, scaled to the reference speed of speed.py."""
    raw = {}
    for method, seconds in (("sparse", sparse_s), ("baseline", baseline_s)):
        p50, p90, n = ms_stats(seconds)
        raw.update({f"{method}_fit_ms_p50": p50, f"{method}_fit_ms_p90": p90})
        print(f"samples: {n} {method} fit times, each on its own data set")
    raw["fits_per_s"] = fits / wall
    factor = probe.factor()
    print(f"speed: factor {factor:.4f} from {len(probe.samples)} probe kernels; raw "
          + " ".join(f"{k}={v:.4g}" for k, v in raw.items()))
    return {k: v / factor if k == "fits_per_s" else v * factor for k, v in raw.items()}


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def run_mc(w, seed: int, seconds: float, trace: bool, jobs: int, problems: list):
    import workloads as wl
    from speed import SpeedProbe
    from tracing import Tracer

    def accuracy_part(fits):
        return exact_metrics([f for f in fits if f.round < w.accuracy_rounds], wl.HP.max_cycles)

    probe = None if trace else SpeedProbe()
    with wl.ReportCapture() as capture:
        fits, wall = wl.fit_rounds(w.rounds(seed), capture, 0.0 if trace else seconds, w.accuracy_rounds,
                                   probe=probe)
    rss = peak_rss_mb()
    failed = wl.check_fits(fits, problems)
    exact = accuracy_part(fits)
    if not trace:
        metrics = timing_metrics([f.record.seconds for f in fits if f.record and f.item.method == "sparse"],
                                 [f.record.seconds for f in fits if f.record and f.item.method == "baseline"],
                                 len(fits), wall, probe)
        metrics.update(peak_rss_mb=rss, ancrci_sparse=exact["ancrci_sparse"],
                       ancrci_baseline=exact["ancrci_baseline"])
        return metrics, len(fits), failed

    # traced run: the untraced rounds above are the reference that the
    # same rounds, traced, must reproduce bit for bit
    with Tracer() as tracer, wl.ReportCapture() as capture:
        traced, traced_wall = wl.fit_rounds(w.rounds(seed), capture, 0.0, w.accuracy_rounds)
    failed += wl.check_fits(traced, problems)
    changed = sum(1 for a, b in zip(fits, traced)
                  if a.report is None or b.report is None or wl.digest(a) != wl.digest(b))
    if changed or len(fits) != len(traced):
        problems.append(f"tracing changed the outcome of {changed} of {len(fits)} fits")
    exact_traced = accuracy_part(traced)
    if exact_traced != exact:
        problems.append(f"exact metrics differ with tracing: {exact} vs {exact_traced}")
    metrics = layer_metrics(tracer, traced)
    metrics.update(exact_traced)
    metrics["trace.overhead_frac"] = traced_wall / wall - 1.0
    metrics["trace.wrapped_calls_per_fit"] = tracer.wrapped_calls / len(traced)
    sweep_metrics, sweep_attempted, sweep_failed = traced_sweep(seed, jobs, problems)
    metrics.update(sweep_metrics)
    return metrics, len(fits) + len(traced) + sweep_attempted, failed + changed + sweep_failed


def traced_sweep(seed: int, jobs: int, problems: list):
    """One `sparsemix sweep --jobs N`, in-process, with the parent-side
    layers traced; its replicates.csv is then checked row by row against
    the same fits done in-process."""
    import workloads as wl
    from tracing import Tracer

    sweep = wl.SWEEP
    workdir = benchenv.ROOT / ".perfbench_work"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    try:
        # the pool workers fork from this process: wrap only parent-side layers
        with Tracer(("evaluate.run_mc_cell", "cli.write_outputs")) as tracer:
            run = wl.sweep_once(sweep, seed, jobs, workdir / "sweep")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with wl.ReportCapture() as capture:
        fits, _ = wl.fit_rounds([sweep.items(seed)], capture, 0.0, 1, hp=replace(wl.HP, seed=seed))
    failed = wl.check_fits(fits, problems) + wl.check_sweep(sweep, run, fits, problems)
    cells = tracer.cells
    cell_wall = sum(w for w, _ in cells)
    metrics = {
        "evaluate.pool_busy_frac": sum(s for _, s in cells) / (jobs * cell_wall) if cells else 0.0,
        "evaluate.cell_overhead_ms": mean((w - s / jobs) * 1e3 for w, s in cells),
        "cli.write_outputs_ms": tracer.spans["cli.write_outputs"].total * 1e3,
    }
    return metrics, len(fits) + len(sweep.items(seed)), failed


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    benchenv.pin()
    try:
        spec = json.loads((benchenv.ROOT / "BENCHMARK.json").read_text())
        benchenv.import_sparsemix()
    except (OSError, ValueError, ImportError) as err:
        print(f"error: cannot set up the benchmark: {err}", file=sys.stderr)
        return 2
    import numpy
    import scipy

    import tracing
    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {sorted(wl.WORKLOADS)}", file=sys.stderr)
        return 2
    w = wl.WORKLOADS[args.workload]
    jobs = min(MAX_JOBS, benchenv.nproc())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    print("env:", json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "nproc": benchenv.nproc(), "sweep_jobs": jobs,
        "threads": {var: os.environ.get(var) for var in benchenv.THREAD_VARS},
        "python": platform.python_version(), "numpy": numpy.__version__, "scipy": scipy.__version__,
        "git": git_revision(),
    }, sort_keys=True))

    setup = None if args.trace else setup_seconds(args.workload)
    wl.warm_up(w)
    problems = []
    start = time.perf_counter()
    metrics, attempted, failed = run_mc(w, args.seed, args.seconds, bool(args.trace), jobs, problems)
    metrics["setup_s"] = setup
    print(f"elapsed: {time.perf_counter() - start:.1f} s after set-up")

    missing = [m["name"] for m in wanted if metrics.get(m["name"]) is None]
    if missing:
        print(f"error: metrics not produced: {missing}", file=sys.stderr)
        return 1
    for problem in problems[:20]:
        print(f"check failed: {problem}")
    print(f"failed_frac: {failed / attempted:.6g} ({failed} of {attempted} fits)")
    result = {}
    for m in wanted:
        value = float(metrics[m["name"]])
        result[m["name"]] = {"value": value, "unit": m["unit"]}
        where = "" if not args.trace else "  -> %s on %s" % tracing.moves(m["name"])
        print(f"{m['name']:<44} {value:>14.6g} {m['unit']:<12} ({m['better']} is better){where}")
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": result,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
