"""Time ``solve_weighted_lasso`` per call on a fixed set of generated problems.

The problems are shaped like the EM's β subproblems: the design holds
the centered points as columns, half of the samples repeat points up to
a 1e-6 jitter (the near-duplicate columns that make coordinate descent
stall and ``refine`` run), the target is a random weighted mean of the
columns, and λ is 5%, 20% or 50% of its critical value.  Half start
from zero, half from a small random β.  The set crosses n in
{10, 50, 200} with d in {2, 50}, 12 problems per cell, all drawn from
one fixed seed, so every run solves the same problems.

For each cell the table gives µs per solve (the mean over the cell's
problems of each one's fastest of seven timed solves, which discounts
interference from other processes) and ``np.linalg.lstsq`` calls per
solve (counted in an untimed pass).  Given another checkout's ``src``,
both packages are loaded side by side, the timed solves alternate
between them problem by problem, and the last column says whether every
solution (β bytes, KKT residual, sweep count and flag, or the error
raised) is identical.  BLAS runs single-threaded, as in ``perfbench``.

Usage, from the root of a checkout:

    python tools/lasso_timing.py            # times ./src
    python tools/lasso_timing.py OTHER/src  # times OTHER/src against ./src
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path
from unittest import mock

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

SIZES = (10, 50, 200)
DIMS = (2, 50)
PROBLEMS = 12
ROUNDS = 7
SEED = 20090127


def load_lasso(src: str):
    """Import ``sparsemix.lasso`` from ``src`` and unregister it, so another copy can load next."""
    sys.path.insert(0, str(Path(src).resolve()))
    try:
        from sparsemix import lasso
    finally:
        sys.path.pop(0)
        for name in [m for m in sys.modules if m == "sparsemix" or m.startswith("sparsemix.")]:
            del sys.modules[name]
    return lasso


def problem_inputs(n: int, d: int, rng: np.random.Generator) -> list[tuple]:
    """PROBLEMS tuples (design, target, total_weight, sigma2, lam, beta0) for one cell."""
    out = []
    for i in range(PROBLEMS):
        points = rng.normal(size=(n, d))
        if i % 2:
            points = points[rng.integers(0, n, size=n)] + rng.normal(size=(n, d)) * 1e-6
        design = np.ascontiguousarray((points - points.mean(axis=0)).T)
        weights = rng.random(n) * (rng.random(n) < 0.5)
        weights[rng.integers(0, n)] += 1.0
        target = design @ weights / weights.sum()
        s = float(rng.uniform(1.0, n))
        sigma2 = float(rng.uniform(0.5, 2.0))
        lam = (0.05, 0.2, 0.5)[i % 3] * (s / sigma2) * float(np.max(np.abs(design.T @ target)))
        beta0 = np.zeros(n) if i % 4 < 2 else rng.normal(size=n) * 0.1
        out.append((design, target, s, sigma2, lam, beta0))
    return out


def outcome(lasso, problem, beta0):
    try:
        sol = lasso.solve_weighted_lasso(problem, beta0)
    except (ValueError, RuntimeError) as err:  # the input checks and NumericalError
        return (type(err).__name__, str(err))
    return (sol.beta.tobytes(), sol.kkt_residual, sol.iterations, sol.converged)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("other", nargs="?", help="another checkout's src to time and compare against ./src")
    args = parser.parse_args(argv)
    here = str(Path(__file__).resolve().parents[1] / "src")
    versions = {"this": load_lasso(here)}
    if args.other:
        versions["other"] = load_lasso(args.other)
    for label, lasso in versions.items():
        print(f"{label}: sparsemix from {Path(lasso.__file__).parent}")

    header = "| n | d | " + " | ".join(f"{label} µs/solve | {label} lstsq/solve" for label in versions)
    print(header + (" | this/other | identical |" if args.other else " |"))
    print("|" + "---|" * (header.count("|") + (2 if args.other else 0)))
    rng = np.random.default_rng(SEED)
    for n in SIZES:
        for d in DIMS:
            inputs = problem_inputs(n, d, rng)
            problems = {label: [(lasso.WeightedLassoProblem(design=D, target=m, total_weight=s, sigma2=v, lam=lam), b0)
                                for D, m, s, v, lam, b0 in inputs]
                        for label, lasso in versions.items()}
            outcomes, calls = {}, {}
            for label, lasso in versions.items():
                with mock.patch.object(np.linalg, "lstsq", wraps=np.linalg.lstsq) as lstsq:
                    outcomes[label] = [outcome(lasso, p, b0) for p, b0 in problems[label]]
                calls[label] = lstsq.call_count / PROBLEMS
            best = {label: [float("inf")] * PROBLEMS for label in versions}
            order = list(versions)
            for _ in range(ROUNDS):
                for i in range(PROBLEMS):
                    for label in order:
                        p, b0 = problems[label][i]
                        start = time.perf_counter()
                        outcome(versions[label], p, b0)
                        best[label][i] = min(best[label][i], time.perf_counter() - start)
                    order.reverse()
            us = {label: sum(t) / PROBLEMS * 1e6 for label, t in best.items()}
            row = f"| {n} | {d} | " + " | ".join(f"{us[label]:.1f} | {calls[label]:.1f}" for label in versions)
            if args.other:
                same = outcomes["this"] == outcomes["other"]
                row += f" | {us['this'] / us['other']:.3f} | {'yes' if same else 'NO'}"
            print(row + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
