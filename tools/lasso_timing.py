"""Time ``solve_weighted_lasso`` per call on a fixed set of generated problems.

The problems are shaped like the EM's β subproblems: the design holds
the centered points as columns, half of the samples repeat points up to
a 1e-6 jitter (near-duplicate columns, whose columns are nearly
dependent), the target is a random weighted mean of the columns, and λ
is 5%, 20% or 50% of its critical value.  Half start from zero, half
from a small random β.  The set crosses n in {10, 50, 200} with d in
{2, 50}, 12 problems per cell, all drawn from one fixed seed, so every
run solves the same problems.

For each cell the table gives µs per solve (the mean over the cell's
problems of each one's fastest of seven timed solves, which discounts
interference from other processes; every timed solve is of a problem
built afresh and untimed, so that none reads the active-set
factorisations an earlier solve cached on its Gram), and, from an
untimed pass, the steps per solve (``LassoSolution.iterations``:
active-set steps, or coordinate sweeps in a checkout that still runs
them), the SVDs per solve (``np.linalg.svd`` patched by attribute: the
factorisations computed, that is the steps whose active set missed the
problem's cache, or one per feature-sign step in a checkout without
it) and the cell's solves that return converged.  Given another
checkout's ``src``, both packages are loaded side by side, the timed
solves alternate between them problem by problem, and the last column
counts the cell's solutions (β bytes, KKT residual, step count and
flag, or the error raised) that are identical, e.g. ``11/12``.  BLAS
runs single-threaded; the harness is ``tools/fit_timing.py``'s.

The exit status is 1 when any solve of ./src ends unconverged, and 0
otherwise, however the times compare.

Usage, from the root of a checkout:

    python tools/lasso_timing.py            # times ./src
    python tools/lasso_timing.py OTHER/src  # times ./src against OTHER/src
"""

from __future__ import annotations

import functools
import sys
from unittest import mock

from fit_timing import arg_parser, fastest, load_versions, print_header  # first: it pins BLAS to one thread

import numpy as np

SIZES = (10, 50, 200)
DIMS = (2, 50)
PROBLEMS = 12
ROUNDS = 7
SEED = 20090127


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
    versions = load_versions(arg_parser(__doc__).parse_args(argv).other)
    lassos = {label: v.lasso for label, v in versions.items()}
    print_header(versions, "| n | d | ", ["µs/solve", "steps/solve", "SVD steps/solve", "converged"])
    rng = np.random.default_rng(SEED)
    unconverged = 0
    for n in SIZES:
        for d in DIMS:
            inputs = problem_inputs(n, d, rng)

            def solve_call(label, i):
                """Solve problem i with ``label``'s package, on a problem, and so a Gram, of its own."""
                lasso = lassos[label]
                D, m, s, v, lam, b0 = inputs[i]
                problem = lasso.WeightedLassoProblem(design=D, target=m, total_weight=s, sigma2=v, lam=lam)
                return functools.partial(outcome, lasso, problem, b0)

            outcomes, svds, converged = {}, {}, {}
            for label in lassos:
                with mock.patch.object(np.linalg, "svd", wraps=np.linalg.svd) as svd:
                    outcomes[label] = [solve_call(label, i)() for i in range(PROBLEMS)]
                svds[label] = svd.call_count / PROBLEMS
                converged[label] = sum(len(o) == 4 and bool(o[3]) for o in outcomes[label])
            unconverged += PROBLEMS - converged["this"]
            best = fastest(versions, PROBLEMS, ROUNDS, solve_call)
            us = {label: sum(t) / PROBLEMS * 1e6 for label, t in best.items()}
            row = f"| {n} | {d} | " + " | ".join(
                f"{us[label]:.1f} | {sum(o[2] for o in outcomes[label] if len(o) == 4) / PROBLEMS:.1f} | "
                f"{svds[label]:.1f} | {converged[label]}/{PROBLEMS}" for label in versions)
            if "other" in versions:
                same = sum(a == b for a, b in zip(outcomes["this"], outcomes["other"]))
                row += f" | {us['this'] / us['other']:.3f} | {same}/{PROBLEMS}"
            print(row + " |")
    if unconverged:
        print(f"{unconverged} solve(s) of ./src ended unconverged")
    return 1 if unconverged else 0


if __name__ == "__main__":
    sys.exit(main())
