"""Time ``solve_weighted_lasso`` per call on a fixed set of generated problems.

The problems are shaped like the EM's β subproblems: the design holds
the centered points as columns, half of the samples repeat points up to
a 1e-6 jitter (the near-duplicate columns that make coordinate descent
stall and its finish run), the target is a random weighted mean of the
columns, and λ is 5%, 20% or 50% of its critical value.  Half start
from zero, half from a small random β.  The set crosses n in
{10, 50, 200} with d in {2, 50}, 12 problems per cell, all drawn from
one fixed seed, so every run solves the same problems.

For each cell the table gives µs per solve (the mean over the cell's
problems of each one's fastest of seven timed solves, which discounts
interference from other processes), and, counted in an untimed pass,
the least-squares systems LAPACK solves per solve, the LAPACK calls
that solve them and the SVD steps of the feature-sign search.  The
first two counts patch numpy's private ``lstsq`` gufunc, which
``np.linalg.lstsq`` and a stacked call alike look up by attribute, so
the counts compare across checkouts that call either one; a call on a
stack of k systems counts k systems and one call.  The SVD count
patches ``np.linalg.svd`` the same way, one call per search step.  A
tree whose finish is the feature-sign search alone, with no sub-support
enumeration, reads 0 systems and 0 calls per solve.  The
converged column counts the cell's solves that return converged.
Given another checkout's ``src``, both packages are loaded side by
side, the timed solves alternate between them problem by problem, and
the last column says whether every solution (β bytes, KKT residual,
sweep count and flag, or the error raised) is identical.  BLAS runs
single-threaded; the harness is ``tools/fit_timing.py``'s.

Usage, from the root of a checkout:

    python tools/lasso_timing.py            # times ./src
    python tools/lasso_timing.py OTHER/src  # times ./src against OTHER/src
"""

from __future__ import annotations

import contextlib
import math
import sys
from unittest import mock

from fit_timing import arg_parser, fastest, load_versions, print_header  # first: it pins BLAS to one thread

import numpy as np
from numpy.linalg import _umath_linalg

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


@contextlib.contextmanager
def count_calls(owner, name: str, size=lambda a: 1):
    """Yield a list that gets ``size(a)`` of each call of ``owner.name`` on an array ``a``."""
    fn = getattr(owner, name)
    sizes = []

    def counting(a, *args, **kwargs):
        sizes.append(size(a))
        return fn(a, *args, **kwargs)

    with mock.patch.object(owner, name, counting):
        yield sizes


def outcome(lasso, problem, beta0):
    try:
        sol = lasso.solve_weighted_lasso(problem, beta0)
    except (ValueError, RuntimeError) as err:  # the input checks and NumericalError
        return (type(err).__name__, str(err))
    return (sol.beta.tobytes(), sol.kkt_residual, sol.iterations, sol.converged)


def main(argv=None) -> int:
    versions = load_versions(arg_parser(__doc__).parse_args(argv).other)
    lassos = {label: v.lasso for label, v in versions.items()}
    print_header(versions, "| n | d | ", ["µs/solve", "systems/solve", "calls/solve", "SVD steps/solve", "converged"])
    rng = np.random.default_rng(SEED)
    for n in SIZES:
        for d in DIMS:
            inputs = problem_inputs(n, d, rng)
            problems = {label: [(lasso.WeightedLassoProblem(design=D, target=m, total_weight=s, sigma2=v, lam=lam), b0)
                                for D, m, s, v, lam, b0 in inputs]
                        for label, lasso in lassos.items()}
            outcomes, systems, calls, svds = {}, {}, {}, {}
            for label, lasso in lassos.items():
                with (count_calls(_umath_linalg, "lstsq", lambda a: math.prod(np.shape(a)[:-2])) as sizes,
                      count_calls(np.linalg, "svd") as steps):
                    outcomes[label] = [outcome(lasso, p, b0) for p, b0 in problems[label]]
                systems[label], calls[label] = sum(sizes) / PROBLEMS, len(sizes) / PROBLEMS
                svds[label] = len(steps) / PROBLEMS
            best = fastest(versions, PROBLEMS, ROUNDS, lambda label, i: outcome(lassos[label], *problems[label][i]))
            us = {label: sum(t) / PROBLEMS * 1e6 for label, t in best.items()}
            row = f"| {n} | {d} | " + " | ".join(
                f"{us[label]:.1f} | {systems[label]:.1f} | {calls[label]:.1f} | {svds[label]:.1f} | "
                f"{sum(len(o) == 4 and bool(o[3]) for o in outcomes[label])}/{PROBLEMS}" for label in versions)
            if "other" in versions:
                same = outcomes["this"] == outcomes["other"]
                row += f" | {us['this'] / us['other']:.3f} | {'yes' if same else 'NO'}"
            print(row + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
