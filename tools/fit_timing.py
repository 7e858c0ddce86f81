"""Time ``run`` and ``baseline_fit`` per fit on a fixed set of acceptance-configuration inputs.

The fit-level twin of ``tools/lasso_timing.py``, which imports its
loader, command line, timer and table header from here.  The inputs
are the cells of the benchmark's two workloads: d = 2 at dilations 10,
30, 50, 70 and 100 (12 replicates each) and d = 50 at dilations 60 and
100 (40 replicates each), drawn from one fixed scenario seed and fitted
with the acceptance configuration (restarts 1, max_cycles 60, tol 1e-7,
adaptive lambda) unless ``--restarts``, ``--max-cycles`` or ``--tol``
says otherwise.  Each fit is timed ROUNDS times and keeps its
fastest, which discounts interference from other processes.  Every
timed fit gets a fresh ``SampleSet``, built untimed, so that no round
reads the Gram, and the lasso factorisations cached on it, that an
earlier fit of the same points left.

For each (estimator, d) the table gives the fits' ms p50 and p90, and
the mean over fits of the exact Python ``call`` and builtin ``c_call``
events that ``sys.setprofile`` sees in one fit on a fresh
``SampleSet``, counted in an untimed pass: unlike the times, the counts
repeat exactly from run to run.  Given another checkout's ``src``, both
packages are loaded side by side, the timed fits alternate between them
fit by fit, and two more columns follow: the median over fits of
this/other time, and whether every report is identical, hashed field by
field as ``tools/fit_digest.py`` hashes it (a fit that raises by its
exception).  BLAS runs single-threaded, as in ``perfbench``.

Usage, from the root of a checkout:

    python tools/fit_timing.py            # times ./src
    python tools/fit_timing.py OTHER/src  # times ./src against OTHER/src
    python tools/fit_timing.py OTHER/src --restarts 5 --max-cycles 200 --tol 1e-8  # the library defaults
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import os
import sys
import time
from pathlib import Path
from types import SimpleNamespace

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

from fit_digest import feed_fit  # noqa: E402  (tools/ is on sys.path when this script runs)

CELLS = {2: ((10.0, 30.0, 50.0, 70.0, 100.0), 12), 50: ((60.0, 100.0), 40)}  # d: (dilations, replicates)
HP = {"restarts": 1, "max_cycles": 60, "tol": 1e-7}
ROUNDS = 3
SEED = 20090127


def load_package(src: str) -> SimpleNamespace:
    """Import ``sparsemix`` from ``src`` beside any other copy, leaving ``sys.modules`` as it was."""
    found = {m: sys.modules.pop(m) for m in list(sys.modules) if m == "sparsemix" or m.startswith("sparsemix.")}
    sys.path.insert(0, str(Path(src).resolve()))
    try:
        import sparsemix
        from sparsemix import baseline, lasso, model, simulate, sparse_em
    finally:
        sys.path.pop(0)
        for name in [m for m in sys.modules if m == "sparsemix" or m.startswith("sparsemix.")]:
            del sys.modules[name]
        sys.modules.update(found)
    return SimpleNamespace(path=Path(sparsemix.__file__).parent, lasso=lasso, model=model, simulate=simulate,
                           fits={"sparse": sparse_em.run, "baseline": baseline.baseline_fit})


def arg_parser(doc: str) -> argparse.ArgumentParser:
    """The command line shared with ``tools/lasso_timing.py``: ``[OTHER/src]``."""
    parser = argparse.ArgumentParser(description=doc.splitlines()[0])
    parser.add_argument("other", nargs="?", help="another checkout's src to time and compare against ./src")
    return parser


def load_versions(other: str | None) -> dict:
    """Load {"this": ./src} plus {"other": ``other``} if given."""
    versions = {"this": load_package(str(Path(__file__).resolve().parents[1] / "src"))}
    if other:
        versions["other"] = load_package(other)
    for label, version in versions.items():
        print(f"{label}: sparsemix from {version.path}")
    return versions


def print_header(versions: dict, leading: str, columns: list[str]) -> None:
    """Print the table head: ``leading``, each of ``columns`` per version, then this/other | identical for two."""
    header = leading + " | ".join(f"{label} {column}" for label in versions for column in columns)
    header += " | this/other | identical |" if len(versions) > 1 else " |"
    print(header, "|" + "---|" * (header.count("|") - 1), sep="\n")


def fastest(versions: dict, count: int, rounds: int, prepare) -> dict:
    """{label: [the fastest of ``rounds`` timed calls of ``prepare(label, i)()`` for i < count]} in seconds.

    ``prepare`` builds each call's inputs afresh and untimed.  The
    versions alternate in an order that reverses after each i.  A call
    that raises is timed like any other; the identity check sees it.
    """
    best = {label: [float("inf")] * count for label in versions}
    order = list(versions)
    for _ in range(rounds):
        for i in range(count):
            for label in order:
                call = prepare(label, i)
                start = time.perf_counter()
                with contextlib.suppress(Exception):
                    call()
                best[label][i] = min(best[label][i], time.perf_counter() - start)
            order.reverse()
    return best


def count_calls(call) -> tuple[int, int]:
    """The ``call`` and ``c_call`` events ``sys.setprofile`` sees while ``call()`` runs, raising or not."""
    counts = {"call": 0, "c_call": 0}

    def profile(frame, event, arg):
        if event in counts:
            counts[event] += 1

    with contextlib.suppress(Exception):
        sys.setprofile(profile)
        try:
            call()
        finally:
            sys.setprofile(None)
    return counts["call"], counts["c_call"]


def fit_digest(call: functools.partial) -> str:
    """sha256 of the report of ``call``, a partial of ``fit`` on (Y, K, hp, seed), as ``feed_fit`` feeds it."""
    h = hashlib.sha256()
    feed_fit(h, call.func, *call.args)
    return h.hexdigest()


def main(argv=None) -> int:
    parser = arg_parser(__doc__)
    parser.add_argument("--restarts", type=int, default=HP["restarts"],
                        help=f"restarts per fit (default {HP['restarts']})")
    parser.add_argument("--max-cycles", type=int, default=HP["max_cycles"],
                        help=f"cycle budget per restart (default {HP['max_cycles']})")
    parser.add_argument("--tol", type=float, default=HP["tol"],
                        help=f"relative stopping tolerance (default {HP['tol']:g})")
    args = parser.parse_args(argv)
    hp = {name: getattr(args, name) for name in HP}
    versions = load_versions(args.other)
    simulate = versions["this"].simulate
    print_header(versions, "| estimator | d | fits | ", ["ms p50", "ms p90", "calls/fit", "C calls/fit"])
    for dim, (dilations, replicates) in CELLS.items():
        inputs = []  # (points, K, fit seed) per fit
        for dilation in dilations:
            config = simulate.ScenarioConfig(dim=dim, dilation=dilation, seed=SEED)
            inputs += [(simulate.gen_replicate(config, r).points, config.K, simulate.fit_seed_seq(config, r))
                       for r in range(replicates)]
        for method in ("sparse", "baseline"):

            def fit_call(label, i):
                """Fit input i with ``label``'s package, on a SampleSet and Hyperparams of its own."""
                v = versions[label]
                points, K, seed = inputs[i]
                return functools.partial(v.fits[method], v.model.SampleSet(points), K, v.model.Hyperparams(**hp),
                                         seed)

            digests = {label: [fit_digest(fit_call(label, i)) for i in range(len(inputs))]
                       for label in versions}
            calls = {label: np.mean([count_calls(fit_call(label, i)) for i in range(len(inputs))], axis=0)
                     for label in versions}
            best = fastest(versions, len(inputs), ROUNDS, fit_call)
            ms = {label: np.array(t) * 1e3 for label, t in best.items()}
            row = f"| {method} | {dim} | {len(inputs)} | " + " | ".join(
                f"{np.percentile(ms[label], 50):.3f} | {np.percentile(ms[label], 90):.3f} | "
                f"{calls[label][0]:,.0f} | {calls[label][1]:,.0f}" for label in versions)
            if "other" in versions:
                ratio = float(np.median(ms["this"] / ms["other"]))
                same = digests["this"] == digests["other"]
                row += f" | {ratio:.3f} | {'yes' if same else 'NO'}"
            print(row + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
