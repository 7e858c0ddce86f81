"""Time ``run`` and ``baseline_fit`` per fit on a fixed set of acceptance-configuration inputs.

The fit-level twin of ``tools/lasso_timing.py``.  The inputs are the
cells of the benchmark's two workloads: d = 2 at dilations 10, 30, 50,
70 and 100 (12 replicates each) and d = 50 at dilations 60 and 100 (40
replicates each), drawn from one fixed scenario seed and fitted with the
acceptance configuration (restarts 1, max_cycles 60, tol 1e-7, adaptive
lambda).  Each fit is timed ROUNDS times and keeps its fastest, which
discounts interference from other processes.

For each (estimator, d) the table gives the fits' ms p50 and p90.  Given
another checkout's ``src``, both packages are loaded side by side, the
timed fits alternate between them fit by fit, and two more columns
follow: the median over fits of this/other time, and whether every
report is identical, hashed field by field as ``tools/fit_digest.py``
hashes it (a fit that raises by its exception).  BLAS runs
single-threaded, as in ``perfbench``.

Usage, from the root of a checkout:

    python tools/fit_timing.py            # times ./src
    python tools/fit_timing.py OTHER/src  # times ./src against OTHER/src
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import time
from pathlib import Path
from types import SimpleNamespace

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

from fit_digest import _feed  # noqa: E402  (tools/ is on sys.path when this script runs)

CELLS = {2: ((10.0, 30.0, 50.0, 70.0, 100.0), 12), 50: ((60.0, 100.0), 40)}  # d: (dilations, replicates)
HP = {"restarts": 1, "max_cycles": 60, "tol": 1e-7}
ROUNDS = 3
SEED = 20090127


def load_package(src: str) -> SimpleNamespace:
    """Import ``sparsemix`` from ``src`` and unregister it, so another copy can load next."""
    sys.path.insert(0, str(Path(src).resolve()))
    try:
        import sparsemix
        from sparsemix import baseline, model, simulate, sparse_em
    finally:
        sys.path.pop(0)
        for name in [m for m in sys.modules if m == "sparsemix" or m.startswith("sparsemix.")]:
            del sys.modules[name]
    return SimpleNamespace(path=Path(sparsemix.__file__).parent, model=model, simulate=simulate,
                           fits={"sparse": sparse_em.run, "baseline": baseline.baseline_fit})


def fit_digest(fit, Y, K, hp, seed) -> str:
    h = hashlib.sha256()
    try:
        _feed(h, fit(Y, K, hp, seed=seed))
    except Exception as err:  # a failing fit is part of the digest
        h.update(f"{type(err).__name__}: {err}".encode())
    return h.hexdigest()


def timed(fit, Y, K, hp, seed) -> float:
    start = time.perf_counter()
    try:
        fit(Y, K, hp, seed=seed)
    except Exception:  # timed like any other fit; its digest records the error
        pass
    return time.perf_counter() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("other", nargs="?", help="another checkout's src to time and compare against ./src")
    args = parser.parse_args(argv)
    here = str(Path(__file__).resolve().parents[1] / "src")
    versions = {"this": load_package(here)}
    if args.other:
        versions["other"] = load_package(args.other)
    for label, version in versions.items():
        print(f"{label}: sparsemix from {version.path}")

    simulate = versions["this"].simulate
    header = "| estimator | d | fits | " + " | ".join(f"{label} ms p50 | {label} ms p90" for label in versions)
    print(header + (" | this/other | identical |" if args.other else " |"))
    print("|" + "---|" * (header.count("|") + (2 if args.other else 0)))
    for dim, (dilations, replicates) in CELLS.items():
        inputs = []  # (points, K, fit seed) per fit
        for dilation in dilations:
            config = simulate.ScenarioConfig(dim=dim, dilation=dilation, seed=SEED)
            inputs += [(simulate.gen_replicate(config, r).points, config.K, simulate.fit_seed_seq(config, r))
                       for r in range(replicates)]
        # each version fits its own SampleSet and Hyperparams, built from the same points
        args_of = {label: [(v.model.SampleSet(points), K, v.model.Hyperparams(**HP), seed)
                           for points, K, seed in inputs]
                   for label, v in versions.items()}
        for method in ("sparse", "baseline"):
            digests = {label: [fit_digest(v.fits[method], *a) for a in args_of[label]] for label, v in versions.items()}
            best = {label: [float("inf")] * len(inputs) for label in versions}
            order = list(versions)
            for _ in range(ROUNDS):
                for i in range(len(inputs)):
                    for label in order:
                        seconds = timed(versions[label].fits[method], *args_of[label][i])
                        best[label][i] = min(best[label][i], seconds)
                    order.reverse()
            ms = {label: np.array(t) * 1e3 for label, t in best.items()}
            row = f"| {method} | {dim} | {len(inputs)} | " + " | ".join(
                f"{np.percentile(t, 50):.3f} | {np.percentile(t, 90):.3f}" for t in ms.values())
            if args.other:
                ratio = float(np.median(ms["this"] / ms["other"]))
                same = digests["this"] == digests["other"]
                row += f" | {ratio:.3f} | {'yes' if same else 'NO'}"
            print(row + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
