"""Print one sha256 per method and hyperparameter set over a fixed set of fits.

Two commits whose fits are bit-identical print the same digests, and a
change that moves some fits shows which (method, set) pairs moved.  The
fits cross d in {1, 2, 5, 50}, four dilations and three replicates with
four hyperparameter sets: the acceptance configuration (restarts 1,
max_cycles 60, tol 1e-7, adaptive lambda), two restarts, the fixed
lambda 0 with tol 1e-5 and the fixed lambda 0.5 with max_cycles 30.
The baseline holds lambda at 0, so each set changes something it reads.
Each report is hashed field by field (arrays by dtype, shape and bytes,
so signed zeros count; a list and a tuple of the same items alike, so
commits that store the re-seed events either way compare); a fit that
raises is hashed by its exception type and message.  The sparse
report's ``lams`` is left out, so that commits whose reports lack it
compare too; it enters the last trace entry, which is hashed.

Usage, from the root of a checkout:

    python tools/fit_digest.py            # fits with ./src
    python tools/fit_digest.py OTHER/src  # fits with another checkout's src

The second form runs the same fit set against any commit, including
one that predates this script.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import sys
from pathlib import Path

DIMS = (1, 2, 5, 50)
DILATIONS = (10.0, 30.0, 60.0, 100.0)
REPLICATES = 3
HP_SETS = (
    {"restarts": 1, "lam": None},
    {"restarts": 2, "lam": None},
    {"restarts": 1, "lam": 0.0, "tol": 1e-5},
    {"restarts": 1, "lam": 0.5, "max_cycles": 30},
)
UNHASHED_FIELDS = {"lams"}


def _feed(h, value) -> None:
    import numpy as np

    if isinstance(value, np.ndarray):
        h.update(f"{value.dtype.str}{value.shape}".encode())
        h.update(value.tobytes())
    elif dataclasses.is_dataclass(value):
        for name in sorted({f.name for f in dataclasses.fields(value)} - UNHASHED_FIELDS):
            h.update(name.encode())
            _feed(h, getattr(value, name))
    elif isinstance(value, tuple):
        h.update(repr(list(value)).encode())
    else:
        h.update(repr(value).encode())


def feed_fit(h, fit, Y, K, hp, seed) -> None:
    """Feed ``fit(Y, K, hp, seed=seed)``'s report into ``h``, or its exception's type and message if it raises."""
    try:
        report = fit(Y, K, hp, seed=seed)
    except Exception as err:  # a failing fit is part of the digest
        h.update(f"{type(err).__name__}: {err}".encode())
    else:
        _feed(h, report)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", nargs="?", default=str(Path(__file__).resolve().parents[1] / "src"),
                        help="directory holding the sparsemix package (default: this checkout's src)")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(Path(args.src).resolve()))

    import sparsemix
    from sparsemix.baseline import baseline_fit
    from sparsemix.model import Hyperparams, SampleSet
    from sparsemix.simulate import ScenarioConfig, fit_seed_seq, gen_replicate
    from sparsemix.sparse_em import run

    print(f"sparsemix from {Path(sparsemix.__file__).parent}")
    methods = (("sparse", run), ("baseline", baseline_fit))
    digests = {(method, i): hashlib.sha256() for method, _ in methods for i in range(len(HP_SETS))}
    fits = 0
    for dim in DIMS:
        for dilation in DILATIONS:
            config = ScenarioConfig(dim=dim, dilation=dilation, seed=0)
            for replicate in range(REPLICATES):
                Y = SampleSet(gen_replicate(config, replicate).points)
                seed = fit_seed_seq(config, replicate)
                case = repr((dim, dilation, replicate)).encode()
                for i, hp_set in enumerate(HP_SETS):
                    hp = Hyperparams(**{"max_cycles": 60, "tol": 1e-7, **hp_set})
                    for method, fit in methods:
                        h = digests[method, i]
                        h.update(case)
                        feed_fit(h, fit, Y, config.K, hp, seed)
                fits += 1
    for (method, i), h in digests.items():
        label = " ".join(f"{key}={value}" for key, value in sorted(HP_SETS[i].items()))
        print(f"{method:8s} {label:32s} {h.hexdigest()}  ({fits} fits)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
