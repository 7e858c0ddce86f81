"""Print the ANCRCI table of the acceptance-configuration sweep, paired by replicate.

The sweep is the acceptance configuration: d in {2, 50}, dilations 10,
30, 50, 60, 70 and 100, both estimators, data seed 0, one restart,
max_cycles 60, tol 1e-7, adaptive lambda, two worker processes;
``--restarts``, ``--max-cycles`` and ``--tol`` change those three on
both sides.  It runs as a ``python -m sparsemix.cli sweep`` subprocess
on this checkout's ``src`` and, given another checkout's ``src``, once
more on that, each into its own temporary directory.  Only the two
``replicates.csv`` files are compared, so any commit whose sweep
writes that file can stand on either side.

Each side's ANCRCI is recomputed from its ``replicates.csv`` and must
equal the sweep's own ``ancrci_<method>.csv``.  Paired rows (same cell,
method and replicate) must carry the same ``data_hash``.  Either
mismatch ends the run with exit code 1.

One markdown row per cell and method gives ANCRCI and the converged
count of each side, the number of replicates whose correct count moved,
and this - other as a paired mean with its standard error.  A second
table gives sparse - baseline per cell on each side, paired the same
way.  One sweep of 100 replicates takes about 22 s on a 2-vCPU VM.

Usage, from the root of a checkout:

    python tools/accuracy.py                      # sweeps with ./src
    python tools/accuracy.py OTHER/src            # ./src against OTHER/src
    python tools/accuracy.py OTHER/src --replicates 20
    python tools/accuracy.py OTHER/src --restarts 5 --max-cycles 200 --tol 1e-8  # the library defaults
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

SWEEP = ["--dims", "2", "50", "--dilations", "10", "30", "50", "60", "70", "100",
         "--methods", "sparse", "baseline", "--seed", "0", "--jobs", "2"]
METHODS = ("sparse", "baseline")


def sweep(src: str, flags: list[str], out: str) -> dict:
    """Run the sweep with the package in ``src`` and the sweep ``flags`` after ``SWEEP``'s.

    Returns {(dim, dilation, method): [(correct, converged, hash), ...]}.
    """
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(Path(src).resolve()),
                                                                      os.environ.get("PYTHONPATH")]))}
    subprocess.run([sys.executable, "-m", "sparsemix.cli", "sweep", *SWEEP, *flags, "--out", out], env=env,
                   check=True, stdout=subprocess.DEVNULL)
    cells: dict = {}
    with open(os.path.join(out, "replicates.csv"), newline="", encoding="ascii") as fh:
        for row in csv.DictReader(fh):
            cell = (int(row["dim"]), float(row["dilation"]), row["method"])
            cells.setdefault(cell, []).append((int(row["correct"]), row["converged"] == "true", row["data_hash"]))
    for method in METHODS:
        with open(os.path.join(out, f"ancrci_{method}.csv"), newline="", encoding="ascii") as fh:
            rows = list(csv.reader(fh))
        dilations = [float(label.split(";")[0].split("=")[1]) for label in rows[0][1:]]
        for row in rows[1:]:
            for dilation, value in zip(dilations, row[1:]):
                ours = ancrci(cells[int(row[0]), dilation, method])
                if float(value) != ours:
                    raise SystemExit(f"error: {src}: ANCRCI of d={row[0]} dilation={dilation:g} {method} is "
                                     f"{value} in ancrci_{method}.csv but {ours!r} from replicates.csv")
    return cells


def ancrci(records: list) -> float:
    return float(np.mean([correct for correct, _, _ in records]))  # as evaluate.run_mc_cell averages


def paired(a: list, b: list) -> str:
    """Mean of the per-replicate differences a - b of the correct counts, with its standard error."""
    diffs = np.array([x[0] - y[0] for x, y in zip(a, b)], dtype=float)
    se = diffs.std(ddof=1) / math.sqrt(diffs.size) if diffs.size > 1 else math.nan
    return f"{diffs.mean():+.2f} ± {se:.2f}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("other", nargs="?", help="another checkout's src to sweep and pair against ./src")
    parser.add_argument("--replicates", type=int, default=100, help="Monte Carlo replicates per cell (default 100)")
    parser.add_argument("--restarts", type=int, default=1, help="restarts per fit (default 1)")
    parser.add_argument("--max-cycles", type=int, default=60, help="cycle budget per restart (default 60)")
    parser.add_argument("--tol", type=float, default=1e-7, help="relative stopping tolerance (default 1e-7)")
    args = parser.parse_args(argv)
    flags = ["--replicates", str(args.replicates), "--restarts", str(args.restarts),
             "--max-cycles", str(args.max_cycles), "--tol", repr(args.tol)]
    srcs = {"this": str(Path(__file__).resolve().parents[1] / "src")}
    if args.other:
        srcs["other"] = args.other
    with tempfile.TemporaryDirectory() as tmp:
        runs = {label: sweep(src, flags, os.path.join(tmp, label)) for label, src in srcs.items()}
    this = runs["this"]
    other = runs.get("other")
    if other is not None:
        if this.keys() != other.keys() or any(len(this[c]) != len(other[c]) for c in this):
            raise SystemExit("error: the two sweeps wrote different cells or replicate counts")
        for cell, records in this.items():
            if [r[2] for r in records] != [r[2] for r in other[cell]]:
                raise SystemExit(f"error: data_hash differs between the sweeps in cell {cell}")

    for label, src in srcs.items():
        print(f"{label}: sparsemix from {Path(src).resolve()}")
    print(f"{args.replicates} replicates per cell\n")
    sides = list(runs)
    header = ["d", "dilation", "method"] + [f"ANCRCI {s}" for s in sides] + [f"converged {s}" for s in sides]
    if other is not None:
        header += ["moved", "this − other"]
    print("| " + " | ".join(header) + " |")
    print("|" + "---|" * len(header))
    for cell, records in this.items():
        dim, dilation, method = cell
        row = [str(dim), f"{dilation:g}", method]
        row += [f"{ancrci(runs[s][cell]):.2f}" for s in sides]
        row += [str(sum(r[1] for r in runs[s][cell])) for s in sides]
        if other is not None:
            row += [str(sum(a[0] != b[0] for a, b in zip(records, other[cell]))), paired(records, other[cell])]
        print("| " + " | ".join(row) + " |")

    print("\n| d | dilation | " + " | ".join(f"sparse − baseline {s}" for s in sides) + " |")
    print("|" + "---|" * (2 + len(sides)))
    for dim, dilation in dict.fromkeys((dim, dilation) for dim, dilation, _ in this):
        row = [str(dim), f"{dilation:g}"] + [
            paired(runs[s][dim, dilation, "sparse"], runs[s][dim, dilation, "baseline"]) for s in sides]
        print("| " + " | ".join(row) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
