"""Process set-up shared by the benchmark and its set-up probe.

`pin()` must run before numpy is imported: it fixes every BLAS/OpenMP
pool to one thread, so that two sweep workers on two cores do not each
start a multi-threaded BLAS, and it puts the checkout's `src/` first on
`sys.path`.  `import_sparsemix()` then refuses any `sparsemix` that does
not come from that `src/`, so the benchmark always measures the code of
the tree it sits in, and fails when that tree is absent.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def pin() -> None:
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def import_sparsemix():
    import sparsemix

    origin = Path(sparsemix.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"sparsemix imported from {origin}, not from {SRC}")
    return sparsemix


def nproc() -> int:
    return len(os.sched_getaffinity(0))
