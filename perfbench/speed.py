"""Machine-speed probe, so that timings from different moments compare.

The machine this benchmark was written on is a shared 2-vCPU VM whose
speed swings by up to 2x over minutes and by +-20% between 5-second
windows (CPU time moves with wall time and steal time stays near zero,
so it is not scheduling).  Raw timings of two runs of the same code then
differ by more than any useful regression bound.

`SpeedProbe` times a fixed kernel, interleaved with the workload, that
does the same kinds of work as a fit: small-array numpy arithmetic,
log-sum-exp, a tiny least-squares solve, validated frozen dataclasses
and scalar Python loops, on a frozen 10 x 2 data set.  It uses no
sparsemix code, so a faster fit does not make the kernel faster.
Timings are reported at the reference speed, at which one kernel takes
`KERNEL_REF_S`: raw time x `KERNEL_REF_S` / (mean kernel time of the
run).  Measured over 30 windows of 8 s in which the machine's speed
ranged 2.1x, the kernel's time correlated 0.94-0.96 with the time of
fixed sparse and baseline fits.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import logsumexp

KERNEL_REF_S = 0.0025
TRIM = 0.1  # share of kernel times dropped at each end
_ITERATIONS = 7


@dataclass(frozen=True)
class _State:
    means: np.ndarray
    variances: np.ndarray

    def __post_init__(self):
        for arr in (self.means, self.variances):
            if not np.all(np.isfinite(arr)):
                raise ValueError("non-finite state")
        object.__setattr__(self, "means", np.array(self.means, dtype=float))


def kernel() -> float:
    rng = np.random.default_rng(20090126)
    X = rng.standard_normal((10, 2)) * 3.0
    gram = X @ X.T
    state = _State(means=X[:3].copy(), variances=np.ones(3))
    acc = 0.0
    for i in range(_ITERATIONS):
        diff = X[:, None, :] - state.means[None, :, :]
        sq = np.einsum("nkd,nkd->nk", diff, diff)
        logp = -0.5 * (sq / state.variances + 2.0 * np.log(state.variances))
        tau = np.exp(logp - logsumexp(logp, axis=1, keepdims=True))
        mass = tau.sum(axis=0) + 1e-12
        state = replace(state, means=(tau.T @ X) / mass[:, None])
        state = replace(state, variances=np.maximum(1e-3, (tau * sq).sum(axis=0) / (2.0 * mass)))
        beta = np.zeros(10)
        for j in range(10):
            z = float(gram[j] @ tau[:, 0]) - float(gram[j] @ beta) + gram[j, j] * beta[j]
            beta[j] = math.copysign(max(abs(z) - 1.0, 0.0), z) / gram[j, j]
        sub = gram[np.ix_([0, 1, 2], [0, 1, 2])]
        x, *_ = np.linalg.lstsq(sub, tau[:3, 0], rcond=None)
        acc += float(mass[0]) + float(x[0]) + float(beta.sum()) + i
    return acc


class SpeedProbe:
    """Kernel timings taken through one benchmark run."""

    def __init__(self):
        self.samples: list[float] = []
        kernel()  # first calls pay one-off set-up costs; not a speed sample

    def sample(self, repeats: int = 1) -> float:
        """Times `repeats` kernels; returns the seconds spent."""
        spent = 0.0
        for _ in range(repeats):
            start = time.perf_counter()
            kernel()
            elapsed = time.perf_counter() - start
            self.samples.append(elapsed)
            spent += elapsed
        return spent

    def factor(self) -> float:
        """Reference over measured kernel time (trimmed mean of the run).

        A mean, not a median: when a run has fast and slow phases, the
        median kernel time jumps to whichever phase is longer, while fit
        times blend both; trimming drops kernels cut by a context switch.
        """
        ordered = sorted(self.samples)
        cut = int(len(ordered) * TRIM)
        kept = ordered[cut:len(ordered) - cut]
        return KERNEL_REF_S * len(kept) / sum(kept)
