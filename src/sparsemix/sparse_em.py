"""Space-alternating EM driver for the l1-penalized self-regression mixture.

One full cycle refreshes the responsibilities before every partial step
and updates exactly one parameter block per step, in the order

    weights, beta_1 .. beta_K, sigma_1 .. sigma_K.

Each partial step maximizes the EM surrogate over its block (the beta
step through the weighted lasso).  The K penalty weights are fixed at
the start of each cycle and held for its steps, so each cycle ascends
one penalized objective: short of a re-seed, the trace never decreases
within a cycle, the default adaptive weights included, and the stopping
rule compares two values of that one objective.
Clusters that lose all responsibility mass are re-seeded at the least
committed data point; a cluster that needs more than three re-seeds
aborts the fit as non-converged.  The restart driver
(:func:`best_restart`) is shared with the classic-EM baseline: for each
restart it draws the initialization (:func:`indicator_init`), runs the
loop (:func:`em_loop`) with its evaluation (:class:`~sparsemix.model.Blocks`)
and re-seed (:func:`_reseed`), and it keeps the restart whose trace ends
highest.  Classic EM is the same model with beta_k = tau_k / s_k, so
the mean Y beta_k is the weighted data mean; it runs as the one-step
cycle of the full M-step with lambda held at 0.  Each estimator builds
its own report type once, for the winning restart.

The model is evaluated once per partial step: the trace entry of step t
and the responsibilities of step t + 1 are two views of one log-joint
matrix, evaluated only by :class:`sparsemix.model.Blocks`.  Each restart
carries one instance across its steps and computes each block once per
step that changes it: after a beta step the evaluation recomputes the
means, squared distances and l1 norms, after a sigma step the log
normalizers, after either the log densities, and after the weights step
only the log weights.  Classic EM's M-step installs the means, squared
distances and l1 norms of its new betas itself, since its variances need
the squared distances, so the evaluation after it recomputes only the
other blocks.  The penalty in each trace entry is ``lams @ l1`` on the
blocks just evaluated.  :func:`e_step` evaluates through a fresh
instance.
Parameters inside the loop are built by :meth:`MixtureParams._trusted`
and so are unvalidated by construction; the initial parameters and
re-seeded ones are validated, and every block is recomputed from them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .lasso import WeightedLassoProblem, default_tolerance, kkt_residual, solve_weighted_lasso
from .model import (
    WEIGHT_SUM_TOL,
    Blocks,
    EmptyClusterError,
    Hyperparams,
    MixtureParams,
    NumericalError,
    SampleSet,
    as_int,
)
from .model import log_density_matrix, penalized_value  # noqa: F401  (bound here by perfbench/tracing.py)

EMPTY_FRACTION = 1e-8   # s_k below this times n counts as an empty cluster
MAX_RESEEDS = 3
MAX_PENALTY_FRACTION = 0.5      # ratchet guard, see penalty_weight
# Tighter guard for 1-d data, see penalty_weight.  Pinned by
# tests/test_sparse_em.py::TestRun::test_recovers_well_separated_clusters:
# at 0.5 that fit puts all six points of its two groups in one cluster.
LINE_PENALTY_FRACTION = 0.2


@dataclass
class FitReport:
    """Outcome of one driver invocation (best restart)."""

    params: MixtureParams
    objective_trace: np.ndarray
    # each block's lasso KKT residual at the final tau under lams, as
    # stationarity_report returns it; NaN for an empty cluster
    beta_kkt_residuals: np.ndarray
    cycles_run: int
    converged: bool
    assignments: np.ndarray
    restart_index: int
    reseed_events: list
    lams: np.ndarray    # the l1 weights of the last cycle, behind objective_trace[-1]
    diagnostic: str | None = None


def penalty_weight(Y: SampleSet, sigma2: float, total_weight: float, target: np.ndarray) -> float:
    """Adaptive l1 weight for one component's mean update.

    :func:`effective_lams` uses it when ``hp.lam`` is None.  The weight
    is the smaller of two terms.  The noise term keys it to the noise
    level of the subproblem gradient: the weighted cluster mean carries
    noise of standard deviation sigma / sqrt(s) per coordinate, so the
    gradient coordinate (s / sigma^2) D_j^t m fluctuates with scale
    sqrt(s) ||D_j|| / sigma, and the sqrt(2 log n) union bound over the
    n coordinates is set to prune pure-noise coefficients.  The clamp
    is a fraction of the critical value (s / sigma^2) ||D^t m||_inf
    beyond which the whole block zeroes out: MAX_PENALTY_FRACTION, or
    the tighter LINE_PENALTY_FRACTION at d = 1, where the origin lies
    between the groups and a mean drawn onto it keeps claiming points.

    Which term binds depends on the dimension.  At the final parameters
    of acceptance-configuration fits (scenario seed 0, dilations 10 to
    100), the clamp binds on 10 of 525 non-empty components at d = 50,
    where the noise term sets the weight.  At d = 2 the noise term
    exceeds the clamp on 491 of 588, so the weight there is half the
    critical value.  Each beta step then shrinks the fitted mean by a
    near-constant factor, and a d = 2 fit draws its means toward the
    sample centroid: their median norm ends at 0.11 of the largest
    point norm, against 0.63 for classic EM, and most components keep
    a one-column support.
    """
    fraction = LINE_PENALTY_FRACTION if Y.d == 1 else MAX_PENALTY_FRACTION
    noise = math.sqrt(2.0 * math.log(Y.n) * total_weight) * Y.max_row_norm / math.sqrt(sigma2)
    critical = (total_weight / sigma2) * float(np.abs(Y.data @ target).max())
    return min(noise, fraction * critical)


def effective_lams(params: MixtureParams, tau: np.ndarray, Y: SampleSet, hp: Hyperparams) -> np.ndarray:
    """Per-component penalty weights at the current parameters; 0 for an empty cluster."""
    if hp.lam is not None:
        return np.full(params.K, float(hp.lam))
    out = np.zeros(params.K)
    for k, sigma2 in enumerate(params.variances.tolist()):
        s = float(tau[:, k].sum())
        if s > EMPTY_FRACTION * Y.n:
            out[k] = penalty_weight(Y, sigma2, s, (tau[:, k] @ Y.data) / s)
    return out


# ---------------------------------------------------------------------------
# Partial steps
# ---------------------------------------------------------------------------

def _responsibilities(logp: np.ndarray, lse: np.ndarray) -> np.ndarray:
    tau = np.exp(logp - lse[:, None])
    if not np.isfinite(tau).all():
        raise NumericalError("responsibilities contain non-finite entries")
    return tau


def e_step(params: MixtureParams, Y: SampleSet) -> np.ndarray:
    """Posterior component memberships, one normalized row per point."""
    return _responsibilities(*Blocks(Y).evaluate(params))


def update_weights(tau: np.ndarray) -> np.ndarray:
    """Component weights as mean responsibility mass per column."""
    return on_simplex(tau.sum(axis=0) / tau.shape[0])


def on_simplex(weights: np.ndarray) -> np.ndarray:
    """``weights`` divided by their sum when it misses 1 by more than ``WEIGHT_SUM_TOL``.

    Responsibility rows sum to 1 only to within the absolute rounding of
    their log-normalizer, about 1e-11 at log densities near 1e5 (d = 200
    with variances near 1e-300), and the weights inherit that error.
    """
    total = weights.sum()
    return weights / total if abs(total - 1.0) > WEIGHT_SUM_TOL else weights


def _mass(k: int, tau: np.ndarray, Y: SampleSet) -> float:
    """Column k's responsibility mass; raises when the cluster is empty."""
    s = float(tau[:, k].sum())
    if s <= EMPTY_FRACTION * Y.n:
        raise EmptyClusterError(f"component {k} has responsibility mass {s:.3e}", component=k)
    return s


def update_beta(k: int, params: MixtureParams, tau: np.ndarray, Y: SampleSet, hp: Hyperparams,
                lam: float) -> np.ndarray:
    """Weighted-lasso update of one coefficient block under the l1 weight ``lam``, warm-started.

    The sparse loop passes the weight it fixed for the cycle
    (:func:`effective_lams`).
    """
    s = _mass(k, tau, Y)
    mean = (tau[:, k] @ Y.data) / s
    sigma2 = float(params.variances[k])
    problem = WeightedLassoProblem._trusted(Y.design, mean, s, sigma2, lam, Y.gram)
    # the inner solve must outresolve the outer stopping rule, or the
    # truncation error turns into a perpetual per-cycle objective creep
    tol = default_tolerance(problem) * min(1.0, hp.tol / 1e-8)
    return solve_weighted_lasso(problem, beta_init=params.betas[k], tol=tol).beta


def update_sigma(k: int, tau: np.ndarray, Y: SampleSet, hp: Hyperparams, means: np.ndarray) -> float:
    """Floored responsibility-weighted mean squared deviation per coordinate about ``means[k]``.

    ``means`` is ``params.means(Y)``, the means the step holds.
    """
    s = _mass(k, tau, Y)
    resid = Y.data - means[k][None, :]
    sq = float(tau[:, k] @ (resid**2).sum(axis=1))
    return max(hp.resolve_floor(Y), sq / (Y.d * s))


def _step(blocks: Blocks, params: MixtureParams, tau: np.ndarray, tag: tuple[str, int], Y: SampleSet,
          hp: Hyperparams) -> MixtureParams:
    """One partial step of the sparse cycle: the weights, one beta_k or one sigma_k."""
    kind, k = tag
    if kind == "weights":
        return MixtureParams._trusted(update_weights(tau), params.betas, params.variances)
    if kind == "beta":
        betas = params.betas.copy()
        betas[k] = update_beta(k, params, tau, Y, hp, float(blocks.lams[k]))
        return MixtureParams._trusted(params.weights, betas, params.variances)
    blocks.sync(params)  # a no-op in em_loop, which evaluated params last
    variances = params.variances.copy()
    variances[k] = update_sigma(k, tau, Y, hp, blocks.means)
    return MixtureParams._trusted(params.weights, params.betas, variances)


# ---------------------------------------------------------------------------
# Initialization
# ---------------------------------------------------------------------------

def restart_seed_seq(seed, restart_index: int) -> np.random.SeedSequence:
    """Child stream for one restart, derived without mutating ``seed``.

    ``SeedSequence.spawn`` advances internal state, so two drivers handed
    the same sequence would otherwise see different children depending on
    call order; reconstructing the child by spawn key keeps fits pure
    functions of (seed, restart).
    """
    if isinstance(seed, np.random.SeedSequence):
        return np.random.SeedSequence(entropy=seed.entropy, spawn_key=seed.spawn_key + (restart_index,))
    return np.random.SeedSequence(entropy=seed, spawn_key=(restart_index,))


def default_sigma2(Y: SampleSet, K: int, floor: float) -> float:
    return max(floor, Y.total_variance() / (Y.d * K))


def indicator_init(Y: SampleSet, K: int, floor: float, rng: np.random.Generator) -> MixtureParams:
    """Sparse warm start: each beta_k indicates one random data point."""
    idx = rng.choice(Y.n, size=K, replace=False)
    betas = np.zeros((K, Y.n))
    betas[np.arange(K), idx] = 1.0
    return MixtureParams(
        weights=np.full(K, 1.0 / K),
        betas=betas,
        variances=np.full(K, default_sigma2(Y, K, floor)),
    )


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

def _reseed(params: MixtureParams, tau: np.ndarray, k: int, Y: SampleSet, sigma2_default: float) -> MixtureParams:
    """Move component k onto the least committed data point.

    The weight of component k is bumped to at least 1 / (2K): a
    component whose weight underflowed to zero would otherwise stay
    invisible to the next E-step no matter where its mean moved.
    """
    j = int(np.argmin(tau.max(axis=1)))
    weights = params.weights.copy()
    weights[k] = max(weights[k], 1.0 / (2 * params.K))
    weights /= weights.sum()
    betas = params.betas.copy()
    betas[k] = 0.0
    betas[k, j] = 1.0
    variances = params.variances.copy()
    variances[k] = sigma2_default
    return MixtureParams(weights=weights, betas=betas, variances=variances)


class LoopOutcome(NamedTuple):
    """One restart's end state, as :func:`em_loop` returns it."""

    params: MixtureParams
    trace: np.ndarray
    cycles_run: int
    converged: bool
    tau: np.ndarray         # the responsibilities at params
    reseed_events: list     # (cycle, step index, component)
    diagnostic: str | None
    lams: np.ndarray        # the l1 weights of the last cycle, behind trace[-1]


def em_loop(Y: SampleSet, params: MixtureParams, hp: Hyperparams, order: tuple, step) -> LoopOutcome:
    """One restart of EM from ``params``, cycling through the partial steps in ``order``.

    The restart carries its model blocks in a fresh :class:`Blocks`.
    Each step reads its responsibilities from the last
    ``blocks.evaluate(params) -> (logp, lse)`` and returns
    ``step(blocks, params, tau, tag, Y, hp)``: the sparse cycle passes
    :func:`_step`, classic EM the one-step cycle ``(None,)`` of
    its full M-step, which leaves the beta blocks of its result in
    ``blocks``.  The evaluation after the step computes the blocks the
    step changed and did not leave there.  On EmptyClusterError the
    component is re-seeded by :func:`_reseed`, or the restart aborts
    after ``MAX_RESEEDS`` re-seeds.

    Each cycle opens by fixing its penalty weights ``blocks.lams``
    (:func:`effective_lams` at the cycle's starting ``tau``).  Each
    trace entry is ``sum(lse)`` less the l1 penalty under those
    weights, ``blocks.lams @ blocks.l1``, both read from the evaluation
    just made; classic EM holds ``hp.lam`` at 0, so its entries are the
    log likelihood.  Cycle 1 onward converges when its last entry lies
    within ``hp.tol``, relative, of its start value: the ``sum(lse)`` of
    the evaluation before the cycle, summed once, less the penalty under
    the cycle's weights.  Under weights that do not move that is, bit for
    bit, the previous cycle's last entry.
    """
    blocks = Blocks(Y)
    sigma2_init = default_sigma2(Y, params.K, hp.resolve_floor(Y))
    trace: list[float] = []
    reseed_events: list = []
    reseed_counts = [0] * params.K
    diagnostic = None
    converged = False
    cycles_run = 0
    logp, lse = blocks.evaluate(params)
    loglik = float(lse.sum())

    for cycle in range(hp.max_cycles):
        for step_idx, tag in enumerate(order):
            tau = _responsibilities(logp, lse)
            if step_idx == 0:
                blocks.lams = effective_lams(params, tau, Y, hp)
                start = loglik - float(blocks.lams @ blocks.l1)
            try:
                params = step(blocks, params, tau, tag, Y, hp)
            except EmptyClusterError as err:
                k = err.component
                reseed_counts[k] += 1
                reseed_events.append((cycle, step_idx, k))
                if reseed_counts[k] > MAX_RESEEDS:
                    diagnostic = f"component {k} stayed empty after {MAX_RESEEDS} re-seeds"
                else:
                    params = _reseed(params, tau, k, Y, sigma2_init)
            logp, lse = blocks.evaluate(params)
            loglik = float(lse.sum())
            trace.append(loglik - float(blocks.lams @ blocks.l1))
            if diagnostic is not None:
                break
        if diagnostic is not None:
            break
        cycles_run = cycle + 1
        if cycle >= 1 and abs(trace[-1] - start) <= hp.tol * (1.0 + abs(trace[-1])):
            converged = True
            break

    return LoopOutcome(params, np.asarray(trace), cycles_run, converged, _responsibilities(logp, lse),
                       reseed_events, diagnostic, blocks.lams)


def best_restart(Y: SampleSet, K: int, hp: Hyperparams, seed, order: tuple, step) -> tuple[int, LoopOutcome]:
    """``(r, outcome)`` of the best of ``hp.restarts`` runs of :func:`em_loop`.

    Restart r starts from :func:`indicator_init`, drawn on the child
    stream r of ``seed`` (``hp.seed`` when None), and runs
    ``em_loop(Y, params, hp, order, step)``.  Restarts are ranked by
    the last entry of their own trace: a later restart replaces the best
    only when it is strictly larger, so a tie keeps the earlier one.
    """
    as_int("K", K, 1)
    if Y.n < K:
        raise ValueError("need at least K data points")
    if seed is None:
        seed = hp.seed
    floor = hp.resolve_floor(Y)
    best = None
    for r in range(hp.restarts):
        params = indicator_init(Y, K, floor, np.random.default_rng(restart_seed_seq(seed, r)))
        outcome = em_loop(Y, params, hp, order, step)
        if best is None or outcome.trace[-1] > best[1].trace[-1]:
            best = r, outcome
    return best


def run(Y: SampleSet, K: int, hp: Hyperparams, seed=None) -> FitReport:
    """Fit a K-component model; returns the best restart by final objective.

    ``seed`` overrides ``hp.seed`` and may be an int or a
    ``numpy.random.SeedSequence``; restart r draws its initialization
    from an independent child stream, so fits are reproducible bit for
    bit.  Each cycle runs the fixed order ``("weights", -1)``,
    ``("beta", k)`` for each k, then ``("sigma", k)`` for each k.  The
    report, its KKT certificate included, is built once, for the
    winning restart.
    """
    order = (("weights", -1),) + tuple(("beta", k) for k in range(K)) + tuple(("sigma", k) for k in range(K))
    r, out = best_restart(Y, K, hp, seed, order, _step)
    return FitReport(
        params=out.params,
        objective_trace=out.trace,
        beta_kkt_residuals=_kkt_certificate(out.params, out.tau, out.lams, Y)[0],
        cycles_run=out.cycles_run,
        converged=out.converged,
        assignments=np.argmax(out.tau, axis=1),
        restart_index=r,
        reseed_events=out.reseed_events,
        lams=out.lams,
        diagnostic=out.diagnostic,
    )


# ---------------------------------------------------------------------------
# Stationarity certification
# ---------------------------------------------------------------------------

def beta_gradient(params: MixtureParams, Y: SampleSet, k: int) -> np.ndarray:
    """Gradient of the unpenalized log likelihood in the beta_k block."""
    tau = e_step(params, Y)
    weighted_resid = Y.data.T @ tau[:, k] - float(tau[:, k].sum()) * params.means(Y)[k]
    return (Y.data @ weighted_resid) / float(params.variances[k])


def _kkt_certificate(params: MixtureParams, tau: np.ndarray, lams: np.ndarray,
                     Y: SampleSet) -> tuple[np.ndarray, np.ndarray]:
    """``(residuals, scales)`` of each beta block's lasso subproblem at ``tau`` under ``lams``.

    See :func:`stationarity_report`; blocks with responsibility mass at
    most ``EMPTY_FRACTION * n`` read NaN in both.
    """
    mu = params.means(Y)
    residuals = np.full(params.K, np.nan)
    scales = np.full(params.K, np.nan)
    for k, sigma2 in enumerate(params.variances.tolist()):
        s = float(tau[:, k].sum())
        if s <= EMPTY_FRACTION * Y.n:
            continue
        lam = float(lams[k])
        problem = WeightedLassoProblem(
            design=Y.design, target=(tau[:, k] @ Y.data) / s, total_weight=s, sigma2=sigma2,
            lam=lam, gram=Y.gram,
        )
        residuals[k] = kkt_residual(problem, params.betas[k])
        resid_mass = float(tau[:, k] @ np.linalg.norm(Y.data - mu[k][None, :], axis=1))
        scales[k] = Y.max_row_norm * resid_mass / sigma2 + lam
    return residuals, scales


def stationarity_report(report: FitReport, Y: SampleSet) -> tuple[np.ndarray, np.ndarray]:
    """First-order certificate for each beta block of a finished fit.

    Returns ``(residuals, scales)``, both shape (K,).  residuals[k] is
    the lasso KKT residual (:func:`sparsemix.lasso.kkt_residual`) of the
    beta_k subproblem at the responsibilities of the final parameters,
    under ``report.lams``, the weights the last cycle held.  At those
    responsibilities the gradient of the subproblem's smooth part is
    minus the log-likelihood gradient in beta_k (:func:`beta_gradient`),
    so the residual is the distance from 0 to the beta_k subdifferential
    of the penalized objective :func:`sparsemix.model.penalized_value`
    under ``report.lams``.  scales[k] is a crude upper bound on the
    gradient magnitude, suitable for relative comparisons.  Blocks whose
    responsibility mass is at most ``EMPTY_FRACTION * n``, the driver's
    own test for an empty cluster, sit at an active boundary constraint
    where this certificate does not apply; they read NaN.  For a report
    of :func:`run`, ``residuals`` is bit for bit
    ``report.beta_kkt_residuals``.
    """
    return _kkt_certificate(report.params, e_step(report.params, Y), report.lams, Y)
