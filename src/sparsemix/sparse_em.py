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
and re-seed (:func:`_reseed`), and it keeps the restart of highest final
log likelihood.  Classic EM is the same model with beta_k = tau_k / s_k,
so the mean Y beta_k is the weighted data mean; it runs as the one-step
cycle of the full M-step with lambda held at 0.  Each estimator builds
its own report type once, for the winning restart (:func:`report_fields`).

The model is evaluated once per partial step: the trace entry of step t
and the responsibilities of step t + 1 are two views of one log-joint
matrix, evaluated by the :class:`~sparsemix.model.Blocks` instance each
restart carries, whose docstring tells which blocks a step recomputes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .lasso import WeightedLassoProblem, default_tolerance, kkt_residual, solve_weighted_lasso
from .model import (
    Blocks,
    EmptyClusterError,
    Hyperparams,
    MixtureParams,
    NumericalError,
    SampleSet,
    as_int,
    child_seed_seq,
    squared_distances,
)
from .model import log_density_matrix, penalized_value  # noqa: F401  (bound here by perfbench/tracing.py)

EMPTY_FRACTION = 1e-8   # s_k below this times n counts as an empty cluster
MAX_RESEEDS = 3
# Ratchet guard in every dimension, see penalty_weight.  At 0.5 the 1-d
# fit of tests/test_sparse_em.py::TestRun::test_recovers_well_separated_clusters
# puts all six points of its two groups in one cluster: the origin lies
# between the groups, and a mean drawn onto it keeps claiming points.
MAX_PENALTY_FRACTION = 0.2


@dataclass(slots=True)
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
    reseed_events: tuple    # (cycle, step index, component)
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
    n coordinates is set to prune pure-noise coefficients.  The clamp,
    in every dimension, is MAX_PENALTY_FRACTION of the critical value
    (s / sigma^2) ||D^t m||_inf beyond which the whole block zeroes out.

    Which term binds depends on the dimension.  At the final parameters
    of acceptance-configuration fits (scenario seed 0, dilations 10, 30,
    60 and 100, 50 replicates each), the clamp binds on 82 of 576
    non-empty components at d = 50, where the noise term mostly sets
    the weight, and on 549 of 598 at d = 2.  The d = 2 means keep a
    median norm of 0.44 of the largest point norm, against 0.64 for
    classic EM (0.11 under a clamp at half the critical value).  Sparse
    minus classic EM, the paired gap in correct labels at one restart
    and 100 replicates per cell, is +0.21, +0.35, +0.40, +0.31, +0.34
    and +0.32 at d = 2 for dilations 10, 30, 50, 60, 70 and 100, and
    +0.20 to +1.03 at d = 50.
    """
    noise = math.sqrt(2.0 * math.log(Y.n) * total_weight) * Y.gram.col_max / math.sqrt(sigma2)
    critical = (total_weight / sigma2) * float(np.maximum.reduce(np.abs(Y.data @ target)))
    return min(noise, MAX_PENALTY_FRACTION * critical)


def effective_lams(params: MixtureParams, tau: np.ndarray, Y: SampleSet, hp: Hyperparams) -> np.ndarray:
    """Per-component penalty weights: a fixed ``hp.lam`` for every component, an empty one included,
    else :func:`penalty_weight` at the current parameters, and 0 for an empty cluster."""
    if hp.lam is not None:
        return np.full(params.K, float(hp.lam))
    s = masses(tau)
    out = np.zeros(params.K)
    for k in np.flatnonzero(~is_empty(s, Y.n)).tolist():
        s_k = float(s[k])
        out[k] = penalty_weight(Y, float(params.variances[k]), s_k, target(k, tau, Y, s_k))
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


def masses(tau: np.ndarray) -> np.ndarray:
    """Each component's responsibility mass s_k, a column sum of ``tau``."""
    return np.add.reduce(tau, axis=0)


def is_empty(s: float | np.ndarray, n: int) -> bool | np.ndarray:
    """Whether a mass (or each of an array of masses) on n points counts as an empty cluster."""
    return s <= EMPTY_FRACTION * n


def nonempty_mass(k: int, s: np.ndarray, n: int) -> float:
    """s_k as a float; raises EmptyClusterError when component k is empty."""
    s_k = float(s[k])
    if is_empty(s_k, n):
        raise EmptyClusterError(f"component {k} has responsibility mass {s_k:.3e}", component=k)
    return s_k


def target(k: int, tau: np.ndarray, Y: SampleSet, s_k: float) -> np.ndarray:
    """Component k's responsibility-weighted data mean, the target of its lasso subproblem."""
    return (tau[:, k] @ Y.data) / s_k


def mass_weights(s: np.ndarray) -> np.ndarray:
    """The weights s / sum(s): each component's share of the responsibility mass."""
    return s / np.add.reduce(s)


def floored_variances(tau: np.ndarray, sq: np.ndarray, s: np.ndarray, d: int, floor: float) -> np.ndarray:
    """Every component's floored variance: the mean per coordinate of ``sq`` (``Blocks.sq``) under its ``tau``."""
    return np.maximum(floor, (tau * sq).sum(axis=0) / (d * s))


def update_weights(tau: np.ndarray) -> np.ndarray:
    """Component weights, each column's share of the responsibility mass."""
    return mass_weights(masses(tau))


def update_beta(k: int, params: MixtureParams, tau: np.ndarray, Y: SampleSet, hp: Hyperparams,
                lam: float) -> np.ndarray:
    """Weighted-lasso update of one coefficient block under the l1 weight ``lam``, warm-started.

    The sparse loop passes the weight it fixed for the cycle
    (:func:`effective_lams`).
    """
    s_k = nonempty_mass(k, masses(tau), Y.n)
    problem = WeightedLassoProblem._trusted(target(k, tau, Y, s_k), s_k, float(params.variances[k]), lam, Y.gram)
    # the inner solve must outresolve the outer stopping rule, or the
    # truncation error turns into a perpetual per-cycle objective creep
    tol = default_tolerance(problem) * min(1.0, hp.tol / 1e-8)
    return solve_weighted_lasso(problem, beta_init=params.betas[k], tol=tol).beta


def update_sigma(k: int, tau: np.ndarray, Y: SampleSet, hp: Hyperparams, sq: np.ndarray) -> float:
    """Component k's :func:`floored_variances` entry, ``sq`` (n, K) being the squared distances to the means.

    Only entry k is divided and floored, as Python floats, so another
    component's zero mass divides nothing.  The column sums stay one
    reduction over the whole (n, K) product, whose order gives the bits
    of ``floored_variances``; one column summed alone would sum pairwise
    at K = 1.  ``max`` takes the mean first, so a NaN mean stays NaN, as
    ``np.maximum`` keeps it.
    """
    s_k = nonempty_mass(k, masses(tau), Y.n)
    mean = float(np.add.reduce(tau * sq, axis=0)[k]) / (Y.d * s_k)
    return float(max(mean, hp.resolve_floor(Y)))


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
    variances = params.variances.copy()
    variances[k] = update_sigma(k, tau, Y, hp, blocks.sq)
    return MixtureParams._trusted(params.weights, params.betas, variances)


# ---------------------------------------------------------------------------
# Initialization
# ---------------------------------------------------------------------------

def default_sigma2(Y: SampleSet, K: int, floor: float) -> float:
    return max(floor, Y.total_variance / (Y.d * K))


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
    betas = params.betas.copy()
    betas[k] = 0.0
    betas[k, j] = 1.0
    variances = params.variances.copy()
    variances[k] = sigma2_default
    return MixtureParams(weights=mass_weights(weights), betas=betas, variances=variances)


class LoopOutcome(NamedTuple):
    """One restart's end state, as :func:`em_loop` returns it."""

    params: MixtureParams
    trace: np.ndarray
    cycles_run: int
    converged: bool
    tau: np.ndarray         # the responsibilities at params
    reseed_events: tuple    # (cycle, step index, component)
    diagnostic: str | None
    lams: np.ndarray        # the l1 weights of the last cycle, behind trace[-1]
    loglik: float           # the log likelihood sum(lse) at params, by which restarts are ranked


def em_loop(Y: SampleSet, params: MixtureParams, hp: Hyperparams, order: tuple, step) -> LoopOutcome:
    """One restart of EM from ``params``, cycling through the partial steps in ``order``.

    The restart carries its model blocks in a fresh :class:`Blocks`.
    Each step reads its responsibilities from the last
    ``blocks.evaluate(params) -> (logp, lse)`` and returns
    ``step(blocks, params, tau, tag, Y, hp)``.  While ``sum(lse)`` is
    finite, so is every lse, and tau is computed without the finiteness
    check of :func:`_responsibilities`, which raises NumericalError
    otherwise.  The sparse cycle passes
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
    just made; the penalty is recomputed only when the cycle opens and
    when a step leaves new betas, a new ``blocks.l1``.  Classic EM holds
    ``hp.lam`` at 0, so its entries are the
    log likelihood.  Cycle 1 onward converges when its last entry lies
    within ``hp.tol``, relative, of its start value: the ``sum(lse)`` of
    the evaluation before the cycle, summed once, less the penalty under
    the cycle's weights.  Under weights that do not move that is, bit for
    bit, the previous cycle's last entry.  ``loglik`` is the final sum(lse).
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
    loglik = float(np.add.reduce(lse))

    for cycle in range(hp.max_cycles):
        for step_idx, tag in enumerate(order):
            # a finite sum(lse) leaves every lse finite, so every tau entry is
            tau = np.exp(logp - lse[:, None]) if math.isfinite(loglik) else _responsibilities(logp, lse)
            if step_idx == 0:
                blocks.lams = effective_lams(params, tau, Y, hp)
                l1 = blocks.l1
                penalty = float(blocks.lams @ l1)
                start = loglik - penalty
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
            loglik = float(np.add.reduce(lse))
            if blocks.l1 is not l1:  # new betas
                l1 = blocks.l1
                penalty = float(blocks.lams @ l1)
            trace.append(loglik - penalty)
            if diagnostic is not None:
                break
        if diagnostic is not None:
            break
        cycles_run = cycle + 1
        if cycle >= 1 and abs(trace[-1] - start) <= hp.tol * (1.0 + abs(trace[-1])):
            converged = True
            break

    return LoopOutcome(params, np.asarray(trace), cycles_run, converged, _responsibilities(logp, lse),
                       tuple(reseed_events), diagnostic, blocks.lams, loglik)


def best_restart(Y: SampleSet, K: int, hp: Hyperparams, seed, order: tuple, step) -> tuple[int, LoopOutcome]:
    """``(r, outcome)`` of the best of ``hp.restarts`` runs of :func:`em_loop`.

    Restart r starts from :func:`indicator_init`, drawn on the child
    stream r of ``seed`` (``hp.seed`` when None;
    :func:`~sparsemix.model.child_seed_seq`), and runs
    ``em_loop(Y, params, hp, order, step)``.  Restarts are ranked by
    their final log likelihood ``loglik``, not by their penalized traces:
    a later one wins only when strictly larger, so ties keep the earlier.
    """
    as_int("K", K, 1)
    if Y.n < K:
        raise ValueError("need at least K data points")
    if seed is None:
        seed = hp.seed
    floor = hp.resolve_floor(Y)
    best = None
    for r in range(hp.restarts):
        params = indicator_init(Y, K, floor, np.random.default_rng(child_seed_seq(seed, r)))
        outcome = em_loop(Y, params, hp, order, step)
        if best is None or outcome.loglik > best[1].loglik:
            best = r, outcome
    return best


def report_fields(r: int, out: LoopOutcome) -> dict:
    """The report fields both estimators take from the winning restart ``r`` and its outcome."""
    return dict(converged=out.converged, assignments=np.argmax(out.tau, axis=1), restart_index=r,
                reseed_events=out.reseed_events, diagnostic=out.diagnostic)


def run(Y: SampleSet, K: int, hp: Hyperparams, seed=None) -> FitReport:
    """Fit a K-component model; returns the restart of highest final log likelihood.

    A tie keeps the earlier restart.  ``seed`` overrides ``hp.seed`` and
    may be an int or a ``numpy.random.SeedSequence``; restart r draws its
    initialization from an independent child stream, so fits are
    reproducible bit for bit.  Each cycle runs the fixed order
    ``("weights", -1)``, ``("beta", k)`` for each k, then ``("sigma", k)``
    for each k.  The report, its KKT certificate included, is built once.
    """
    order = (("weights", -1),) + tuple(("beta", k) for k in range(K)) + tuple(("sigma", k) for k in range(K))
    r, out = best_restart(Y, K, hp, seed, order, _step)
    return FitReport(
        params=out.params,
        objective_trace=out.trace,
        beta_kkt_residuals=_kkt_certificate(out.params, out.tau, out.lams, Y)[0],
        cycles_run=out.cycles_run,
        lams=out.lams,
        **report_fields(r, out),
    )


# ---------------------------------------------------------------------------
# Stationarity certification
# ---------------------------------------------------------------------------

def beta_gradient(params: MixtureParams, Y: SampleSet, k: int) -> np.ndarray:
    """Gradient of the unpenalized log likelihood in the beta_k block."""
    tau = e_step(params, Y)
    weighted_resid = Y.data.T @ tau[:, k] - float(masses(tau)[k]) * params.means(Y)[k]
    return (Y.data @ weighted_resid) / float(params.variances[k])


def _kkt_certificate(params: MixtureParams, tau: np.ndarray, lams: np.ndarray,
                     Y: SampleSet) -> tuple[np.ndarray, np.ndarray]:
    """``(residuals, scales)`` of each beta block's lasso subproblem at ``tau`` under ``lams``.

    See :func:`stationarity_report`; the blocks of empty clusters
    (:func:`is_empty`) read NaN in both.
    """
    s = masses(tau)
    empty = is_empty(s, Y.n)
    resid_mass = (tau * np.sqrt(squared_distances(Y.data, params.means(Y)))).sum(axis=0)
    scales = np.where(empty, np.nan, Y.gram.col_max * resid_mass / params.variances + lams)
    residuals = np.full(params.K, np.nan)
    for k in np.flatnonzero(~empty).tolist():
        s_k = float(s[k])
        problem = WeightedLassoProblem(design=Y.design, target=target(k, tau, Y, s_k), total_weight=s_k,
                                       sigma2=float(params.variances[k]), lam=float(lams[k]), gram=Y.gram)
        residuals[k] = kkt_residual(problem, params.betas[k])
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
    gradient magnitude, suitable for relative comparisons.  The blocks
    of clusters that the driver's own test (:func:`is_empty`) counts as
    empty sit at an active boundary constraint where this certificate
    does not apply; they read NaN.  For a report of :func:`run`,
    ``residuals`` is bit for bit ``report.beta_kkt_residuals``.
    """
    return _kkt_certificate(report.params, e_step(report.params, Y), report.lams, Y)
