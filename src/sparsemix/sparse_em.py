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
aborts the fit as non-converged.  This harness (:func:`em_loop`) and the
choice among restarts (:func:`best_restart`) are shared with the
classic-EM baseline, which runs it with a one-step cycle.

The model is evaluated once per partial step: the trace entry of step t
and the responsibilities of step t + 1 are two views of one log-joint
matrix (see :func:`sparsemix.model.log_joint`).  Each restart carries
the blocks of that matrix across its steps (:class:`_Blocks`) and
recomputes only those the step changed: a beta step the means, squared
distances and l1 norms, a sigma step the log normalizers, either of
them the log densities, and the weights step only the log weights.
Parameters inside the loop are built by :meth:`MixtureParams._trusted`
and so are unvalidated by construction; the initial parameters and
re-seeded ones are validated, and every block is recomputed from them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .lasso import (
    WeightedLassoProblem,
    _stationarity_violation,
    default_tolerance,
    kkt_residual,
    solve_weighted_lasso,
)
from .model import (
    EmptyClusterError,
    Hyperparams,
    MixtureParams,
    NumericalError,
    SampleSet,
    log_densities,
    log_density_matrix,
    log_joint,
    log_normalizers,
    log_weights,
    logsumexp_rows,
    self_regression_log_likelihood,
    squared_distances,
)

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
    # each block's lasso KKT residual at the final tau, under penalty_weight
    # at that tau (under adaptive lambda that may differ from lams); NaN
    # for an empty cluster
    beta_kkt_residuals: np.ndarray
    cycles_run: int
    converged: bool
    assignments: np.ndarray
    restart_index: int
    reseed_events: list
    lams: np.ndarray    # the l1 weights of the last cycle, behind objective_trace[-1]
    diagnostic: str | None = None


def penalty_weight(hp: Hyperparams, Y: SampleSet, sigma2: float, total_weight: float, target: np.ndarray) -> float:
    """Effective l1 weight for one component's mean update.

    A fixed ``hp.lam`` wins.  The default keys the weight to the noise
    level of the subproblem gradient: the weighted cluster mean carries
    noise of standard deviation sigma / sqrt(s) per coordinate, so the
    gradient coordinate (s / sigma^2) D_j^t m fluctuates with scale
    sqrt(s) ||D_j|| / sigma; the usual sqrt(2 log n) union bound over the
    n coordinates then prunes pure-noise coefficients while leaving
    genuinely aligned data points active, uniformly across dilations.

    The weight is clamped relative to the critical value
    (s / sigma^2) ||D^t m||_inf beyond which the whole block zeroes out.
    Weights near the critical value shrink the fitted mean by a constant
    factor per pass, and while a component's variance estimate is still
    inflated by between-cluster spread this compounds into a drift of
    the mean onto the origin.  For d >= 2 that drift is self-healing:
    the origin is typically unclaimed territory, so a dominated
    component starves and the driver re-seeds it somewhere useful.  On a
    line the origin lies between the groups and keeps claiming points,
    so the drift is a trap and the clamp must be much tighter.
    """
    if hp.lam is not None:
        return hp.lam
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
            out[k] = penalty_weight(hp, Y, sigma2, s, (tau[:, k] @ Y.data) / s)
    return out


def penalized_value(params: MixtureParams, Y: SampleSet, lams: np.ndarray) -> float:
    """Log likelihood minus the per-component weighted l1 penalties."""
    return self_regression_log_likelihood(params, Y) - float(lams @ params.l1_norms())


# ---------------------------------------------------------------------------
# Partial steps
# ---------------------------------------------------------------------------

def _evaluate(params: MixtureParams, Y: SampleSet) -> tuple[np.ndarray, np.ndarray]:
    """Log-joint matrix at ``params`` and its row log-normalizers."""
    return log_joint(log_density_matrix(params, Y), params.weights)


def _responsibilities(logp: np.ndarray, lse: np.ndarray) -> np.ndarray:
    tau = np.exp(logp - lse[:, None])
    if not np.isfinite(tau).all():
        raise NumericalError("responsibilities contain non-finite entries")
    return tau


def e_step(params: MixtureParams, Y: SampleSet) -> np.ndarray:
    """Posterior component memberships, one normalized row per point."""
    return _responsibilities(*_evaluate(params, Y))


def update_weights(tau: np.ndarray) -> np.ndarray:
    """Component weights as mean responsibility mass per column."""
    return tau.sum(axis=0) / tau.shape[0]


def _mass(k: int, tau: np.ndarray, Y: SampleSet) -> float:
    """Column k's responsibility mass; raises when the cluster is empty."""
    s = float(tau[:, k].sum())
    if s <= EMPTY_FRACTION * Y.n:
        raise EmptyClusterError(f"component {k} has responsibility mass {s:.3e}", component=k)
    return s


def update_beta(k: int, params: MixtureParams, tau: np.ndarray, Y: SampleSet, hp: Hyperparams,
                lam: float | None = None) -> np.ndarray:
    """Weighted-lasso update of one coefficient block, warm-started.

    ``lam`` is the block's l1 weight; the sparse loop passes the one it
    fixed for the cycle.  Without it the weight is
    :func:`penalty_weight` at ``tau`` and the current variance.
    """
    s = _mass(k, tau, Y)
    mean = (tau[:, k] @ Y.data) / s
    sigma2 = float(params.variances[k])
    if lam is None:
        lam = penalty_weight(hp, Y, sigma2, s, mean)
    problem = WeightedLassoProblem._trusted(Y.design, mean, s, sigma2, lam, Y.gram)
    # the inner solve must outresolve the outer stopping rule, or the
    # truncation error turns into a perpetual per-cycle objective creep
    tol = default_tolerance(problem) * min(1.0, hp.tol / 1e-8)
    return solve_weighted_lasso(problem, beta_init=params.betas[k], tol=tol).beta


def update_sigma(k: int, params: MixtureParams, tau: np.ndarray, Y: SampleSet, hp: Hyperparams,
                 means: np.ndarray | None = None) -> float:
    """Floored responsibility-weighted mean squared deviation per coordinate.

    ``means``, if given, is ``params.means(Y)``.
    """
    s = _mass(k, tau, Y)
    if means is None:
        means = params.means(Y)
    resid = Y.data - means[k][None, :]
    sq = float(tau[:, k] @ (resid**2).sum(axis=1))
    return max(hp.resolve_floor(Y), sq / (Y.d * s))


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


def choose_init_indices(rng: np.random.Generator, n: int, K: int) -> np.ndarray:
    """K distinct data indices; shared by the sparse and baseline drivers."""
    return rng.choice(n, size=K, replace=False)

def default_sigma2(Y: SampleSet, K: int, floor: float) -> float:
    return max(floor, Y.total_variance() / (Y.d * K))


def indicator_init(Y: SampleSet, K: int, floor: float, rng: np.random.Generator) -> MixtureParams:
    """Sparse warm start: each beta_k indicates one random data point."""
    idx = choose_init_indices(rng, Y.n, K)
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

def _reseed_weights(params, tau: np.ndarray, k: int) -> tuple[int, np.ndarray]:
    """The least committed data point, and the weights with component k bumped.

    The bump matters: a component whose weight underflowed to zero would
    otherwise stay invisible to the next E-step no matter where its mean
    moved.
    """
    weights = params.weights.copy()
    weights[k] = max(weights[k], 1.0 / (2 * params.K))
    weights /= weights.sum()
    return int(np.argmin(tau.max(axis=1))), weights


def _reseed(params: MixtureParams, tau: np.ndarray, k: int, Y: SampleSet, sigma2_default: float) -> MixtureParams:
    """Move component k onto the least committed data point."""
    j, weights = _reseed_weights(params, tau, k)
    betas = params.betas.copy()
    betas[k] = 0.0
    betas[k, j] = 1.0
    variances = params.variances.copy()
    variances[k] = sigma2_default
    return MixtureParams(weights=weights, betas=betas, variances=variances)


def em_loop(Y: SampleSet, params, hp: Hyperparams, order: tuple, step, evaluate, reseed,
            weigh=None, penalty=None):
    """One restart of EM cycling through the partial steps in ``order``.

    Classic EM is the one-step cycle ``(None,)``.  Each step reads its
    responsibilities from the last ``evaluate(params, Y) -> (logp, lse)``
    and returns ``step(params, tau, tag, Y, hp)``.  On EmptyClusterError
    the component is re-seeded by ``reseed(params, tau, k, Y, sigma2)``,
    or the restart aborts after ``MAX_RESEEDS`` re-seeds.

    A penalized fit passes both ``weigh`` and ``penalty``: each cycle
    opens with ``weigh(params, tau, Y, hp)``, which fixes the penalty
    weights of the cycle from its starting ``tau``, and
    ``penalty(params)`` is the penalty under those weights.  Each trace
    entry is ``sum(lse)``, less the penalty if any.  Cycle 1 onward
    converges when its last entry lies within ``hp.tol``, relative, of
    its start value: ``sum(lse)`` less the penalty, both at the start of
    the cycle.  Without a penalty that is the previous cycle's last
    entry, and so it is, bit for bit, under weights that do not move.

    Returns ``(params, trace, cycles_run, converged, tau, reseed_events,
    diagnostic)``; events are ``(cycle, step index, component)``.
    """
    sigma2_init = default_sigma2(Y, params.K, hp.resolve_floor(Y))
    trace: list[float] = []
    reseed_events: list = []
    reseed_counts = [0] * params.K
    diagnostic = None
    converged = False
    cycles_run = 0
    logp, lse = evaluate(params, Y)

    for cycle in range(hp.max_cycles):
        start = trace[-1] if trace else None
        for step_idx, tag in enumerate(order):
            tau = _responsibilities(logp, lse)
            if step_idx == 0 and weigh is not None:
                weigh(params, tau, Y, hp)
                start = float(lse.sum()) - float(penalty(params))
            try:
                params = step(params, tau, tag, Y, hp)
            except EmptyClusterError as err:
                k = err.component
                reseed_counts[k] += 1
                reseed_events.append((cycle, step_idx, k))
                if reseed_counts[k] > MAX_RESEEDS:
                    diagnostic = f"component {k} stayed empty after {MAX_RESEEDS} re-seeds"
                else:
                    params = reseed(params, tau, k, Y, sigma2_init)
            logp, lse = evaluate(params, Y)
            value = float(lse.sum())
            if penalty is not None:
                value -= float(penalty(params))
            trace.append(value)
            if diagnostic is not None:
                break
        if diagnostic is not None:
            break
        cycles_run = cycle + 1
        if cycle >= 1 and abs(trace[-1] - start) <= hp.tol * (1.0 + abs(trace[-1])):
            converged = True
            break

    return params, np.asarray(trace), cycles_run, converged, _responsibilities(logp, lse), reseed_events, diagnostic


def best_restart(Y: SampleSet, K: int, hp: Hyperparams, seed, start, fit, trace: str, *args):
    """The best of ``hp.restarts`` fits by the last entry of their ``trace`` field.

    Restart r starts from ``start(Y, K, floor, rng)``, with ``rng`` on
    the child stream r of ``seed`` (``hp.seed`` when None), and runs
    ``fit(Y, params, hp, *args, restart_index=r)``.  A later restart
    replaces the best only when it is strictly better.
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    if Y.n < K:
        raise ValueError("need at least K data points")
    if seed is None:
        seed = hp.seed
    floor = hp.resolve_floor(Y)
    best = None
    for r in range(hp.restarts):
        params = start(Y, K, floor, np.random.default_rng(restart_seed_seq(seed, r)))
        report = fit(Y, params, hp, *args, restart_index=r)
        if best is None or getattr(report, trace)[-1] > getattr(best, trace)[-1]:
            best = report
    return best


class _Blocks:
    """The model blocks of one restart, carried across its partial steps.

    A partial step replaces one parameter array and shares the other two
    with its input (:meth:`MixtureParams._trusted` stores them as they
    are, read-only), so each block below is recomputed only when the
    array it derives from is a different object:

    - ``betas``: the means ``betas @ Y.data``, the squared distances
      ``sq`` and the l1 norms;
    - ``variances``: the terms ``d * (log 2 pi + log sigma_k^2)``;
    - ``betas`` or ``variances``: the log-density matrix;
    - ``weights``: the log weights.

    Parameters this object did not produce (the initial ones, a
    re-seed) hold fresh arrays, so every block is recomputed from them.
    ``lams`` holds the penalty weights of the current cycle
    (:meth:`weigh`).  One instance serves one restart and is dropped
    with it.
    """

    def __init__(self, Y: SampleSet):
        self.Y = Y
        self.betas = self.variances = self.weights = self.lams = None

    def sync(self, params: MixtureParams) -> None:
        """Recompute the blocks whose source array ``params`` replaced."""
        Y = self.Y
        fresh = False
        if params.betas is not self.betas:
            self.betas = params.betas
            self.means = params.means(Y)
            self.sq = squared_distances(Y.data, self.means)
            self.l1 = params.l1_norms()
            fresh = True
        if params.variances is not self.variances:
            self.variances = params.variances
            self.norms = log_normalizers(Y.d, params.variances)
            fresh = True
        if fresh:
            self.log_dens = log_densities(self.norms, self.sq, self.variances)
        if params.weights is not self.weights:
            self.weights = params.weights
            self.log_w = log_weights(params.weights)

    def evaluate(self, params: MixtureParams, Y: SampleSet) -> tuple[np.ndarray, np.ndarray]:
        """What :func:`_evaluate` returns, from the carried blocks."""
        self.sync(params)
        logp = self.log_dens + self.log_w[None, :]
        return logp, logsumexp_rows(logp)

    def step(self, params: MixtureParams, tau: np.ndarray, tag: tuple[str, int], Y: SampleSet,
             hp: Hyperparams) -> MixtureParams:
        """One partial step of the sparse cycle: the weights, one beta_k or one sigma_k."""
        kind, k = tag
        if kind == "weights":
            return MixtureParams._trusted(update_weights(tau), params.betas, params.variances)
        if kind == "beta":
            betas = params.betas.copy()
            betas[k] = update_beta(k, params, tau, Y, hp, lam=float(self.lams[k]))
            return MixtureParams._trusted(params.weights, betas, params.variances)
        self.sync(params)  # a no-op in em_loop, which evaluated params last
        variances = params.variances.copy()
        variances[k] = update_sigma(k, params, tau, Y, hp, means=self.means)
        return MixtureParams._trusted(params.weights, params.betas, variances)

    def weigh(self, params: MixtureParams, tau: np.ndarray, Y: SampleSet, hp: Hyperparams) -> None:
        """Fix the cycle's penalty weights at its starting ``tau``."""
        self.lams = effective_lams(params, tau, Y, hp)

    def penalty(self, params: MixtureParams) -> float:
        """The l1 term of :func:`penalized_value` under the cycle's weights."""
        self.sync(params)
        return self.lams @ self.l1


def _fit_once(
    Y: SampleSet,
    params: MixtureParams,
    hp: Hyperparams,
    order: tuple,
    restart_index: int,
) -> FitReport:
    """One restart from ``params``, cycling through the partial steps in ``order``.

    :func:`run` passes the fixed order ``("weights", -1)``, ``("beta", k)``
    for each k, then ``("sigma", k)`` for each k.
    """
    blocks = _Blocks(Y)
    params, trace, cycles_run, converged, tau, reseed_events, diagnostic = em_loop(
        Y, params, hp, order, blocks.step, blocks.evaluate, _reseed, blocks.weigh, blocks.penalty
    )
    return FitReport(
        params=params,
        objective_trace=trace,
        beta_kkt_residuals=_subproblem_residuals(params, tau, Y, hp),
        cycles_run=cycles_run,
        converged=converged,
        assignments=np.argmax(tau, axis=1),
        restart_index=restart_index,
        reseed_events=reseed_events,
        lams=blocks.lams,
        diagnostic=diagnostic,
    )


def _subproblem_residuals(params: MixtureParams, tau: np.ndarray, Y: SampleSet, hp: Hyperparams) -> np.ndarray:
    """Lasso stationarity residual of each beta block at the final tau; NaN for an empty cluster."""
    out = np.full(params.K, np.nan)
    for k, sigma2 in enumerate(params.variances.tolist()):
        s = float(tau[:, k].sum())
        if s <= EMPTY_FRACTION * Y.n:
            continue
        mean = (tau[:, k] @ Y.data) / s
        problem = WeightedLassoProblem(
            design=Y.design, target=mean, total_weight=s, sigma2=sigma2,
            lam=penalty_weight(hp, Y, sigma2, s, mean), gram=Y.gram,
        )
        out[k] = kkt_residual(problem, params.betas[k])
    return out


def run(
    Y: SampleSet,
    K: int,
    hp: Hyperparams,
    init: MixtureParams | None = None,
    seed=None,
) -> FitReport:
    """Fit a K-component model; returns the best restart by final objective.

    With ``init`` given, a single fit runs from that parameter vector and
    the restart budget is ignored.  ``seed`` overrides ``hp.seed`` and
    may be an int or a ``numpy.random.SeedSequence``; restart r draws its
    initialization from an independent child stream, so fits are
    reproducible bit for bit.
    """
    order = (("weights", -1),) + tuple(("beta", k) for k in range(K)) + tuple(("sigma", k) for k in range(K))
    start = indicator_init
    if init is not None:
        if init.K != K or init.betas.shape[1] != Y.n:
            raise ValueError("init has inconsistent shape")
        hp, start = replace(hp, restarts=1), lambda *_: init
    return best_restart(Y, K, hp, seed, start, _fit_once, "objective_trace", order)


# ---------------------------------------------------------------------------
# Stationarity certification
# ---------------------------------------------------------------------------

def beta_gradient(params: MixtureParams, Y: SampleSet, k: int) -> np.ndarray:
    """Gradient of the unpenalized log likelihood in the beta_k block."""
    return _beta_gradient(k, params, e_step(params, Y), params.means(Y), Y)


def _beta_gradient(k: int, params: MixtureParams, tau: np.ndarray, mu: np.ndarray, Y: SampleSet) -> np.ndarray:
    """:func:`beta_gradient` from the responsibilities ``tau`` and means ``mu`` at ``params``."""
    s = float(tau[:, k].sum())
    weighted_resid = Y.data.T @ tau[:, k] - s * mu[k]
    return (Y.data @ weighted_resid) / float(params.variances[k])


def stationarity_report(report: FitReport, Y: SampleSet, hp: Hyperparams):
    """First-order certificate for each beta block of a finished fit.

    Returns ``(residuals, scales)``, both shape (K,).  residuals[k] is
    the distance from 0 to the beta_k gradient of the penalized log
    likelihood (subdifferential of the l1 term included); scales[k] is a
    crude upper bound on the gradient magnitude, suitable for relative
    comparisons.  The penalty weight is :func:`penalty_weight` at the
    final responsibilities.  Blocks whose responsibility mass there is at
    most ``EMPTY_FRACTION * n``, the driver's own test for an empty
    cluster, sit at an active boundary constraint where this certificate
    does not apply; they are skipped and reported as NaN, as in
    ``FitReport.beta_kkt_residuals``.
    """
    params = report.params
    tau = e_step(params, Y)
    mu = params.means(Y)
    residuals = np.full(params.K, np.nan)
    scales = np.full(params.K, np.nan)
    for k, sigma2 in enumerate(params.variances.tolist()):
        s = float(tau[:, k].sum())
        if s <= EMPTY_FRACTION * Y.n:
            continue
        lam = penalty_weight(hp, Y, sigma2, s, (tau[:, k] @ Y.data) / s)
        grad = _beta_gradient(k, params, tau, mu, Y)
        residuals[k] = _stationarity_violation(-grad, params.betas[k], lam)
        resid_mass = float(tau[:, k] @ np.linalg.norm(Y.data - mu[k][None, :], axis=1))
        scales[k] = Y.max_row_norm * resid_mass / sigma2 + lam
    return residuals, scales
