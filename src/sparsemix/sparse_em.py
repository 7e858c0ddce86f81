"""Space-alternating EM driver for the l1-penalized self-regression mixture.

One full cycle refreshes the responsibilities before every partial step
and updates exactly one parameter block per step, in the order

    weights, beta_1 .. beta_K, sigma_1 .. sigma_K.

Each partial step maximizes the EM surrogate over its block (the beta
step through the weighted lasso), so the penalized objective never
decreases along the trace when the penalty weight is held fixed.
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
them the log densities, and the weights step only the log weights.  The
column statistics of each responsibility matrix (:class:`ColumnStats`)
are computed once and shared by the step and the trace's penalty.
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
DEGENERATE_WEIGHT = 1e-12
MAX_PENALTY_FRACTION = 0.5      # ratchet guard, see penalty_weight
LINE_PENALTY_FRACTION = 0.2     # tighter guard for 1-d data, see penalty_weight


@dataclass(frozen=True)
class CycleSchedule:
    """Order of partial steps within one cycle.

    Entries are ("weights", -1), ("beta", k) or ("sigma", k); a valid
    cycle holds the weights step once and each beta/sigma block exactly
    once, 1 + 2K steps in total.
    """

    order: tuple[tuple[str, int], ...]

    def __post_init__(self):
        kinds = {}
        for tag in self.order:
            if not (isinstance(tag, tuple) and len(tag) == 2):
                raise ValueError(f"malformed schedule entry {tag!r}")
            kinds.setdefault(tag[0], []).append(tag[1])
        if kinds.get("weights") != [-1]:
            raise ValueError("schedule must contain the weights step exactly once")
        ks = sorted(kinds.get("beta", []))
        if ks != sorted(kinds.get("sigma", [])) or ks != list(range(len(ks))) or not ks:
            raise ValueError("schedule must contain beta(k) and sigma(k) once per component")

    @property
    def K(self) -> int:
        return (len(self.order) - 1) // 2

    @classmethod
    def default(cls, K: int) -> "CycleSchedule":
        order = [("weights", -1)]
        order += [("beta", k) for k in range(K)]
        order += [("sigma", k) for k in range(K)]
        return cls(order=tuple(order))


@dataclass
class FitReport:
    """Outcome of one driver invocation (best restart)."""

    params: MixtureParams
    objective_trace: np.ndarray
    beta_kkt_residuals: np.ndarray
    cycles_run: int
    converged: bool
    assignments: np.ndarray
    restart_index: int
    reseed_events: list
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


class ColumnStats:
    """What the partial steps read of one responsibility matrix, computed once.

    For the (n, K) matrix ``tau``: ``s[k]``, the mass of column k, and
    :meth:`mean`, the responsibility-weighted mean m_k = (tau[:, k] @
    Y.data) / s_k, built per column on first use (a batched product
    would change its last bits).  :func:`update_beta`,
    :func:`update_sigma` and :func:`effective_lams` share one instance
    when they read the same ``tau``.
    """

    __slots__ = ("tau", "Y", "s", "_means")

    def __init__(self, tau: np.ndarray, Y: SampleSet):
        self.tau = tau
        self.Y = Y
        # summing contiguous rows of tau.T matches tau[:, k].sum() bit for bit
        self.s = np.ascontiguousarray(tau.T).sum(axis=1).tolist()
        self._means = [None] * len(self.s)

    def mean(self, k: int) -> np.ndarray:
        m = self._means[k]
        if m is None:
            m = self._means[k] = (self.tau[:, k] @ self.Y.data) / self.s[k]
        return m

    def lam(self, k: int, sigma2: float, hp: Hyperparams) -> float:
        """:func:`penalty_weight` of component k at variance ``sigma2``."""
        return penalty_weight(hp, self.Y, sigma2, self.s[k], self.mean(k))


def effective_lams(params: MixtureParams, tau: np.ndarray, Y: SampleSet, hp: Hyperparams,
                   stats: ColumnStats | None = None) -> np.ndarray:
    """Per-component penalty weights at the current parameters.

    ``stats``, if given, holds the :class:`ColumnStats` of ``tau``.
    """
    if hp.lam is not None:
        return np.full(params.K, float(hp.lam))
    if stats is None:
        stats = ColumnStats(tau, Y)
    empty = EMPTY_FRACTION * Y.n
    out = np.empty(params.K)
    for k, (sigma2, s) in enumerate(zip(params.variances.tolist(), stats.s)):
        out[k] = 0.0 if s <= empty else stats.lam(k, sigma2, hp)
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


def _mass(k: int, stats: ColumnStats, Y: SampleSet) -> float:
    """Column k's responsibility mass; raises when the cluster is empty."""
    s = stats.s[k]
    if s <= EMPTY_FRACTION * Y.n:
        raise EmptyClusterError(f"component {k} has responsibility mass {s:.3e}", component=k)
    return s


def update_beta(k: int, params: MixtureParams, tau: np.ndarray, Y: SampleSet, hp: Hyperparams,
                stats: ColumnStats | None = None) -> np.ndarray:
    """Weighted-lasso update of one coefficient block, warm-started.

    ``stats``, if given, holds the :class:`ColumnStats` of ``tau``.
    """
    if stats is None:
        stats = ColumnStats(tau, Y)
    s = _mass(k, stats, Y)
    sigma2 = float(params.variances[k])
    problem = WeightedLassoProblem._trusted(Y.design, stats.mean(k), s, sigma2, stats.lam(k, sigma2, hp), Y.gram)
    # the inner solve must outresolve the outer stopping rule, or the
    # truncation error turns into a perpetual per-cycle objective creep
    tol = default_tolerance(problem) * min(1.0, hp.tol / 1e-8)
    return solve_weighted_lasso(problem, beta_init=params.betas[k], tol=tol).beta


def update_sigma(k: int, params: MixtureParams, tau: np.ndarray, Y: SampleSet, hp: Hyperparams,
                 stats: ColumnStats | None = None, means: np.ndarray | None = None) -> float:
    """Floored responsibility-weighted mean squared deviation per coordinate.

    ``stats``, if given, holds the :class:`ColumnStats` of ``tau``, and
    ``means``, if given, ``params.means(Y)``.
    """
    s = _mass(k, ColumnStats(tau, Y) if stats is None else stats, Y)
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


def em_loop(Y: SampleSet, params, hp: Hyperparams, order: tuple, step, evaluate, reseed, penalty=None):
    """One restart of EM cycling through the partial steps in ``order``.

    Classic EM is the one-step cycle ``(None,)``.  Each step reads its
    responsibilities from the last ``evaluate(params, Y) -> (logp, lse)``
    and returns ``step(params, tau, tag, Y, hp)``.  On EmptyClusterError
    the component is re-seeded by ``reseed(params, tau, k, Y, sigma2)``,
    or the restart aborts after ``MAX_RESEEDS`` re-seeds.  Each trace
    entry is ``sum(lse)``, less ``penalty(params, tau, Y, hp)`` if given;
    the fit converges when a cycle moves it by at most ``hp.tol``, relative.

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
        for step_idx, tag in enumerate(order):
            tau = _responsibilities(logp, lse)
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
                value -= float(penalty(params, tau, Y, hp))
            trace.append(value)
            if diagnostic is not None:
                break
        if diagnostic is not None:
            break
        cycles_run = cycle + 1
        if cycle >= 1 and abs(trace[-1] - trace[-1 - len(order)]) <= hp.tol * (1.0 + abs(trace[-1])):
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
    The :class:`ColumnStats` of the latest responsibilities are kept the
    same way, keyed by the identity of ``tau``.  One instance serves one
    restart and is dropped with it.
    """

    def __init__(self, Y: SampleSet):
        self.Y = Y
        self.betas = self.variances = self.weights = self.tau = None

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

    def stats(self, tau: np.ndarray) -> ColumnStats:
        if tau is not self.tau:
            self.tau = tau
            self.column_stats = ColumnStats(tau, self.Y)
        return self.column_stats

    def step(self, params: MixtureParams, tau: np.ndarray, tag: tuple[str, int], Y: SampleSet,
             hp: Hyperparams) -> MixtureParams:
        """One partial step of the sparse cycle: the weights, one beta_k or one sigma_k."""
        kind, k = tag
        if kind == "weights":
            return MixtureParams._trusted(update_weights(tau), params.betas, params.variances)
        if kind == "beta":
            new = update_beta(k, params, tau, Y, hp, stats=self.stats(tau))
            if hp.relax < 1.0:
                new = hp.relax * new + (1.0 - hp.relax) * params.betas[k]
            betas = params.betas.copy()
            betas[k] = new
            return MixtureParams._trusted(params.weights, betas, params.variances)
        self.sync(params)  # a no-op in em_loop, which evaluated params last
        new = update_sigma(k, params, tau, Y, hp, stats=self.stats(tau), means=self.means)
        if hp.relax < 1.0:
            new = hp.relax * new + (1.0 - hp.relax) * float(params.variances[k])
        variances = params.variances.copy()
        variances[k] = new
        return MixtureParams._trusted(params.weights, params.betas, variances)

    def penalty(self, params: MixtureParams, tau: np.ndarray, Y: SampleSet, hp: Hyperparams) -> float:
        """The l1 term of :func:`penalized_value` under the lambdas in force at ``tau``."""
        self.sync(params)
        return effective_lams(params, tau, Y, hp, stats=self.stats(tau)) @ self.l1


def _fit_once(
    Y: SampleSet,
    params: MixtureParams,
    hp: Hyperparams,
    schedule: CycleSchedule,
    restart_index: int,
) -> FitReport:
    blocks = _Blocks(Y)
    params, trace, cycles_run, converged, tau, reseed_events, diagnostic = em_loop(
        Y, params, hp, schedule.order, blocks.step, blocks.evaluate, _reseed, blocks.penalty
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
        diagnostic=diagnostic,
    )


def _subproblem_residuals(params: MixtureParams, tau: np.ndarray, Y: SampleSet, hp: Hyperparams) -> np.ndarray:
    """Lasso stationarity residual of each beta block at the final tau."""
    stats = ColumnStats(tau, Y)
    out = np.full(params.K, np.nan)
    for k, (sigma2, s) in enumerate(zip(params.variances.tolist(), stats.s)):
        if s <= EMPTY_FRACTION * Y.n:
            continue
        problem = WeightedLassoProblem(
            design=Y.design, target=stats.mean(k), total_weight=s, sigma2=sigma2, lam=stats.lam(k, sigma2, hp),
            gram=Y.gram,
        )
        out[k] = kkt_residual(problem, params.betas[k])
    return out


def run(
    Y: SampleSet,
    K: int,
    hp: Hyperparams,
    init: MixtureParams | None = None,
    seed=None,
    schedule: CycleSchedule | None = None,
) -> FitReport:
    """Fit a K-component model; returns the best restart by final objective.

    With ``init`` given, a single fit runs from that parameter vector and
    the restart budget is ignored.  ``seed`` overrides ``hp.seed`` and
    may be an int or a ``numpy.random.SeedSequence``; restart r draws its
    initialization from an independent child stream, so fits are
    reproducible bit for bit.
    """
    if schedule is None:
        schedule = CycleSchedule.default(K)
    if schedule.K != K:
        raise ValueError("schedule does not match K")
    start = indicator_init
    if init is not None:
        if init.K != K or init.betas.shape[1] != Y.n:
            raise ValueError("init has inconsistent shape")
        hp, start = replace(hp, restarts=1), lambda *_: init
    return best_restart(Y, K, hp, seed, start, _fit_once, "objective_trace", schedule)


# ---------------------------------------------------------------------------
# Stationarity certification
# ---------------------------------------------------------------------------

def beta_gradient(params: MixtureParams, Y: SampleSet, k: int) -> np.ndarray:
    """Gradient of the unpenalized log likelihood in the beta_k block."""
    tau = e_step(params, Y)
    s = float(tau[:, k].sum())
    mu_k = params.means(Y)[k]
    weighted_resid = Y.data.T @ tau[:, k] - s * mu_k
    return (Y.data @ weighted_resid) / float(params.variances[k])


def stationarity_report(report: FitReport, Y: SampleSet, hp: Hyperparams):
    """First-order certificate for each beta block of a finished fit.

    Returns ``(residuals, scales)``, both shape (K,).  residuals[k] is
    the distance from 0 to the beta_k gradient of the penalized log
    likelihood (subdifferential of the l1 term included); scales[k] is a
    crude upper bound on the gradient magnitude, suitable for relative
    comparisons.  Blocks whose fitted weight is numerically zero sit at
    an active boundary constraint where this certificate does not apply;
    they are skipped and reported as NaN.
    """
    params = report.params
    tau = e_step(params, Y)
    stats = ColumnStats(tau, Y)
    mu = params.means(Y)
    residuals = np.full(params.K, np.nan)
    scales = np.full(params.K, np.nan)
    for k, (sigma2, s) in enumerate(zip(params.variances.tolist(), stats.s)):
        if params.weights[k] < DEGENERATE_WEIGHT:
            continue
        lam = stats.lam(k, sigma2, hp) if s > 0 else penalty_weight(hp, Y, sigma2, s, np.zeros(Y.d))
        grad = beta_gradient(params, Y, k)
        residuals[k] = _stationarity_violation(-grad, params.betas[k], lam)
        resid_mass = float(tau[:, k] @ np.linalg.norm(Y.data - mu[k][None, :], axis=1))
        scales[k] = Y.max_row_norm * resid_mass / sigma2 + lam
    return residuals, scales
