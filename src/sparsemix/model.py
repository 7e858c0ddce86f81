"""Core types and objectives for self-regressed spherical Gaussian mixtures.

Model: each observation Y_i in R^d is drawn from

    sum_k  pi_k * N(mu_k, sigma_k^2 * I_d)

with every cluster mean constrained to the span of the centered data,

    mu_k = Y beta_k,

where Y is the d x n matrix whose columns are the observations and
beta_k in R^n is a coefficient vector.  Sparsity of the beta_k is
encouraged elsewhere by an l1 penalty; this module holds the parameter
containers and the objective functions every other module evaluates.

All likelihood arithmetic is done in log space with per-row max shifts,
so dimensions up to a few hundred do not underflow.

The log-joint matrix ``logp[i, k] = log pi_k + log N(y_i; Y beta_k,
sigma_k^2 I)`` and its row log-normalizers ``lse`` (:func:`log_joint`)
carry everything a partial step needs: ``sum(lse)`` is the mixture log
likelihood and ``exp(logp - lse[:, None])`` the responsibilities.  The
EM loop that both estimators share (:func:`sparsemix.sparse_em.em_loop`)
evaluates this pair once per partial step and reads both views from it.
The log densities are composed of blocks (:func:`squared_distances`,
:func:`log_normalizers`, :func:`log_densities`, and :func:`log_weights`
for the joint) that depend on one parameter array each, so the EM
loop carries them across its partial steps and recomputes only the
blocks a step changed.
Inside the loop's steps parameters are rebuilt through
:meth:`MixtureParams._trusted`, unvalidated by construction; parameters
built outside them (user input, initialization, re-seeding) are
validated.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

CENTERING_TOL = 1e-10
WEIGHT_SUM_TOL = 1e-12

LOG_2PI = math.log(2.0 * math.pi)


class EmptyClusterError(RuntimeError):
    """A cluster carries (numerically) zero responsibility mass."""

    def __init__(self, message: str, component: int | None = None):
        super().__init__(message)
        self.component = component


class NumericalError(RuntimeError):
    """A computation produced non-finite intermediates."""


def _as_float_array(x, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


@dataclass(frozen=True)
class SampleSet:
    """Centered data matrix with the centering offset retained.

    ``data`` has one observation per row, shape (n, d); the column means
    are zero to within 1e-10 times the data scale, max(1, max|data|,
    max|center_offset|).  ``center_offset`` is the mean that was
    subtracted, so fitted quantities can be mapped back to the original
    coordinates via :meth:`uncenter`.  ``max_row_norm`` is the largest
    Euclidean norm of an observation (a design column); it and
    :meth:`total_variance` are computed once, and :attr:`gram` on first
    use.
    """

    data: np.ndarray
    center_offset: np.ndarray
    max_row_norm: float = field(init=False, repr=False, compare=False)
    _total_variance: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        data = _as_float_array(self.data, "data")
        offset = _as_float_array(self.center_offset, "center_offset")
        if data.ndim != 2 or data.shape[0] < 1 or data.shape[1] < 1:
            raise ValueError("data must be a non-empty 2-d array (n, d)")
        if offset.shape != (data.shape[1],):
            raise ValueError("center_offset must have shape (d,)")
        # rounding in the mean grows with the coordinates, so the
        # tolerance does too
        scale = max(1.0, float(np.max(np.abs(data))), float(np.max(np.abs(offset))))
        if np.max(np.abs(data.mean(axis=0))) > CENTERING_TOL * scale:
            raise ValueError("data is not centered: column means exceed 1e-10 times the data scale")
        data = data.copy()
        data.setflags(write=False)
        offset = offset.copy()
        offset.setflags(write=False)
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "center_offset", offset)
        with np.errstate(over="ignore"):  # an overflow is rejected below, by name
            sq_norms = np.sum(data**2, axis=1)
            max_sq, mean_sq = float(np.max(sq_norms)), float(np.mean(sq_norms))
        if not (math.isfinite(max_sq) and math.isfinite(mean_sq)):
            raise ValueError("squared norms of the centered data overflow; the coordinates are too large")
        object.__setattr__(self, "max_row_norm", math.sqrt(max_sq))
        object.__setattr__(self, "_total_variance", mean_sq)

    @classmethod
    def from_points(cls, points) -> "SampleSet":
        """Center raw observations (rows) and keep the subtracted mean.

        Centering runs twice so the residual column means stay within the
        relative 1e-10 invariant even for large coordinate scales.
        """
        pts = _as_float_array(points, "points")
        if pts.ndim != 2 or pts.shape[0] < 1 or pts.shape[1] < 1:
            raise ValueError("points must be a non-empty 2-d array (n, d)")
        offset = pts.mean(axis=0)
        centered = pts - offset
        resid = centered.mean(axis=0)
        centered -= resid
        return cls(data=centered, center_offset=offset + resid)

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def d(self) -> int:
        return self.data.shape[1]

    @property
    def design(self) -> np.ndarray:
        """The d x n matrix whose columns are the (centered) observations."""
        return self.data.T

    def uncenter(self, vectors: np.ndarray) -> np.ndarray:
        """Map centered-coordinate vectors back to original coordinates."""
        return np.asarray(vectors, dtype=float) + self.center_offset

    def total_variance(self) -> float:
        """Mean squared norm of the centered observations."""
        return self._total_variance

    @cached_property
    def gram(self) -> "Gram":
        """Inner products of the observations, ``data @ data.T``, built once."""
        return Gram.of(self.design, col_max=self.max_row_norm)


@dataclass(frozen=True)
class Gram:
    """The Gram matrix ``D^T D`` of a d x n design and what the lasso reads of it.

    Every weighted lasso on one design shares these constants: the
    read-only n x n ``matrix``; ``col_max``, the largest column norm;
    the squared column norms ``diag`` as floats; the indices of the
    nonzero (``live``) and zero (``dead``) columns; and the matrix
    ``columns`` split out once.
    """

    matrix: np.ndarray
    col_max: float
    diag: tuple = field(init=False, repr=False, compare=False)
    live: tuple = field(init=False, repr=False, compare=False)
    dead: tuple = field(init=False, repr=False, compare=False)
    columns: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.matrix.setflags(write=False)
        diag = tuple(np.diag(self.matrix).tolist())
        object.__setattr__(self, "diag", diag)
        object.__setattr__(self, "live", tuple(j for j, x in enumerate(diag) if not x <= 0.0))
        object.__setattr__(self, "dead", tuple(j for j, x in enumerate(diag) if x <= 0.0))
        object.__setattr__(self, "columns", tuple(self.matrix.T))

    @classmethod
    def of(cls, design: np.ndarray, col_max: float | None = None) -> "Gram":
        """Build from the design; ``col_max`` is computed unless given."""
        D = np.asarray(design, dtype=float)
        if col_max is None:
            col_max = float(np.sqrt(np.max(np.sum(D**2, axis=0), initial=0.0)))
        return cls(D.T @ D, col_max)


def default_variance_floor(Y: SampleSet) -> float:
    """Smallest admissible per-component variance for this dataset.

    Unpenalized mixture likelihoods are unbounded at degenerate
    variances; a floor of 1e-4 of the per-coordinate sample variance
    keeps every iterate away from that failure mode.
    """
    floor = 1e-4 * Y.total_variance() / Y.d
    return max(floor, 1e-300)


@dataclass(frozen=True)
class MixtureParams:
    """Full parameter vector (weights, betas, variances).

    Means are never stored: ``mu_k = Y beta_k`` is realized on demand by
    :meth:`means`.  ``betas`` has shape (K, n), one coefficient row per
    component.
    """

    weights: np.ndarray
    betas: np.ndarray
    variances: np.ndarray

    def __post_init__(self):
        w = _as_float_array(self.weights, "weights")
        b = _as_float_array(self.betas, "betas")
        v = _as_float_array(self.variances, "variances")
        if w.ndim != 1 or w.size < 1:
            raise ValueError("weights must be a non-empty vector")
        K = w.size
        if b.ndim != 2 or b.shape[0] != K:
            raise ValueError("betas must have shape (K, n)")
        if v.shape != (K,):
            raise ValueError("variances must have shape (K,)")
        if np.any(w < 0):
            raise ValueError("weights must be non-negative")
        if abs(w.sum() - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError("weights must sum to 1 within 1e-12")
        if np.any(v <= 0):
            raise ValueError("variances must be positive")
        for name, arr in (("weights", w), ("betas", b), ("variances", v)):
            arr = arr.copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @classmethod
    def _trusted(cls, weights: np.ndarray, betas: np.ndarray, variances: np.ndarray) -> "MixtureParams":
        """Build without validation from float arrays no one else writes to.

        For the fitting loops, whose updates keep every invariant checked
        by ``__post_init__`` by construction.  The arrays are frozen
        read-only in place rather than copied.
        """
        self = object.__new__(cls)
        for name, arr in (("weights", weights), ("betas", betas), ("variances", variances)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        return self

    @property
    def K(self) -> int:
        return self.weights.size

    @property
    def n(self) -> int:
        return self.betas.shape[1]

    def means(self, Y: SampleSet) -> np.ndarray:
        """Realized component means, shape (K, d)."""
        return self.betas @ Y.data

    def l1_norms(self) -> np.ndarray:
        """Per-component l1 norm of the coefficient rows."""
        return np.abs(self.betas).sum(axis=1)

    def permuted(self, perm) -> "MixtureParams":
        """Relabel components by ``perm`` (new index -> old index)."""
        idx = np.asarray(perm, dtype=int)
        return MixtureParams(
            weights=self.weights[idx],
            betas=self.betas[idx],
            variances=self.variances[idx],
        )


def as_int(name: str, value) -> int:
    """``value`` as an int when it is one (numpy integers included); ValueError otherwise."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


@dataclass(frozen=True)
class Hyperparams:
    """Fitting configuration shared by the sparse and baseline drivers.

    ``lam`` is the sparse driver's l1 penalty weight, finite and >= 0;
    ``None`` selects the per-cluster default heuristic (see
    :func:`sparsemix.sparse_em.penalty_weight`).  The baseline runs the
    same loop with ``lam`` held at 0, whatever is given.  A restart
    stops after ``max_cycles`` cycles, or earlier once one cycle moves
    its objective by at most ``tol``, relative.  ``variance_floor`` is
    finite and positive; ``None`` derives it from the data via
    :func:`default_variance_floor`.  The best of ``restarts`` random
    starts is kept; ``seed`` (>= 0) seeds their streams.
    """

    lam: float | None = None
    max_cycles: int = 200
    tol: float = 1e-8
    variance_floor: float | None = None
    restarts: int = 5
    seed: int = 0

    def __post_init__(self):
        for name in ("max_cycles", "restarts", "seed"):
            as_int(name, getattr(self, name))
        if self.lam is not None and not (0 <= self.lam < math.inf):
            raise ValueError(f"lam must be finite and >= 0, got {self.lam!r}")
        if self.max_cycles < 1:
            raise ValueError("max_cycles must be >= 1")
        if not (self.tol > 0):
            raise ValueError("tol must be positive")
        if self.variance_floor is not None and not (0 < self.variance_floor < math.inf):
            raise ValueError(f"variance_floor must be finite and positive, got {self.variance_floor!r}")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")

    def resolve_floor(self, Y: SampleSet) -> float:
        return self.variance_floor if self.variance_floor is not None else default_variance_floor(Y)


# ---------------------------------------------------------------------------
# Objective functions
# ---------------------------------------------------------------------------

def component_log_density(y, beta, sigma2: float, Y: SampleSet) -> float:
    """Log of one spherical Gaussian component at ``y`` with mean Y beta.

    Returns -(d/2) log(2 pi sigma2) - ||y - Y beta||^2 / (2 sigma2).
    """
    yv = _as_float_array(y, "y")
    bv = _as_float_array(beta, "beta")
    if not (np.isfinite(sigma2) and sigma2 > 0):
        raise ValueError("sigma2 must be positive and finite")
    if yv.shape != (Y.d,) or bv.shape != (Y.n,):
        raise ValueError("y must have shape (d,), beta shape (n,)")
    resid = yv - bv @ Y.data
    return float(-0.5 * Y.d * (LOG_2PI + math.log(sigma2)) - resid @ resid / (2.0 * sigma2))


def squared_distances(X: np.ndarray, means: np.ndarray) -> np.ndarray:
    """(n, K) matrix of squared distances from each row of ``X`` to each mean."""
    diff = X[:, None, :] - means[None, :, :]
    return np.einsum("nkd,nkd->nk", diff, diff)


def log_normalizers(d: int, variances: np.ndarray) -> np.ndarray:
    """Per-component term ``d * (log 2 pi + log sigma_k^2)`` of the log density."""
    return d * (LOG_2PI + np.log(variances))


def log_densities(norms: np.ndarray, sq: np.ndarray, variances: np.ndarray) -> np.ndarray:
    """Log densities from :func:`log_normalizers` and :func:`squared_distances`."""
    return -0.5 * (norms[None, :] + sq / variances[None, :])


def spherical_log_density_matrix(X: np.ndarray, means: np.ndarray, variances: np.ndarray) -> np.ndarray:
    """Per-point, per-component spherical Gaussian log densities.

    ``X`` is (n, d), ``means`` is (K, d), ``variances`` is (K,).  Returns
    an (n, K) matrix, the composition of the three blocks above.  The
    EM loop carries those blocks across partial steps and refreshes
    them one by one, for both estimators: the baseline fits on
    :class:`MixtureParams` too, with means ``Y beta_k``.  This
    composition serves :func:`log_density_matrix` and the evaluation
    of the baseline's reported explicit means.
    """
    return log_densities(log_normalizers(X.shape[1], variances), squared_distances(X, means), variances)


def log_density_matrix(params: MixtureParams, Y: SampleSet) -> np.ndarray:
    """(n, K) matrix of component log densities at the realized means."""
    return spherical_log_density_matrix(Y.data, params.means(Y), params.variances)


def log_weights(weights: np.ndarray) -> np.ndarray:
    """``log(weights)``, with log 0 = -inf and no warning."""
    with np.errstate(divide="ignore"):
        return np.log(weights)


def logsumexp_rows(a: np.ndarray) -> np.ndarray:
    """``log(sum(exp(a), axis=1))`` for a real 2-d array, stably.

    Same arithmetic, step for step, as ``scipy.special.logsumexp(a,
    axis=1)`` on real input, so results agree bit for bit: the terms tied
    at the row max are counted instead of exponentiated, and rows whose
    shifted result is not finite (all -inf, or an inf/nan entry) fall
    back to the direct formula.  When every row max is finite and
    attained once, the tie count is 1, so dividing by it and adding its
    log (0) change nothing and are skipped, and no operation can warn.
    """
    a_max = a.max(axis=1, keepdims=True)
    tie = a == a_max
    if np.isfinite(a_max).all() and np.count_nonzero(tie) == a.shape[0]:
        return np.log1p(np.exp(np.where(tie, -np.inf, a - a_max)).sum(axis=1)) + a_max[:, 0]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        m = tie.sum(axis=1, keepdims=True, dtype=a.dtype)
        s = np.exp(np.where(tie, -np.inf, a) - a_max).sum(axis=1, keepdims=True)
        s = np.where(s == 0, s, s / m)
        out = (np.log1p(s) + np.log(m) + a_max)[:, 0]
        finite = np.isfinite(out)
        if not finite.all():
            out = np.where(finite, out, np.log(np.exp(a).sum(axis=1)))
    return out


def log_joint(log_dens: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Log-joint matrix ``logp = log_dens + log weights`` and its row log-normalizers.

    ``sum(lse)`` is the mixture log likelihood and ``exp(logp - lse[:,
    None])`` the responsibilities, so one evaluation serves both.
    """
    logp = log_dens + log_weights(weights)[None, :]
    return logp, logsumexp_rows(logp)


def log_responsibilities(params: MixtureParams, Y: SampleSet) -> np.ndarray:
    """Row-normalized log posteriors at ``params``."""
    logp, lse = log_joint(log_density_matrix(params, Y), params.weights)
    return logp - lse[:, None]


def self_regression_log_likelihood(params: MixtureParams, Y: SampleSet) -> float:
    """Mixture log likelihood with means realized as Y beta_k."""
    return float(np.sum(log_joint(log_density_matrix(params, Y), params.weights)[1]))


def penalized_value(params: MixtureParams, Y: SampleSet, lams) -> float:
    """Log likelihood minus ``sum_k lams[k] * ||beta_k||_1``, one l1 weight per component."""
    lams = np.asarray(lams, dtype=float)
    if lams.shape != (params.K,):
        raise ValueError(f"lams must have shape ({params.K},), got {lams.shape}")
    if not np.all(lams >= 0):
        raise ValueError("lams must be >= 0")
    return self_regression_log_likelihood(params, Y) - float(lams @ params.l1_norms())


def q_function(params: MixtureParams, tau: np.ndarray, Y: SampleSet) -> float:
    """EM surrogate objective in proximal form.

    Expected complete-data log likelihood under ``tau`` plus the entropy
    of ``tau``:

        sum_{i,k} tau_ik [log pi_k + log N_ik]  -  sum_{i,k} tau_ik log tau_ik

    The entropy term is constant in the parameters, so block maximizers
    are unchanged, and it makes the exact decomposition

        q_function(theta, tau(theta_bar)) + kullback_penalty(theta, theta_bar)
            = self_regression_log_likelihood(theta)

    hold identically.  Conventions: 0 * log 0 = 0; if some pi_k = 0 while
    tau_ik > 0 the function returns -inf (a sentinel, not an exception).
    """
    t = np.asarray(tau, dtype=float)
    logp = log_density_matrix(params, Y) + log_weights(params.weights)[None, :]
    with np.errstate(invalid="ignore", divide="ignore"):
        complete = np.where(t > 0, t * logp, 0.0)
        entropy = np.where(t > 0, t * np.log(t), 0.0)
    return float(np.sum(complete) - np.sum(entropy))


def kullback_penalty(theta: MixtureParams, theta_bar: MixtureParams, Y: SampleSet) -> float:
    """KL-type divergence between the responsibilities of two parameter sets.

    sum_{i,k} t_ik(theta_bar) log( t_ik(theta_bar) / t_ik(theta) ); always
    >= 0, zero when the responsibility matrices coincide, +inf when
    t_ik(theta) = 0 somewhere t_ik(theta_bar) > 0.
    """
    log_t = log_responsibilities(theta, Y)
    log_tb = log_responsibilities(theta_bar, Y)
    tb = np.exp(log_tb)
    with np.errstate(invalid="ignore"):
        terms = np.where(tb > 0, tb * (log_tb - log_t), 0.0)
    return float(np.sum(terms))
