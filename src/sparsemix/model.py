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
sigma_k^2 I)`` and its row log-normalizers ``lse`` carry everything a
partial step needs: ``sum(lse)`` is the mixture log likelihood and
``exp(logp - lse[:, None])`` the responsibilities.  :class:`Blocks` is
the one evaluator of that pair, and its docstring tells which blocks
the EM loop carries across partial steps and when each is recomputed.
Inside the loop's steps parameters are rebuilt through
:meth:`MixtureParams._trusted`, unvalidated by construction; parameters
built outside them (user input, initialization, re-seeding) are
validated.
"""

from __future__ import annotations

import math
import operator
from dataclasses import InitVar, dataclass, field
from functools import cached_property

import numpy as np

WEIGHT_SUM_TOL = 1e-12

LOG_2PI = math.log(2.0 * math.pi)


class EmptyClusterError(RuntimeError):
    """A cluster carries (numerically) zero responsibility mass."""

    def __init__(self, message: str, component: int | None = None):
        super().__init__(message)
        self.component = component


class NumericalError(RuntimeError):
    """A computation produced non-finite intermediates."""


def as_finite_array(x, name: str) -> np.ndarray:
    """``x`` as a float array, or a ValueError naming its first non-finite entry and where it sits."""
    arr = np.asarray(x, dtype=float)
    if not np.isfinite(arr).all():
        at = np.unravel_index(np.flatnonzero(~np.isfinite(arr))[0], arr.shape)
        raise ValueError(f"{name} contains non-finite entries, got {float(arr[at])!r} at {tuple(map(int, at))}")
    return arr


def as_int(name: str, value, minimum: int) -> int:
    """``value`` as an int of at least ``minimum`` (numpy integers count, bools do not); ValueError otherwise."""
    try:
        out = operator.index(None if isinstance(value, bool) else value)  # a bool is an int, but no count
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if out < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value!r}")
    return out


def no_bool(name: str, value):
    """``value`` itself, or a ValueError naming the setting when it is or holds a bool (numpy reads True as 1.0)."""
    bools = (bool, np.bool_)
    seq = isinstance(value, (list, tuple, np.ndarray))
    if isinstance(value, bools) or seq and any(isinstance(x, bools) for x in value):
        raise ValueError(f"{name} takes numbers, not bools, got {value!r}")
    return value


def weights_and_variances(weights, variances) -> tuple[np.ndarray, np.ndarray]:
    """``weights`` and ``variances`` as float arrays, or a ValueError naming the field and its value.

    Weights are a non-empty vector, finite, non-negative and summing to 1 within ``WEIGHT_SUM_TOL``
    (a NaN fails every comparison, an inf the sum); variances have their shape, finite and positive.
    """
    w = np.asarray(weights, dtype=float)
    v = np.asarray(variances, dtype=float)
    if w.ndim != 1 or w.size < 1:
        raise ValueError(f"weights must be a non-empty vector, got {weights!r}")
    if not (w.min() >= 0.0 and abs(w.sum() - 1.0) <= WEIGHT_SUM_TOL):
        raise ValueError(f"weights must be finite, non-negative and sum to 1, got {weights!r}")
    if v.shape != w.shape:
        raise ValueError(f"variances must have the shape {w.shape} of weights, got {variances!r}")
    if not (v.min() > 0.0 and v.max() < math.inf):
        raise ValueError(f"variances must be finite and positive, got {variances!r}")
    return w, v


def freeze_mixture_fields(params, locations: str, width: str) -> None:
    """Check the ``weights``, ``variances`` and (K, ``width``) ``locations`` of ``params``; store read-only copies.

    For the frozen parameter dataclasses' ``__post_init__``; a ValueError names the field that fails.
    """
    w, v = weights_and_variances(params.weights, params.variances)
    a = as_finite_array(getattr(params, locations), locations)
    if a.ndim != 2 or a.shape[0] != w.size:
        raise ValueError(f"{locations} must have shape (K={w.size}, {width}), got {a.shape}")
    for name, arr in (("weights", w), (locations, a), ("variances", v)):
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(params, name, arr)


def child_seed_seq(seed, index: int) -> np.random.SeedSequence:
    """Child ``index`` of ``seed``, equal to ``spawn(index + 1)[index]`` of a fresh ``seed``.

    Built from the spawn key, because ``spawn`` advances the parent's state and would make a
    child depend on call order.  An int seed is ``SeedSequence(seed)``.
    """
    seed = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    return np.random.SeedSequence(seed.entropy, spawn_key=seed.spawn_key + (index,), pool_size=seed.pool_size)


@dataclass(frozen=True)
class SampleSet:
    """Centered observations with the centering offset retained.

    ``SampleSet(points)`` centers the raw observations (one per row,
    shape (n, d)) in two passes: the column mean is subtracted, then the
    mean of that result, which cancels most of the first pass's rounding.
    ``data`` holds the centered rows and ``center_offset`` the sum of
    both means, so fitted quantities map back to the original
    coordinates via :meth:`uncenter`.  ``total_variance``, the mean
    squared norm of the observations, is stored with them; :attr:`gram`,
    which holds the largest observation norm as ``col_max``, is built on
    first use.  Points whose centering or squared norms overflow are
    rejected.
    """

    points: InitVar[np.ndarray]
    data: np.ndarray = field(init=False)
    center_offset: np.ndarray = field(init=False)
    total_variance: float = field(init=False, repr=False, compare=False)

    def __post_init__(self, points):
        pts = as_finite_array(points, "points")
        if pts.ndim != 2 or pts.shape[0] < 1 or pts.shape[1] < 1:
            raise ValueError("points must be a non-empty 2-d array (n, d)")
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is rejected below, by name
            offset = pts.mean(axis=0)
            centered = pts - offset
            resid = centered.mean(axis=0)
            centered -= resid
            offset += resid
            data = np.ascontiguousarray(centered)  # row-major whatever the caller's layout
            mean_sq = float(np.mean(np.sum(data**2, axis=1)))
        if not math.isfinite(mean_sq):  # finite only if every centered entry is
            raise ValueError("squared norms of the centered data overflow; the coordinates are too large")
        data.setflags(write=False)
        offset.setflags(write=False)
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "center_offset", offset)
        object.__setattr__(self, "total_variance", mean_sq)

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

    @cached_property
    def gram(self) -> "Gram":
        """The constants of :attr:`design` that every weighted lasso on this sample shares, built once."""
        return Gram(self.design)


@dataclass(frozen=True)
class Gram:
    """A d x n design and the constants that every weighted lasso on it shares.

    ``Gram(design)`` keeps a read-only view of ``design``, so the
    caller's array stays as writable as it was, and derives the rest
    from it: ``col_max``, the largest column norm, the read-only
    ``scale``, each column's largest absolute entry, and ``faces``, the
    factorisations of the active sets that the lasso solver has met on
    this design (see :mod:`sparsemix.lasso`).  The solver fills
    ``faces`` on first use of an active set, keyed by its index array's
    bytes, so the cache lives as long as this object: the sample's, for
    ``SampleSet.gram``, or the problem's, for a Gram a
    ``WeightedLassoProblem`` built itself.  A full-rank entry holds
    D_A, its column scales and the SVD of D_A divided by them, with
    |A| <= d; a rank-deficient one holds one null vector.  The lasso
    solves of ``tools/lasso_timing.py`` at n = 200, d = 50, each on its
    own Gram, leave at most 4.2 MB in one cache.
    """

    design: np.ndarray
    col_max: float = field(init=False)
    scale: np.ndarray = field(init=False)
    faces: dict[bytes, tuple] = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        D = np.asarray(self.design, dtype=float).view()
        D.setflags(write=False)
        scale = np.abs(D).max(axis=0, initial=0.0)
        scale.setflags(write=False)
        object.__setattr__(self, "design", D)
        object.__setattr__(self, "col_max", float(np.sqrt(np.max(np.sum(D**2, axis=0), initial=0.0))))
        object.__setattr__(self, "scale", scale)


def default_variance_floor(Y: SampleSet) -> float:
    """Smallest admissible per-component variance for this dataset.

    Unpenalized mixture likelihoods are unbounded at degenerate
    variances; a floor of 1e-4 of the per-coordinate sample variance
    keeps every iterate away from that failure mode.
    """
    floor = 1e-4 * Y.total_variance / Y.d
    return max(floor, 1e-300)


@dataclass(frozen=True, slots=True)
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
        freeze_mixture_fields(self, "betas", "n")

    @classmethod
    def _trusted(cls, weights: np.ndarray, betas: np.ndarray, variances: np.ndarray) -> "MixtureParams":
        """Build without validation from float arrays no one else writes to.

        For the fitting loops, whose updates keep every invariant checked
        by ``__post_init__`` by construction.  The arrays are frozen
        read-only in place rather than copied.
        """
        weights.setflags(write=False)
        betas.setflags(write=False)
        variances.setflags(write=False)
        self = object.__new__(cls)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "betas", betas)
        object.__setattr__(self, "variances", variances)
        return self

    @property
    def K(self) -> int:
        return self.weights.size

    def means(self, Y: SampleSet) -> np.ndarray:
        """Realized component means, shape (K, d)."""
        return self.betas @ Y.data


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
    :func:`default_variance_floor`.  Of ``restarts`` random starts, the
    one of highest final log likelihood is kept; ``seed`` (>= 0) seeds
    their streams.
    """

    lam: float | None = None
    max_cycles: int = 200
    tol: float = 1e-8
    variance_floor: float | None = None
    restarts: int = 5
    seed: int = 0

    def __post_init__(self):
        for name, minimum in (("max_cycles", 1), ("restarts", 1), ("seed", 0)):
            as_int(name, getattr(self, name), minimum)
        for name in ("lam", "tol", "variance_floor"):
            no_bool(name, getattr(self, name))
        if self.lam is not None and not (0 <= self.lam < math.inf):
            raise ValueError(f"lam must be finite and >= 0, got {self.lam!r}")
        if not (self.tol > 0):
            raise ValueError(f"tol must be positive, got {self.tol!r}")
        if self.variance_floor is not None and not (0 < self.variance_floor < math.inf):
            raise ValueError(f"variance_floor must be finite and positive, got {self.variance_floor!r}")

    def resolve_floor(self, Y: SampleSet) -> float:
        return self.variance_floor if self.variance_floor is not None else default_variance_floor(Y)


# ---------------------------------------------------------------------------
# Objective functions
# ---------------------------------------------------------------------------

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
    an (n, K) matrix, the composition of the three blocks above that
    :class:`Blocks` carries.  It serves :func:`log_density_matrix` and
    the evaluation of the baseline's reported explicit means.
    """
    return log_densities(log_normalizers(X.shape[1], variances), squared_distances(X, means), variances)


def log_density_matrix(params: MixtureParams, Y: SampleSet) -> np.ndarray:
    """(n, K) component log densities at the realized means, composed directly: a reference for :class:`Blocks`."""
    return spherical_log_density_matrix(Y.data, params.means(Y), params.variances)


def log_weights(weights: np.ndarray) -> np.ndarray:
    """``log(weights)``, with log 0 = -inf and no warning."""
    if min(weights.tolist()) > 0:  # no log 0 to hide; a NaN warns in neither path
        return np.log(weights)
    with np.errstate(divide="ignore"):
        return np.log(weights)


def logsumexp_rows(a: np.ndarray) -> np.ndarray:
    """``log(sum(exp(a), axis=1))`` for a real 2-d array, shifted by each row's max.

    An infinite max shifts by 0 instead, so an all -inf row gives -inf
    (log 0) and a +inf entry +inf; a NaN entry gives NaN.  No operation
    warns: a shift past the float range rounds to -inf and its term to 0,
    and so does an underflowing term.  Finite rows agree with
    ``scipy.special.logsumexp(a, axis=1)``, which counts the tied maxima
    and adds ``log1p`` of the rest, to a few ulp of max(1, |row max|).
    """
    a_max = np.maximum.reduce(a, axis=1, keepdims=True)
    shift = np.where(np.isinf(a_max), 0.0, a_max)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore", under="ignore"):
        return np.log(np.add.reduce(np.exp(a - shift), axis=1)) + shift[:, 0]


def log_joint(log_dens: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Log-joint matrix ``logp = log_dens + log weights`` and its row log-normalizers.

    ``sum(lse)`` is the mixture log likelihood and ``exp(logp - lse[:,
    None])`` the responsibilities, so one evaluation serves both.
    """
    logp = log_dens + log_weights(weights)[None, :]
    return logp, logsumexp_rows(logp)


class Blocks:
    """The model blocks of one :class:`MixtureParams`, the only evaluator of its log-joint.

    A partial step replaces one parameter array and shares the other two
    with its input (:meth:`MixtureParams._trusted` stores them as they
    are, read-only), so each block below is recomputed only when the
    array it derives from is a different object:

    - ``betas``: the squared distances ``sq`` to the means ``betas @
      Y.data``, which are not kept, and the l1 norms ``l1``
      (:meth:`set_betas`);
    - ``variances``: the terms ``d * (log 2 pi + log sigma_k^2)``;
    - ``betas`` or ``variances``: the log-density matrix;
    - ``weights``: the log weights.

    Which step computes them: :meth:`sync` does, for a sparse partial
    step and for parameters an instance did not produce (the initial
    ones, a re-seed), which hold fresh arrays, so every block is
    recomputed from them.  Classic EM's M-step needs the squared
    distances of its new betas for its variances, so it installs the
    beta blocks itself through :meth:`set_betas`, and :meth:`sync` then
    recomputes only the variance, density and weight blocks.  The EM
    loop carries one instance per restart: the sparse sigma step reads
    its squared distances ``sq`` from it, and the loop the cycle's
    penalty ``lams @ l1``, ``lams`` being the penalty weights of its
    current cycle; everything else evaluates through a fresh instance,
    ``Blocks(Y).evaluate(params)``.
    """

    def __init__(self, Y: SampleSet):
        self.Y = Y
        self.betas = self.variances = self.weights = self.lams = self.log_dens = None

    def set_betas(self, betas: np.ndarray) -> None:
        """Hold ``betas`` with its squared distances and l1 norms; the log densities go stale."""
        self.betas = betas
        self.sq = squared_distances(self.Y.data, betas @ self.Y.data)
        self.l1 = np.add.reduce(np.abs(betas), axis=1)
        self.log_dens = None

    def sync(self, params: MixtureParams) -> None:
        """Recompute the blocks whose source array ``params`` replaced."""
        if params.betas is not self.betas:
            self.set_betas(params.betas)
        if params.variances is not self.variances:
            self.variances = params.variances
            self.norms = log_normalizers(self.Y.d, params.variances)
            self.log_dens = None
        if self.log_dens is None:
            self.log_dens = log_densities(self.norms, self.sq, self.variances)
        if params.weights is not self.weights:
            self.weights = params.weights
            self.log_w = log_weights(params.weights)

    def evaluate(self, params: MixtureParams) -> tuple[np.ndarray, np.ndarray]:
        """Log-joint matrix at ``params`` and its row log-normalizers, as :func:`log_joint` returns them."""
        self.sync(params)
        logp = self.log_dens + self.log_w[None, :]
        return logp, logsumexp_rows(logp)


def self_regression_log_likelihood(params: MixtureParams, Y: SampleSet) -> float:
    """Mixture log likelihood with means realized as Y beta_k."""
    return float(np.sum(Blocks(Y).evaluate(params)[1]))


def penalized_value(params: MixtureParams, Y: SampleSet, lams) -> float:
    """Log likelihood minus ``sum_k lams[k] * ||beta_k||_1``, one l1 weight per component."""
    lams = np.asarray(lams, dtype=float)
    if lams.shape != (params.K,):
        raise ValueError(f"lams must have shape ({params.K},), got {lams.shape}")
    if not (lams >= 0).all():
        raise ValueError(f"lams must be >= 0, got {lams.tolist()!r}")
    blocks = Blocks(Y)
    lse = blocks.evaluate(params)[1]
    return float(np.sum(lse)) - float(lams @ blocks.l1)


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
    logp = Blocks(Y).evaluate(params)[0]
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
    log_t, log_tb = (logp - lse[:, None] for logp, lse in map(Blocks(Y).evaluate, (theta, theta_bar)))
    tb = np.exp(log_tb)
    with np.errstate(invalid="ignore"):
        terms = np.where(tb > 0, tb * (log_tb - log_t), 0.0)
    return float(np.sum(terms))
