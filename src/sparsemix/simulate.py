"""Seeded generators for the benchmark's synthetic mixture scenarios.

Each replicate draws K cluster centers uniformly in the cube
[-dilation/2, dilation/2]^d, then n points from the spherical mixture
with the configured weights and variances; the true component labels
are retained.  Replicate r of a scenario derives its random stream from
a stable hash of (seed, dim, dilation, r), so any cell or single
replicate can be regenerated independently and in parallel.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .model import as_finite_array, as_int, child_seed_seq, no_bool, weights_and_variances


@dataclass(frozen=True)
class ScenarioConfig:
    """One benchmark cell: dimension, separation and mixture shape."""

    dim: int
    dilation: float
    n_points: int = 10
    K: int = 3
    weights: tuple = (0.3, 0.2, 0.5)
    variances: tuple = (5.0, 7.0, 10.0)
    replicates: int = 1000
    seed: int = 0

    def __post_init__(self):
        for name, minimum in (("dim", 1), ("n_points", 1), ("K", 1), ("replicates", 1), ("seed", 0)):
            as_int(name, getattr(self, name), minimum)
        if not 0 < no_bool("dilation", self.dilation) < float("inf"):
            raise ValueError(f"dilation must be finite and positive, got {self.dilation!r}")
        if np.shape(self.weights) != (self.K,) or np.shape(self.variances) != (self.K,):
            raise ValueError(f"weights and variances need K={self.K} entries, got {self.weights!r}, {self.variances!r}")
        weights_and_variances(no_bool("weights", self.weights), no_bool("variances", self.variances))


@dataclass(frozen=True)
class LabeledSample:
    """Generated points with their ground-truth component indices (0-based)."""

    points: np.ndarray   # (n, d)
    labels: np.ndarray   # (n,) ints in [0, K)
    centers: np.ndarray  # (K, d)

    def __post_init__(self):
        shape = as_finite_array(self.points, "points").shape
        if len(shape) != 2:
            raise ValueError(f"points must have shape (n, d), got {shape}")
        n, d = shape
        labels = np.asarray(self.labels)
        if labels.shape != (n,):
            raise ValueError(f"labels must have shape ({n},), one per point, got {labels.shape}")
        center_shape = np.shape(self.centers)
        if len(center_shape) != 2 or center_shape[1] != d:
            raise ValueError(f"centers must have shape (K, {d}), got {center_shape}")
        if np.any(labels < 0) or np.any(labels >= center_shape[0]):
            raise ValueError("labels out of range")


def replicate_seed_seq(seed: int, dim: int, dilation: float, replicate: int) -> np.random.SeedSequence:
    """Stable per-replicate seed stream, independent across cells.

    Hashes the canonical textual form of (seed, dim, dilation,
    replicate) with SHA-256, so the stream does not depend on process,
    platform or scheduling order.
    """
    canon = f"{int(seed)}|{int(dim)}|{float(dilation)!r}|{int(replicate)}"
    digest = hashlib.sha256(canon.encode("ascii")).digest()
    return np.random.SeedSequence(int.from_bytes(digest[:16], "big"))


def gen_centers(config: ScenarioConfig, rng: np.random.Generator) -> np.ndarray:
    """K centers drawn uniformly in the dilated cube, shape (K, d)."""
    return config.dilation * rng.uniform(-0.5, 0.5, size=(config.K, config.dim))


def gen_sample(config: ScenarioConfig, centers: np.ndarray, rng: np.random.Generator) -> LabeledSample:
    """n labeled points from the spherical mixture around ``centers``."""
    labels = rng.choice(config.K, size=config.n_points, p=np.asarray(config.weights, dtype=float))
    noise = rng.standard_normal((config.n_points, config.dim))
    scale = np.sqrt(np.asarray(config.variances, dtype=float))[labels]
    points = centers[labels] + scale[:, None] * noise
    return LabeledSample(points=points, labels=labels, centers=centers)


def gen_replicate(config: ScenarioConfig, replicate: int) -> LabeledSample:
    """Centers plus sample for one replicate, from its private stream."""
    seq = replicate_seed_seq(config.seed, config.dim, config.dilation, replicate)
    rng = np.random.default_rng(child_seed_seq(seq, 0))
    centers = gen_centers(config, rng)
    return gen_sample(config, centers, rng)


def fit_seed_seq(config: ScenarioConfig, replicate: int) -> np.random.SeedSequence:
    """Seed stream for the estimator on one replicate (distinct from data)."""
    seq = replicate_seed_seq(config.seed, config.dim, config.dilation, replicate)
    return child_seed_seq(seq, 1)


def data_hash(sample: LabeledSample) -> str:
    """Short stable digest of a replicate's points and labels."""
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(sample.points, dtype=np.float64).tobytes())
    h.update(np.ascontiguousarray(sample.labels, dtype=np.int64).tobytes())
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# Flat-file sample format
# ---------------------------------------------------------------------------
#
# Line 1: "d n K" (three integers).  Then n lines, each with d coordinate
# values followed by the 0-based true label.  Whitespace separated; full
# float precision via repr.

def write_sample(path, sample: LabeledSample) -> None:
    n, d = sample.points.shape
    K = sample.centers.shape[0]
    lines = [f"{d} {n} {K}"]
    for i in range(n):
        coords = " ".join(repr(float(x)) for x in sample.points[i])
        lines.append(f"{coords} {int(sample.labels[i])}")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def read_sample(path) -> tuple[np.ndarray, np.ndarray | None]:
    """Read points (n, d) and labels from the flat format.

    Also accepts a headerless numeric table (rows of d floats) and then
    returns labels as None.  A first line of three integers "d n K" is
    the header only when a second line follows with d + 1 fields, or
    when one of the three is below 1 and no second line of three fields
    follows (then it is a bad header; with one, it is the first row of
    a headerless table).  One ambiguity remains: a headerless table of
    three integer columns whose first value is 2 reads as headered,
    since its second line has the d + 1 = 3 fields of a header with
    d = 2.  Malformed content raises ValueError with the offending
    1-based line number.
    """
    with open(path, "r", encoding="ascii") as fh:
        lines = [(lineno, line.split()) for lineno, line in enumerate(fh, 1) if line.strip()]
    if not lines:
        raise ValueError(f"{path}: line 1: file contains no data")

    first_lineno, first = lines[0]
    d, K = len(first), None
    if len(first) == 3 and all(_is_int(f) for f in first):
        header_d, n, header_K = (int(f) for f in first)
        bad = min(header_d, n, header_K) < 1
        after = len(lines[1][1]) if len(lines) > 1 else None
        if after == header_d + 1 or (bad and after != 3):
            if bad:
                raise ValueError(f"{path}: line {first_lineno}: header values must be positive")
            d, K = header_d, header_K
            lines = lines[1:]
            if len(lines) != n:
                raise ValueError(f"{path}: expected {n} data lines, found {len(lines)}")
    width = d if K is None else d + 1
    points = np.empty((len(lines), d))
    labels = np.empty(len(lines), dtype=int)
    for row, (lineno, fields) in enumerate(lines):
        if len(fields) != width:
            raise ValueError(f"{path}: line {lineno}: expected {width} fields, found {len(fields)}")
        try:
            points[row] = [float(f) for f in fields[:d]]
            if K is not None:
                labels[row] = int(fields[d])
        except ValueError:
            raise ValueError(f"{path}: line {lineno}: unparseable value") from None
        if K is not None and not (0 <= labels[row] < K):
            raise ValueError(f"{path}: line {lineno}: label out of range [0, {K})")
    if not np.all(np.isfinite(points)):
        raise ValueError(f"{path}: non-finite coordinate values")
    return points, (None if K is None else labels)


def _is_int(s: str) -> bool:
    try:
        int(s)
    except ValueError:
        return False
    return True
