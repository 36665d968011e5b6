"""Gradient-noise samplers and empirical tail statistics.

Provides:
- NoiseSpec: declarative description of a mean-zero noise distribution
  (gaussian / symmetric Pareto / symmetric alpha-stable / zero),
- sample_noise / sample_noise_batch: seeded draws,
- iter_blocks: a long stream of draws in fixed-size blocks,
- empirical_moment: empirical p-th absolute moment with standard error,
- tail_index: block-sum log-moment estimate of the tail index,
- variance_growth_curve: streaming second moment vs. sample size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, InsufficientDataError

FAMILIES = ("gaussian", "pareto", "stable", "zero")

_FAMILY_ALIASES = {
    "gaussian": "gaussian",
    "normal": "gaussian",
    "pareto": "pareto",
    "symmetric_pareto": "pareto",
    "stable": "stable",
    "alpha_stable": "stable",
    "symmetric_alpha_stable": "stable",
    "zero": "zero",
    "none": "zero",
}

# Chunk size for streaming passes over large sample counts.
_STREAM_CHUNK = 1 << 16


def canonical_family(name: str) -> str:
    key = name.strip().lower().replace("-", "_")
    if key not in _FAMILY_ALIASES:
        raise ConfigurationError(f"unknown noise family {name!r}; expected one of {FAMILIES}")
    return _FAMILY_ALIASES[key]


@dataclass
class NoiseSpec:
    """Mean-zero noise distribution with independent coordinates.

    ``tail_index`` is the distribution's own tail/stability parameter: the
    p-th absolute moment of a single coordinate is finite exactly for
    p < tail_index (pareto / stable families).  Unused for gaussian/zero.
    ``per_coordinate_scales`` overrides ``scale`` coordinate-wise.
    """

    family: str
    dimension: int
    scale: float = 1.0
    tail_index: float = 2.0
    per_coordinate_scales: np.ndarray | None = None

    def __post_init__(self):
        self.family = canonical_family(self.family)
        if self.dimension < 1:
            raise ConfigurationError("dimension must be a positive integer")
        if self.scale <= 0:
            raise ConfigurationError("scale must be positive")
        if self.family == "stable" and not (1.0 < self.tail_index <= 2.0):
            raise ConfigurationError(
                f"stable tail_index must lie in (1, 2], got {self.tail_index}"
            )
        if self.family == "pareto" and self.tail_index <= 1.0:
            raise ConfigurationError(
                f"pareto tail_index must be > 1, got {self.tail_index}"
            )
        if self.per_coordinate_scales is not None:
            s = np.asarray(self.per_coordinate_scales, dtype=float)
            if s.shape != (self.dimension,):
                raise ConfigurationError(
                    "per_coordinate_scales must have length equal to dimension"
                )
            if np.any(s <= 0):
                raise ConfigurationError("per_coordinate_scales must be positive")
            self.per_coordinate_scales = s

    def scales(self) -> np.ndarray:
        if self.per_coordinate_scales is not None:
            return self.per_coordinate_scales
        return np.full(self.dimension, self.scale)


def pareto_magnitude(u, a: float):
    """Inverse CDF of the one-sided Pareto with minimum 1: (1-u)^(-1/a)."""
    return (1.0 - np.asarray(u, dtype=float)) ** (-1.0 / a)


def sample_noise_batch(spec: NoiseSpec, rng: np.random.Generator, n: int) -> np.ndarray:
    """Draw ``n`` independent noise vectors, shape (n, spec.dimension).

    Every family consumes a fixed number of uniforms (or normals) per
    vector in row order, so identical (spec, seed) give bit-identical
    streams regardless of how draws are batched.
    """
    d = spec.dimension
    if spec.family == "zero":
        return np.zeros((n, d))
    scales = spec.scales()
    if spec.family == "gaussian":
        return rng.standard_normal((n, d)) * scales
    if spec.family == "pareto":
        u2 = rng.random((n, 2 * d))
        signs = np.where(u2[:, d:] < 0.5, -1.0, 1.0)
        # Symmetrization alone gives mean zero; no additive centering.
        return signs * pareto_magnitude(u2[:, :d], spec.tail_index) * scales
    # Symmetric alpha-stable via the Chambers-Mallows-Stuck transform.
    a = spec.tail_index
    u2 = rng.random((n, 2 * d))
    v = (u2[:, :d] - 0.5) * math.pi
    w = -np.log1p(-u2[:, d:])  # Exp(1) by inverse CDF
    with np.errstate(divide="ignore"):
        x = (np.sin(a * v) / np.cos(v) ** (1.0 / a)) * (
            np.cos((1.0 - a) * v) / w
        ) ** ((1.0 - a) / a)
    return x * scales


def sample_noise(spec: NoiseSpec, rng: np.random.Generator) -> np.ndarray:
    """One noise draw of length spec.dimension."""
    return sample_noise_batch(spec, rng, 1)[0]


def iter_blocks(spec: NoiseSpec, rng: np.random.Generator, n: int, block: int = _STREAM_CHUNK):
    """Yield ``n`` draws as consecutive sample_noise_batch blocks of ``block`` rows.

    Only the last block may be shorter.  The rows equal one
    sample_noise_batch(spec, rng, n) call; the block boundaries fix the
    order of any floating-point sums taken per block.
    """
    drawn = 0
    while drawn < n:
        chunk = min(block, n - drawn)
        yield sample_noise_batch(spec, rng, chunk)
        drawn += chunk


@dataclass
class MomentEstimate:
    """Empirical mean of ||X||^p with its (descriptive) standard error.

    The standard error of a p-th moment of a heavy-tailed variable may
    itself be infinite; it is reported as a descriptive statistic, never
    as a confidence guarantee.
    """

    exponent: float
    value: float
    sample_count: int
    standard_error: float


def empirical_moment(samples: np.ndarray, p: float) -> MomentEstimate:
    """Empirical p-th absolute moment of scalars or row-vectors.

    ``samples`` is (n,) for scalars or (n, d) for vectors; the moment is of
    |x| resp. the Euclidean norm of each row.
    """
    if p <= 0:
        raise ConfigurationError("moment exponent p must be positive")
    x = np.asarray(samples, dtype=float)
    n = x.shape[0]
    if n < 2:
        raise InsufficientDataError("empirical_moment needs at least 2 samples")
    norms = np.abs(x) if x.ndim == 1 else np.sqrt(np.sum(x * x, axis=1))
    vals = norms**p
    return MomentEstimate(
        exponent=p,
        value=float(np.mean(vals)),
        sample_count=n,
        standard_error=float(np.std(vals, ddof=1) / math.sqrt(n)),
    )


@dataclass
class TailIndexEstimate:
    alpha_hat: float
    block_size: int
    sample_count: int


def tail_index(
    samples: np.ndarray,
    block_size: int = 100,
    rng: np.random.Generator | None = None,
    symmetrize: bool = True,
) -> TailIndexEstimate:
    """Block-sum log-moment estimate of the tail index, clamped to (0, 2].

    Partitions the samples into blocks of ``block_size``, forms block sums
    Y_j and returns 1/alpha_hat = (mean log|Y_j| - mean log X_i) / log K.

    With ``symmetrize`` the samples get independent random signs before
    summation, which makes the estimator exact for magnitudes of symmetric
    stable laws and drives light-tailed inputs to alpha_hat = 2.  Without
    it, block sums of positive data concentrate at K * mean and the
    estimate is pulled toward 1 (only useful as a closed-form check).
    """
    x = np.asarray(samples, dtype=float)
    if x.ndim != 1:
        raise ConfigurationError("tail_index expects a 1-d sample array")
    if np.any(x < 0):
        raise ConfigurationError("tail_index expects nonnegative samples")
    x = x[x > 0]
    n = x.size
    k = int(block_size)
    if k < 1:
        raise ConfigurationError("block_size must be a positive integer")
    if n % k != 0:
        raise ConfigurationError(
            f"sample count {n} (after dropping zeros) is not a multiple of block size {k}"
        )
    m = n // k
    if m < 2:
        raise ConfigurationError("tail_index needs at least 2 blocks")
    if symmetrize:
        if rng is None:
            rng = np.random.default_rng(0)
        signed = np.where(rng.random(n) < 0.5, -x, x)
    else:
        signed = x
    block_sums = np.abs(signed.reshape(m, k).sum(axis=1))
    block_sums = block_sums[block_sums > 0]
    if block_sums.size < 2:
        raise ConfigurationError("all block sums vanished; cannot estimate tail index")
    inv = (np.mean(np.log(block_sums)) - np.mean(np.log(x))) / math.log(k)
    alpha = 2.0 if inv <= 0.5 else 1.0 / inv
    return TailIndexEstimate(alpha_hat=float(min(alpha, 2.0)), block_size=k, sample_count=n)


def variance_growth_curve(
    spec: NoiseSpec,
    checkpoints: list[int],
    rng: np.random.Generator,
) -> list[tuple[int, float]]:
    """Running second moment of the noise norm at increasing sample counts.

    One streaming pass; at each checkpoint n records (1/n) * sum ||x_i||^2.
    For families with tail index < 2 the curve drifts upward; for gaussian
    it stabilizes at the true second moment.
    """
    cps = [int(c) for c in checkpoints]
    if any(c <= 0 for c in cps) or any(b >= a for b, a in zip(cps, cps[1:])):
        raise ConfigurationError("checkpoints must be strictly increasing positive integers")
    out: list[tuple[int, float]] = []
    total = 0.0
    drawn = 0
    for cp in cps:
        for block in iter_blocks(spec, rng, cp - drawn):
            total += float(np.sum(block * block))
        drawn = cp
        out.append((cp, total / cp))
    return out


@dataclass
class NoiseHistogram:
    """Fixed-width histogram of noise norms, for the noise-probe report."""

    edges: np.ndarray = field(repr=False)
    counts: np.ndarray = field(repr=False)
    sample_count: int = 0


def norm_histogram(
    spec: NoiseSpec, n: int, rng: np.random.Generator, bins: int = 50, clip_quantile: float = 0.999
) -> NoiseHistogram:
    """Histogram of ||x|| over n draws, range capped at a high quantile."""
    draws = sample_noise_batch(spec, rng, n)
    norms = np.sqrt(np.sum(draws * draws, axis=1))
    hi = float(np.quantile(norms, clip_quantile)) if norms.size else 1.0
    counts, edges = np.histogram(norms, bins=bins, range=(0.0, max(hi, 1e-12)))
    return NoiseHistogram(edges=edges, counts=counts, sample_count=n)
