"""Gradient-noise samplers and empirical tail statistics.

Provides:
- NoiseSpec: declarative description of a mean-zero noise distribution
  (gaussian / symmetric Pareto / symmetric alpha-stable / zero),
- sample_noise_batch: seeded draws,
- iter_blocks: a long stream of draws in fixed-size blocks,
- row_sq_sums: squared row norms of a block of draws,
- tail_index: block-sum log-moment estimate of the tail index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

FAMILIES = ("gaussian", "pareto", "stable", "zero")

# Chunk size for streaming passes over large sample counts.
_STREAM_CHUNK = 1 << 16

# Coordinates per sub-block in sample_noise_batch and row_sq_sums: their
# temporaries hold this many float64 each (128 KB, so that the dozen the
# stable transform builds stay in a core's L2 cache), whatever the block size.
_SUBBLOCK = 1 << 14


def _sub_rows(d: int) -> int:
    return max(_SUBBLOCK // d, 1)


@dataclass
class NoiseSpec:
    """Mean-zero noise distribution with independent coordinates.

    ``tail_index`` is the distribution's own tail/stability parameter: the
    p-th absolute moment of a single coordinate is finite exactly for
    p < tail_index (pareto / stable families).  Unused for gaussian/zero.
    """

    family: str
    dimension: int
    scale: float = 1.0
    tail_index: float = 2.0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ConfigurationError(
                f"unknown noise family {self.family!r}; expected one of {FAMILIES}"
            )
        if self.dimension < 1:
            raise ConfigurationError("dimension must be a positive integer")
        if not (0.0 < self.scale < math.inf):  # written so that NaN fails too
            raise ConfigurationError(f"scale must be positive and finite, got {self.scale}")
        if not math.isfinite(self.tail_index):
            raise ConfigurationError(f"tail_index must be finite, got {self.tail_index}")
        if self.family == "stable" and not (1.0 < self.tail_index <= 2.0):
            raise ConfigurationError(
                f"stable tail_index must lie in (1, 2], got {self.tail_index}"
            )
        if self.family == "pareto" and self.tail_index <= 1.0:
            raise ConfigurationError(
                f"pareto tail_index must be > 1, got {self.tail_index}"
            )


def pareto_magnitude(u, a: float):
    """Inverse CDF of the one-sided Pareto with minimum 1: (1-u)^(-1/a)."""
    return (1.0 - np.asarray(u, dtype=float)) ** (-1.0 / a)


def _heavy_tailed(spec: NoiseSpec, u2: np.ndarray) -> np.ndarray:
    """Unscaled pareto or stable draws from a (rows, 2d) block of uniforms."""
    d = spec.dimension
    if spec.family == "pareto":
        signs = np.where(u2[:, d:] < 0.5, -1.0, 1.0)
        # Symmetrization alone gives mean zero; no additive centering.
        return signs * pareto_magnitude(u2[:, :d], spec.tail_index)
    # Symmetric alpha-stable via the Chambers-Mallows-Stuck transform.
    a = spec.tail_index
    v = (u2[:, :d] - 0.5) * math.pi
    w = -np.log1p(-u2[:, d:])  # Exp(1) by inverse CDF
    with np.errstate(divide="ignore"):
        return (np.sin(a * v) / np.cos(v) ** (1.0 / a)) * (
            np.cos((1.0 - a) * v) / w
        ) ** ((1.0 - a) / a)


def sample_noise_batch(spec: NoiseSpec, rng: np.random.Generator, n: int) -> np.ndarray:
    """Draw ``n`` independent noise vectors, shape (n, spec.dimension).

    Every family consumes a fixed number of uniforms (or normals) per
    vector in row order, so identical (spec, seed) give bit-identical
    streams regardless of how draws are batched.  Pareto and stable draws
    are transformed _SUBBLOCK coordinates at a time into the result.
    """
    d = spec.dimension
    if spec.family == "zero":
        return np.zeros((n, d))
    if spec.family == "gaussian":
        out = rng.standard_normal((n, d))
        out *= spec.scale
        return out
    out = np.empty((n, d))
    rows = _sub_rows(d)
    for start in range(0, n, rows):
        u2 = rng.random((min(rows, n - start), 2 * d))
        np.multiply(_heavy_tailed(spec, u2), spec.scale, out=out[start:start + len(u2)])
    return out


def iter_blocks(spec: NoiseSpec, rng: np.random.Generator, n: int, block: int = _STREAM_CHUNK):
    """Yield ``n`` draws as consecutive sample_noise_batch blocks of ``block`` rows.

    Only the last block may be shorter.  The rows equal one
    sample_noise_batch(spec, rng, n) call; the block boundaries fix the
    order of any floating-point sums taken per block.  Each block is a new
    array that the caller owns and may overwrite.
    """
    drawn = 0
    while drawn < n:
        chunk = min(block, n - drawn)
        yield sample_noise_batch(spec, rng, chunk)
        drawn += chunk


def row_sq_sums(a: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out[i] = np.sum(a[i] * a[i]), as np.sum(a * a, axis=1) gives it, through
    temporaries of _SUBBLOCK coordinates instead of one the size of a."""
    rows = _sub_rows(a.shape[1])
    for start in range(0, len(a), rows):
        np.sum(np.square(a[start:start + rows]), axis=1, out=out[start:start + rows])
    return out


def tail_index(
    samples: np.ndarray,
    block_size: int,
    rng: np.random.Generator,
) -> float:
    """Block-sum log-moment estimate of the tail index, clamped to (0, 2].

    Partitions the samples into blocks of ``block_size``, gives them
    independent random signs, forms block sums Y_j and returns
    1/alpha_hat = (mean log|Y_j| - mean log X_i) / log K.  The signs make
    the estimator exact for magnitudes of symmetric stable laws and drive
    light-tailed inputs to alpha_hat = 2.
    """
    x = np.asarray(samples, dtype=float)
    if x.ndim != 1:
        raise ConfigurationError("tail_index expects a 1-d sample array")
    if np.any(x < 0):
        raise ConfigurationError("tail_index expects nonnegative samples")
    x = x[x > 0]
    n = x.size
    k = int(block_size)
    if k < 2:  # log K = 0 divides by zero
        raise ConfigurationError(f"block_size must be at least 2, got {k}")
    if n % k != 0:
        raise ConfigurationError(
            f"sample count {n} (after dropping zeros) is not a multiple of block size {k}"
        )
    m = n // k
    if m < 2:
        raise ConfigurationError("tail_index needs at least 2 blocks")
    signed = np.where(rng.random(n) < 0.5, -x, x)
    block_sums = np.abs(signed.reshape(m, k).sum(axis=1))
    block_sums = block_sums[block_sums > 0]
    if block_sums.size < 2:
        raise ConfigurationError("all block sums vanished; cannot estimate tail index")
    inv = (np.mean(np.log(block_sums)) - np.mean(np.log(x))) / math.log(k)
    alpha = 2.0 if inv <= 0.5 else 1.0 / inv
    return float(min(alpha, 2.0))

