"""Gradient-noise samplers and empirical tail statistics.

Provides:
- NoiseSpec: declarative description of a mean-zero noise distribution
  (gaussian / symmetric Pareto / symmetric alpha-stable / zero),
- sample_noise_batch: seeded draws,
- row_blocks / column_sum: the row slices and numpy's column sum of a blockwise pass,
- row_sq_sums: squared row norms of a block of draws,
- norm_moment_root / coordinate_moment_roots: the calibration moments,
- tail_index: block-sum log-moment estimate of the tail index.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

FAMILIES = ("gaussian", "pareto", "stable", "zero")

# Rows per group of the moment sums.
_STREAM_CHUNK = 1 << 16

# Coordinates per sub-block of a blockwise pass: its temporaries hold this
# many float64 each (128 KB, so that the dozen the stable transform builds
# stay in a core's L2 cache), whatever the block size.
_SUBBLOCK = 1 << 14


def row_blocks(n: int, d: int = 1, coords: int = _SUBBLOCK) -> Iterator[slice]:
    """The row slices of a blockwise pass over n rows of width d, in order:
    max(coords // d, 1) rows each, a sub-block by default; only the last may
    be shorter."""
    rows = max(coords // d, 1)
    for start in range(0, n, rows):
        yield slice(start, min(start + rows, n))


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
    are transformed a sub-block of row_blocks(n, d) at a time into the result.
    """
    d = spec.dimension
    if spec.family == "zero":
        return np.zeros((n, d))
    if spec.family == "gaussian":
        out = rng.standard_normal((n, d))
        out *= spec.scale
        return out
    out = np.empty((n, d))
    for part in row_blocks(n, d):
        u2 = rng.random((part.stop - part.start, 2 * d))
        np.multiply(_heavy_tailed(spec, u2), spec.scale, out=out[part])
    return out


def column_sum(n: int, d: int, fill: Callable[[slice, np.ndarray], object]) -> np.ndarray:
    """np.sum(a, axis=0) of an (n, d) array a, n >= 1, bit for bit, built a
    block at a time: fill(part, out) writes a[part] into out.

    At d >= 2 numpy adds row after row, so each sub-block is summed with the
    running total carried in as its first row, -0.0 before the first (-0.0 +
    x is x for every x).  At d = 1 it sums an (n, 1) column pairwise, so there
    the one block is the whole column.
    """
    if d == 1:
        out = np.empty((n, 1))
        fill(slice(0, n), out)
        return np.sum(out, axis=0)
    buf = np.empty((min(max(_SUBBLOCK // d, 1), n) + 1, d))
    buf[0] = -0.0
    for part in row_blocks(n, d):
        block = buf[1:1 + part.stop - part.start]
        fill(part, block)
        buf[0] = np.sum(buf[:1 + len(block)], axis=0)
    return buf[0].copy()


def row_sq_sums(a: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out[i] = np.sum(a[i] * a[i]), as np.sum(a * a, axis=1) gives it, through
    temporaries of a sub-block instead of one the size of a."""
    for part in row_blocks(len(a), a.shape[1]):
        np.sum(np.square(a[part]), axis=1, out=out[part])
    return out


# ---------------------------------------------------------------------------
# Empirical moments of shifted draws, for the calibrated schedule constants.
# Each sums its terms per group of row_blocks(n, coords=_STREAM_CHUNK) rows,
# bit for bit, while drawing a sub-block at a time.


def norm_moment_root(
    spec: NoiseSpec, shift, alpha: float, n: int, rng: np.random.Generator
) -> float:
    """(empirical E||shift + xi||^alpha)^(1/alpha) over n draws xi of spec.
    The powered norms of a block fill one vector, which is summed whole."""
    terms = np.empty(min(n, _STREAM_CHUNK))
    total = 0.0
    for group in row_blocks(n, coords=_STREAM_CHUNK):
        sq = terms[:group.stop - group.start]
        for part in row_blocks(len(sq), spec.dimension):
            block = sample_noise_batch(spec, rng, part.stop - part.start)
            block += shift
            row_sq_sums(block, sq[part])
        sq **= alpha / 2.0
        total += float(np.sum(sq))
    return (total / n) ** (1.0 / alpha)


def coordinate_moment_roots(
    spec: NoiseSpec, shift, alpha: float, n: int, rng: np.random.Generator
) -> np.ndarray:
    """Per coordinate i, (empirical E|shift_i + xi_i|^alpha)^(1/alpha) over
    n draws xi of spec; each block's column sum is a column_sum."""
    def fill(part, out):
        np.add(sample_noise_batch(spec, rng, len(out)), shift, out=out)
        np.abs(out, out=out)
        out **= alpha

    total = np.zeros(spec.dimension)
    for group in row_blocks(n, coords=_STREAM_CHUNK):
        total += column_sum(group.stop - group.start, spec.dimension, fill)
    return (total / n) ** (1.0 / alpha)


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

