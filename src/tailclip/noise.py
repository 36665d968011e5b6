"""Gradient-noise samplers and empirical tail statistics.

Provides:
- NoiseSpec: declarative description of a mean-zero noise distribution
  (gaussian / symmetric Pareto / symmetric alpha-stable / zero),
- sample_noise_batch: seeded draws,
- row_blocks / column_sum: the row slices and numpy's column sum of a blockwise pass,
- row_sq_sums: squared row norms of a block of draws,
- fan_out: jobs on forked worker processes, one per core unless told otherwise,
- stream_groups: a pass over a noise stream, a group of rows per job,
- norm_moment_root / coordinate_moment_roots: the calibration moments,
- tail_index: block-sum log-moment estimate of the tail index.
"""

from __future__ import annotations

import math
import os
from collections.abc import Callable, Iterator
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

FAMILIES = ("gaussian", "pareto", "stable", "zero")

# Rows per group of the moment sums, and per job of a pass over a stream.
_STREAM_CHUNK = 1 << 16

# A pass fans out over worker processes only when it holds at least this many
# coordinates; a smaller one is done before the workers would have started.
FAN_OUT_FLOOR = 1 << 20

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
    out = np.empty((n, d))
    if spec.family == "gaussian":
        rng.standard_normal(out=out)
        out *= spec.scale
        return out
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
# Worker processes.  fan_out is the one place that starts them and decides
# how many.  A job reaches its inputs through the fork, never through a
# pickle, and hands back a small result.

_fan_out_job = None  # the job of the running fan_out, inherited by its workers


def _run_job(i: int):
    return _fan_out_job(i)


def _pool_size(workers: int | None, count: int) -> int:
    """The processes fan_out(job, count, workers) runs its jobs on, forked if
    two or more: min(workers, count), where workers None means one per core."""
    if not hasattr(os, "fork"):
        return 1
    return min((os.cpu_count() or 1) if workers is None else workers, count)


def forks(workers: int | None, count: int) -> bool:
    """Whether fan_out(job, count, workers) runs its jobs on forked processes."""
    return _pool_size(workers, count) >= 2


def fan_out(job: Callable[[int], object], count: int, workers: int | None = None) -> Iterator:
    """Yield job(i) for i in range(count) in order, the jobs run on
    _pool_size(workers, count) processes; a free worker takes the next job
    not yet started.  The workers are forked and inherit ``job`` and
    everything it reads, so only i and each result are pickled; the caller
    must hold no thread of its own, which a fork would not copy.  A job's
    exception is raised again here.  Closing the iterator early, or an
    exception, cancels the jobs not yet started and waits for the running
    ones."""
    global _fan_out_job
    size = _pool_size(workers, count)
    if size < 2:
        yield from map(job, range(count))
        return
    # Imported here: the pool's modules cost every serial CLI process about
    # 20 ms of start-up.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    _fan_out_job = job  # set before the pool forks all its workers, at the first submit
    pool = ProcessPoolExecutor(size, mp_context=multiprocessing.get_context("fork"))
    try:
        yield from pool.map(_run_job, range(count))
    finally:
        pool.shutdown(cancel_futures=True)
        _fan_out_job = None


def pass_workers(coords: int, workers: int | None) -> int | None:
    """The workers a pass over ``coords`` coordinates fans out to."""
    return workers if coords >= FAN_OUT_FLOOR else 1


def _advanced(rng: np.random.Generator, steps: int) -> np.random.Generator:
    """A copy of rng's PCG64 moved on by ``steps`` 64-bit draws."""
    bit_generator = np.random.PCG64()
    bit_generator.state = rng.bit_generator.state
    return np.random.Generator(bit_generator.advance(steps))


def stream_groups(
    spec: NoiseSpec,
    rng: np.random.Generator,
    n: int,
    job: Callable[[slice, np.random.Generator], object],
    workers: int | None = None,
) -> list:
    """[job(group, gen) for each group of row_blocks(n, coords=_STREAM_CHUNK)],
    where gen draws the group's rows of spec's stream from rng, the same bits
    whoever draws them.  The groups fan out to pass_workers(n * d, workers)
    processes, each on a copy of rng positioned at its first row, when a
    row of the stream can be drawn from anywhere: a pareto or stable row
    takes 2d uniforms, one PCG64 step each, so a copy of the PCG64 advanced
    by r * 2d steps draws from row r on.  A gaussian row takes a
    data-dependent number of ziggurat steps, and other bit generators
    cannot be advanced, so those streams stay serial.  rng itself ends
    where the serial pass leaves it."""
    groups = list(row_blocks(n, coords=_STREAM_CHUNK))
    splits = spec.family in ("pareto", "stable") and type(rng.bit_generator) is np.random.PCG64
    workers = pass_workers(n * spec.dimension, workers) if splits else 1
    if not forks(workers, len(groups)):
        return [job(group, rng) for group in groups]
    steps = 2 * spec.dimension  # per row
    results = list(fan_out(lambda i: job(groups[i], _advanced(rng, groups[i].start * steps)),
                           len(groups), workers))
    # A double draw leaves the buffered 32-bit half alone; advance() clears it.
    state = rng.bit_generator.state
    state["state"] = _advanced(rng, n * steps).bit_generator.state["state"]
    rng.bit_generator.state = state
    return results


# ---------------------------------------------------------------------------
# Empirical moments of shifted draws, for the calibrated schedule constants.
# Each sums its terms per group of stream_groups, bit for bit, while drawing
# a sub-block at a time, and adds the group sums in order.


def norm_moment_root(
    spec: NoiseSpec, shift, alpha: float, n: int, rng: np.random.Generator,
    workers: int | None = None,
) -> float:
    """(empirical E||shift + xi||^alpha)^(1/alpha) over n draws xi of spec.
    The powered norms of a group fill one vector, which is summed whole.
    A norm that overflows makes the root inf, without a RuntimeWarning."""
    def group_sum(group, gen):
        sq = np.empty(group.stop - group.start)
        with np.errstate(over="ignore"):
            for part in row_blocks(len(sq), spec.dimension):
                block = sample_noise_batch(spec, gen, part.stop - part.start)
                block += shift
                row_sq_sums(block, sq[part])
            sq **= alpha / 2.0
        return float(np.sum(sq))

    total = 0.0
    for term in stream_groups(spec, rng, n, group_sum, workers):
        total += term
    return (total / n) ** (1.0 / alpha)


def coordinate_moment_roots(
    spec: NoiseSpec, shift, alpha: float, n: int, rng: np.random.Generator,
    workers: int | None = None,
) -> np.ndarray:
    """Per coordinate i, (empirical E|shift_i + xi_i|^alpha)^(1/alpha) over
    n draws xi of spec; each group's column sum is a column_sum.  A power
    that overflows makes its root inf, without a RuntimeWarning."""
    def group_sum(group, gen):
        def fill(part, out):
            np.add(sample_noise_batch(spec, gen, len(out)), shift, out=out)
            np.abs(out, out=out)
            out **= alpha

        with np.errstate(over="ignore"):
            return column_sum(group.stop - group.start, spec.dimension, fill)

    total = np.zeros(spec.dimension)
    for term in stream_groups(spec, rng, n, group_sum, workers):
        total += term
    return (total / n) ** (1.0 / alpha)


# Terms per leaf of _log_mean's sum; any leaf size gives the same bits.
_LOG_LEAF = 1 << 16


def _log_mean(x: np.ndarray) -> float:
    """np.mean(np.log(x)) of a 1-d x of n >= 1 floats, bit for bit, through
    logs of at most _LOG_LEAF terms at a time instead of n.

    numpy sums a contiguous vector pairwise: a range of more than 128 terms
    splits after n2 = n // 2 - (n // 2) % 8 of them, and each half is summed
    the same way.  So the range is split there until a part holds at most
    _LOG_LEAF terms, whose np.sum is its subtree's sum, and the parts are
    added up the tree (Higham, The accuracy of floating point summation, 1993).
    """
    def tree_sum(start: int, stop: int) -> float:
        n = stop - start
        if n <= _LOG_LEAF:
            return np.sum(np.log(x[start:stop]))
        half = n // 2 - (n // 2) % 8
        return tree_sum(start, start + half) + tree_sum(start + half, stop)

    return float(tree_sum(0, x.size) / x.size)


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
    light-tailed inputs to alpha_hat = 2.  Both means are _log_mean's, and
    the signs and block sums are drawn and taken a run of whole blocks at
    a time, so no other vector of n floats is held.  Zero samples are
    dropped; a negative or non-finite one is refused before any draw.
    """
    x = np.asarray(samples, dtype=float)
    if x.ndim != 1:
        raise ConfigurationError("tail_index expects a 1-d sample array")
    if not np.isfinite(x).all():
        i = int(np.argmin(np.isfinite(x)))
        raise ConfigurationError(f"tail_index expects finite samples; sample {i} is {float(x[i])!r}")
    if np.any(x < 0):
        raise ConfigurationError("tail_index expects nonnegative samples")
    if not np.all(x > 0):
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
    # signs and sums a run of whole blocks at a time: rng.random(n)'s bits, summed per row
    block_sums = np.empty(m)
    for part in row_blocks(m, k):
        rows = x[part.start * k:part.stop * k].reshape(-1, k)
        signed = np.where(rng.random(rows.shape) < 0.5, -rows, rows)
        np.abs(signed.sum(axis=1), out=block_sums[part])
    block_sums = block_sums[block_sums > 0]
    if block_sums.size < 2:
        raise ConfigurationError("all block sums vanished; cannot estimate tail index")
    inv = (_log_mean(block_sums) - _log_mean(x)) / math.log(k)
    alpha = 2.0 if inv <= 0.5 else 1.0 / inv
    return float(min(alpha, 2.0))

