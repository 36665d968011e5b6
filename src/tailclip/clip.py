"""Adaptive clip factors and Monte-Carlo probes of the clipped estimator.

acclip_factors gives the adaptive coordinate-wise clip factors; the run loop
in ``optimizers`` applies global and coordinate-wise clipping itself.  The
zero convention throughout: a zero gradient (or coordinate) is returned
unchanged, the continuous extension of min{tau/|g|, 1} * g.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .noise import NoiseSpec, _sub_rows, iter_blocks, row_sq_sums


def acclip_factors(m: np.ndarray, tau: np.ndarray, epsilon: float) -> np.ndarray:
    """Per-coordinate clip factors min{tau/(|m|+eps), 1} with 0/0 -> 1."""
    denom = np.abs(m) + epsilon
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(denom > 0.0, tau / denom, 1.0)
    return np.minimum(ratio, 1.0)


# ---------------------------------------------------------------------------
# Monte-Carlo probe of the clipped estimator's second moment and bias against
# the analytic bounds G^a t^(2-a) / G^(2a) t^(-2(a-1)).


@dataclass
class ProbeResult:
    tau: float
    second_moment: float
    second_moment_se: float
    bias_norm: float
    bias_se: float
    g_moment: float  # empirical E||g||^alpha
    bound_second_moment: float
    bound_bias: float


def bias_variance_grid(
    noise: NoiseSpec,
    true_grad: np.ndarray,
    taus: list[float],
    n: int,
    rng: np.random.Generator,
    alpha: float,
) -> list[ProbeResult]:
    """Draw n gradients true_grad + noise, clip them globally at each
    threshold in ``taus``, and compare the empirical second moment and bias
    against the analytic bounds.

    Every threshold sees the same draws, which makes the variance-vs-tau
    comparison exact sample-wise instead of only in expectation.  The moment
    constants in the bounds are estimated from the same draws.
    """
    if n < 10**4:
        raise ConfigurationError("probe needs at least 1e4 samples")
    if not 1.0 < alpha <= 2.0:  # written so that NaN fails too
        raise ConfigurationError(f"moment exponent alpha must lie in (1, 2], got {alpha!r}")
    taus = [float(t) for t in taus]
    for t in taus:
        if not t > 0.0:
            raise ConfigurationError(f"clip thresholds must be positive, got {t!r}")
    true_grad = np.asarray(true_grad, dtype=float)
    d = noise.dimension
    draws, start = np.empty((n, d)), 0
    for block in iter_blocks(noise, rng, n):
        np.add(block, true_grad, out=draws[start:start + len(block)])
        start += len(block)
    del block  # the last block would otherwise live as long as the draws
    norms = np.sqrt(row_sq_sums(draws, np.empty(n)))
    g_mom = float(np.mean(norms**alpha))
    # The clipped rows are built a block at a time, never all at once.  At
    # d >= 2 np.sum(axis=0) adds row after row, so a block's sum with the
    # running total carried in as its first row is the whole array's sum; at
    # d = 1 it sums an (n, 1) column pairwise, so there one block is the column.
    rows = n if d == 1 else min(_sub_rows(d), n)
    buf, factors, sq, results = np.empty((rows + 1, d)), np.empty(n), np.empty(n), []
    for tau in taus:
        factors.fill(1.0)
        np.divide(tau, norms, out=factors, where=norms > tau)
        mean_clip = _clipped_column_sum(draws, factors, buf, sq=sq) / n
        # np.var(clipped, axis=0, ddof=1): sum, divide by n, subtract, square, sum
        var = _clipped_column_sum(draws, factors, buf, mean=mean_clip) / (n - 1)
        results.append(ProbeResult(
            tau=tau,
            second_moment=float(np.mean(sq)),
            second_moment_se=float(np.std(sq, ddof=1) / math.sqrt(n)),
            bias_norm=float(np.linalg.norm(mean_clip - true_grad)),
            bias_se=float(math.sqrt(np.sum(var) / n)),
            g_moment=g_mom,
            bound_second_moment=g_mom * tau ** (2.0 - alpha),
            bound_bias=g_mom * tau ** (1.0 - alpha),
        ))
    return results


def _clipped_column_sum(draws, factors, buf, sq=None, mean=None) -> np.ndarray:
    """np.sum(c, axis=0) of the clipped rows c = draws * factors[:, None],
    or of (c - mean)**2 when ``mean`` is given, through len(buf) - 1 rows of
    c at a time in buf[1:]; buf[0] carries the running sum.  ``sq`` receives
    the clipped rows' squared norms."""
    n, rows, total = len(draws), len(buf) - 1, None
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        block = buf[1:1 + stop - start]
        np.multiply(draws[start:stop], factors[start:stop, None], out=block)
        if sq is not None:
            row_sq_sums(block, sq[start:stop])
        if mean is not None:
            np.square(np.subtract(block, mean, out=block), out=block)
        if total is None:
            total = np.sum(block, axis=0)
        else:
            buf[0] = total
            total = np.sum(buf[:1 + stop - start], axis=0)
    return total
