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
from .noise import (
    NoiseSpec,
    column_sum,
    fan_out,
    pass_workers,
    row_sq_sums,
    sample_noise_batch,
    stream_groups,
    stream_workers,
    worker_array,
)


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
    workers: int = 1,
) -> list[ProbeResult]:
    """Draw n gradients true_grad + noise, clip them globally at each
    threshold in ``taus``, and compare the empirical second moment and bias
    against the analytic bounds.

    Every threshold sees the same draws, which makes the variance-vs-tau
    comparison exact sample-wise instead of only in expectation.  The moment
    constants in the bounds are estimated from the same draws.

    With two or more ``workers`` and at least FAN_OUT_FLOOR coordinates,
    the draws are made a stream group per job on forked workers, and then
    each threshold is a job.  Every figure keeps its bits.
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
    workers = pass_workers(n * d, workers)
    draw_workers = stream_workers(noise, rng, n, workers)
    draws, norms = worker_array((n, d), draw_workers), worker_array(n, draw_workers)

    def draw(group, gen):
        rows = sample_noise_batch(noise, gen, group.stop - group.start, out=draws[group])
        rows += true_grad
        np.sqrt(row_sq_sums(rows, norms[group]), out=norms[group])

    stream_groups(noise, rng, n, draw, workers)
    g_mom = float(np.mean(norms**alpha))

    # The clipped rows c = draws * min(tau / norms, 1) are built a sub-block at
    # a time, never all at once.
    def clipped(tau, part, out):
        factors = np.ones(part.stop - part.start)
        np.divide(tau, norms[part], out=factors, where=norms[part] > tau)
        return np.multiply(draws[part], factors[:, None], out=out)

    def probe(i):
        """np.mean and np.var(ddof=1) of c over rows, and the mean of c's
        squared row norms and its standard error, at the i-th threshold."""
        tau, sq = taus[i], np.empty(n)

        def first(part, out):  # also keeps the clipped rows' squared norms
            row_sq_sums(clipped(tau, part, out), sq[part])

        mean = column_sum(n, d, first) / n

        def centred(part, out):  # (c - mean)**2: sum, divide by n, subtract, square, sum
            np.square(np.subtract(clipped(tau, part, out), mean, out=out), out=out)

        var = column_sum(n, d, centred) / (n - 1)
        return mean, var, float(np.mean(sq)), float(np.std(sq, ddof=1) / math.sqrt(n))

    results = []
    for tau, (mean_clip, var, second, second_se) in zip(taus, fan_out(probe, len(taus), workers)):
        results.append(ProbeResult(
            tau=tau,
            second_moment=second,
            second_moment_se=second_se,
            bias_norm=float(np.linalg.norm(mean_clip - true_grad)),
            bias_se=float(math.sqrt(np.sum(var) / n)),
            g_moment=g_mom,
            bound_second_moment=g_mom * tau ** (2.0 - alpha),
            bound_bias=g_mom * tau ** (1.0 - alpha),
        ))
    return results
