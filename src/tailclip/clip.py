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
from .noise import NoiseSpec, column_sum, row_sq_sums, sample_noise_batch


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
    draws = sample_noise_batch(noise, rng, n)
    draws += true_grad
    norms = np.sqrt(row_sq_sums(draws, np.empty(n)))
    g_mom = float(np.mean(norms**alpha))
    # The clipped rows c = draws * factors[:, None] are built a block at a
    # time, never all at once.
    factors, sq, results = np.empty(n), np.empty(n), []

    def clipped(part, out):  # also keeps the clipped rows' squared norms
        np.multiply(draws[part], factors[part, None], out=out)
        row_sq_sums(out, sq[part])

    def centred(part, out):  # (c - mean)**2
        np.multiply(draws[part], factors[part, None], out=out)
        np.square(np.subtract(out, mean_clip, out=out), out=out)

    for tau in taus:
        factors.fill(1.0)
        np.divide(tau, norms, out=factors, where=norms > tau)
        mean_clip = column_sum(n, d, clipped) / n
        # np.var(clipped, axis=0, ddof=1): sum, divide by n, subtract, square, sum
        var = column_sum(n, d, centred) / (n - 1)
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

