"""Clipping operators and Monte-Carlo probes of their bias/variance.

gclip rescales the whole vector so its norm never exceeds tau; cclip clamps
each coordinate to its own threshold; acclip_factors gives the adaptive
coordinate-wise clip factors.  The zero convention throughout: a zero
gradient (or coordinate) is returned unchanged, the continuous extension of
min{tau/|g|, 1} * g.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .noise import NoiseSpec, sample_noise_batch


def gclip(g: np.ndarray, tau: float) -> np.ndarray:
    """min{tau/||g||, 1} * g, with g returned unchanged when ||g|| = 0."""
    if tau < 0:
        raise ConfigurationError("tau must be nonnegative")
    g = np.asarray(g, dtype=float)
    peak = float(np.max(np.abs(g))) if g.size else 0.0
    if peak == 0.0:
        return g.copy()
    # scale by the peak so the squared sum cannot under/overflow
    scaled = g / peak
    unit_norm = math.sqrt(float(scaled @ scaled))
    if peak * unit_norm <= tau:
        return g.copy()
    # rescale the peak-scaled vector: tau / ||g|| itself can underflow
    return scaled * (tau / unit_norm)


def cclip(g: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """Elementwise min{tau_i/|g_i|, 1} * g_i (sign preserved)."""
    g = np.asarray(g, dtype=float)
    tau = np.asarray(tau, dtype=float)
    if tau.shape != g.shape:
        raise ConfigurationError(f"threshold shape {tau.shape} does not match gradient {g.shape}")
    if np.any(tau < 0):
        raise ConfigurationError("thresholds must be nonnegative")
    return np.clip(g, -tau, tau)


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
    n: int
    second_moment: float
    second_moment_se: float
    bias_norm: float
    bias_se: float
    g_moment: float  # empirical E||g||^alpha
    sigma_moment: float  # empirical E||g - grad||^alpha
    bound_second_moment: float
    bound_bias: float


def _probe_from_draws(
    draws: np.ndarray, true_grad: np.ndarray, tau: float, alpha: float
) -> ProbeResult:
    n = draws.shape[0]
    norms = np.sqrt(np.sum(draws * draws, axis=1))
    factors = np.ones(n)
    np.divide(tau, norms, out=factors, where=norms > tau)
    clipped = draws * factors[:, None]
    sq = np.sum(clipped * clipped, axis=1)
    second = float(np.mean(sq))
    second_se = float(np.std(sq, ddof=1) / math.sqrt(n))
    mean_clip = clipped.mean(axis=0)
    bias_vec = mean_clip - true_grad
    bias_norm = float(np.linalg.norm(bias_vec))
    bias_se = float(math.sqrt(np.sum(np.var(clipped, axis=0, ddof=1)) / n))
    g_mom = float(np.mean(norms**alpha))
    noise = draws - true_grad
    sigma_mom = float(np.mean(np.sum(noise * noise, axis=1) ** (alpha / 2.0)))
    return ProbeResult(
        tau=tau,
        n=n,
        second_moment=second,
        second_moment_se=second_se,
        bias_norm=bias_norm,
        bias_se=bias_se,
        g_moment=g_mom,
        sigma_moment=sigma_mom,
        bound_second_moment=g_mom * tau ** (2.0 - alpha),
        bound_bias=g_mom * tau ** (1.0 - alpha),
    )


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
    taus = [float(t) for t in taus]
    for t in taus:
        if not t > 0.0:
            raise ConfigurationError(f"clip thresholds must be positive, got {t!r}")
    true_grad = np.asarray(true_grad, dtype=float)
    draws = sample_noise_batch(noise, rng, n) + true_grad
    return [_probe_from_draws(draws, true_grad, t, alpha) for t in taus]
