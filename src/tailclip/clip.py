"""Clipping operators and Monte-Carlo probes of their bias/variance.

gclip rescales the whole vector so its norm never exceeds tau; cclip clamps
each coordinate to its own threshold; acclip_step advances the adaptive
coordinate-wise state (momentum + running moment estimate).  The zero
convention throughout: a zero gradient (or coordinate) is returned
unchanged, the continuous extension of min{tau/|g|, 1} * g.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

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


@dataclass
class ACClipParams:
    """Defaults follow the reference hyperparameters: beta1=0.9, beta2=0.99,
    moment exponent alpha=1 (the conservative choice), epsilon=1e-5."""

    beta1: float = 0.9
    beta2: float = 0.99
    alpha: float = 1.0
    epsilon: float = 1e-5

    def __post_init__(self):
        if not (0.0 <= self.beta1 <= 1.0) or not (0.0 <= self.beta2 <= 1.0):
            raise ConfigurationError("beta1 and beta2 must lie in [0, 1]")
        if not (1.0 <= self.alpha <= 2.0):
            raise ConfigurationError("alpha must lie in [1, 2]")
        if self.epsilon < 0:
            raise ConfigurationError("epsilon must be nonnegative")


@dataclass
class ACClipState:
    """Mutable state of the adaptive clipping loop.

    ``tau_alpha`` tracks the exponential moving average of |g|^alpha per
    coordinate (tau_0^alpha = 0, no bias correction), so early steps clip
    aggressively until the estimate warms up.
    """

    x: np.ndarray
    params: ACClipParams = field(default_factory=ACClipParams)
    m: np.ndarray | None = None
    tau_alpha: np.ndarray | None = None
    k: int = 0

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        if self.m is None:
            self.m = np.zeros_like(self.x)
        if self.tau_alpha is None:
            self.tau_alpha = np.zeros_like(self.x)
        self.m = np.asarray(self.m, dtype=float)
        self.tau_alpha = np.asarray(self.tau_alpha, dtype=float)
        if self.m.shape != self.x.shape or self.tau_alpha.shape != self.x.shape:
            raise ConfigurationError("state vectors must share the iterate's dimension")
        if np.any(self.tau_alpha < 0):
            raise ConfigurationError("tau_alpha must be nonnegative elementwise")


def acclip_factors(m: np.ndarray, tau: np.ndarray, epsilon: float) -> np.ndarray:
    """Per-coordinate clip factors min{tau/(|m|+eps), 1} with 0/0 -> 1."""
    denom = np.abs(m) + epsilon
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(denom > 0.0, tau / denom, 1.0)
    return np.minimum(ratio, 1.0)


def acclip_step(state: ACClipState, g: np.ndarray, eta: float) -> ACClipState:
    """One adaptive coordinate-wise clipping update; returns the new state.

    m <- b1*m + (1-b1)*g; tau^a <- b2*tau^a + (1-b2)*|g|^a;
    x <- x - eta * min{tau/(|m|+eps), 1} * m.
    """
    g = np.asarray(g, dtype=float)
    if g.shape != state.x.shape:
        raise ConfigurationError("gradient dimension does not match state")
    if eta <= 0:
        raise ConfigurationError("eta must be positive")
    p = state.params
    m = p.beta1 * state.m + (1.0 - p.beta1) * g
    tau_alpha = p.beta2 * state.tau_alpha + (1.0 - p.beta2) * np.abs(g) ** p.alpha
    tau = tau_alpha ** (1.0 / p.alpha)
    g_hat = acclip_factors(m, tau, p.epsilon) * m
    return replace(state, x=state.x - eta * g_hat, m=m, tau_alpha=tau_alpha, k=state.k + 1)


# ---------------------------------------------------------------------------
# Monte-Carlo probe of the clipped estimator's second moment and bias against
# the analytic bounds G^a t^(2-a) / G^(2a) t^(-2(a-1)) (any gradient) and
# 2||grad||^2 + 4 s^a t^(2-a) / 4 s^(2a) t^(-2(a-1)) (when ||grad|| <= t/2).


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
    smooth_bound_second_moment: float | None
    smooth_bound_bias: float | None


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
    grad_norm = float(np.linalg.norm(true_grad))
    smooth_second = smooth_bias = None
    if grad_norm <= tau / 2.0:
        smooth_second = 2.0 * grad_norm**2 + 4.0 * sigma_mom * tau ** (2.0 - alpha)
        smooth_bias = 2.0 * sigma_mom * tau ** (1.0 - alpha)
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
        smooth_bound_second_moment=smooth_second,
        smooth_bound_bias=smooth_bias,
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
    constants in the bounds are estimated from the same draws.  The
    smooth-case bounds are reported only when ||true_grad|| <= tau/2.
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
