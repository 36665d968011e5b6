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
from .noise import NoiseSpec, column_sum, row_sq_sums, sample_noise_batch, stream_groups


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
    workers: int | None = None,
) -> list[ProbeResult]:
    """Draw n gradients true_grad + noise, clip them globally at each
    threshold in ``taus``, and compare the empirical second moment and bias
    against the analytic bounds.

    Every threshold sees the same draws, which makes the variance-vs-tau
    comparison exact sample-wise instead of only in expectation.  The moment
    constants in the bounds are estimated from the same draws.

    The draws are summarised one group of noise.stream_groups at a time, on
    up to ``workers`` forked processes (by default one per core), and never
    held whole.  Each group gives, per threshold, the (count, mean, M2) of
    its clipped rows by column (column_sum passes) and of their squared
    norms; these are folded in group order by _fold, starting from the
    first group itself.  E||g||^alpha is the in-order sum of the groups'
    sums over n.  So up to one group (65,536 rows) every figure is numpy's
    whole-array mean, var(ddof=1) or std(ddof=1) bit for bit, and above it
    depends on n alone, never on the worker count.

    Refused before any draw: n below 1e4, alpha outside (1, 2], a threshold
    that is not positive, and pareto or stable (index below 2) noise whose
    tail index is at most alpha, where E||g||^alpha is infinite.  Refused
    after the draws: a figure that is not finite, as when a squared norm
    overflows.
    """
    if n < 10**4:
        raise ConfigurationError("probe needs at least 1e4 samples")
    if not 1.0 < alpha <= 2.0:  # written so that NaN fails too
        raise ConfigurationError(f"moment exponent alpha must lie in (1, 2], got {alpha!r}")
    a = noise.tail_index
    if (noise.family == "pareto" or noise.family == "stable" and a < 2.0) and alpha >= a:
        raise ConfigurationError(f"E||g||^alpha is infinite for {noise.family} noise of tail "
                                 f"index {a:g}: the moment exponent alpha = {alpha:g} must lie below it")
    taus = [float(t) for t in taus]
    for t in taus:
        if not t > 0.0:
            raise ConfigurationError(f"clip thresholds must be positive, got {t!r}")
    true_grad = np.asarray(true_grad, dtype=float)
    d = noise.dimension

    def summary(group, gen):
        """sum ||g||^alpha over the group, and per threshold the (count,
        mean, M2) of the clipped rows and of their squared norms."""
        m = group.stop - group.start
        with np.errstate(over="ignore", invalid="ignore"):  # refused below, warning-free
            rows = sample_noise_batch(noise, gen, m)
            rows += true_grad
            norms = row_sq_sums(rows, np.empty(m))
            np.sqrt(norms, out=norms)
            factors, sq = np.empty(m), np.empty(m)
            stats = []
            for tau in taus:
                factors.fill(1.0)
                np.divide(tau, norms, out=factors, where=norms > tau)

                def first(part, out):  # also keeps the clipped rows' squared norms
                    row_sq_sums(np.multiply(rows[part], factors[part, None], out=out), sq[part])

                mean = column_sum(m, d, first) / m

                def centred(part, out):  # (c - mean)**2
                    np.multiply(rows[part], factors[part, None], out=out)
                    np.square(np.subtract(out, mean, out=out), out=out)

                sq_mean = np.sum(sq) / m
                np.square(np.subtract(sq, sq_mean, out=sq), out=sq)
                stats.append(((m, mean, column_sum(m, d, centred)), (m, sq_mean, np.sum(sq))))
            return float(np.sum(norms**alpha)), stats

    summaries = stream_groups(noise, rng, n, summary, workers)
    total = 0.0
    for power_sum, _ in summaries:
        total += power_sum
    g_mom = total / n
    if not math.isfinite(g_mom):
        raise ConfigurationError(f"{n} draws estimate E||g||^alpha = {g_mom!r}, which must be finite")

    folded = summaries[0][1]
    with np.errstate(over="ignore", invalid="ignore"):  # refused below, warning-free
        for _, stats in summaries[1:]:
            folded = [(_fold(c, gc), _fold(s, gs)) for (c, s), (gc, gs) in zip(folded, stats)]
    results = []
    for tau, ((_, mean_clip, m2), (_, second, second_m2)) in zip(taus, folded):
        result = ProbeResult(
            tau=tau,
            second_moment=float(second),
            second_moment_se=math.sqrt(second_m2 / (n - 1)) / math.sqrt(n),
            bias_norm=float(np.linalg.norm(mean_clip - true_grad)),
            bias_se=math.sqrt(np.sum(m2 / (n - 1)) / n),
            g_moment=g_mom,
            bound_second_moment=g_mom * tau ** (2.0 - alpha),
            bound_bias=g_mom * tau ** (1.0 - alpha),
        )
        for name, value in vars(result).items():
            if not math.isfinite(value):
                raise ConfigurationError(f"{n} draws clipped at tau = {tau:g} give {name} = "
                                         f"{value!r}, which must be finite")
        results.append(result)
    return results


def _fold(a, b):
    """The (count, mean, M2) of two parts from each part's, by the pairwise
    update of Chan, Golub and LeVeque: with delta = mean_b - mean_a,
    mean = mean_a + delta nb / n and M2 = M2_a + (M2_b + delta^2 na nb / n)."""
    (na, mean_a, m2_a), (nb, mean_b, m2_b) = a, b
    count = na + nb
    delta = mean_b - mean_a
    return count, mean_a + delta * nb / count, m2_a + (m2_b + delta * delta * na * nb / count)
