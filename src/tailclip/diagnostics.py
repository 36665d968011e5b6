"""Rate fitting and correspondence checks over recorded traces.

fit_loglog_slope regresses log metric on log k to read off an empirical
convergence-rate exponent; bound_envelope_check compares a seed-averaged
metric against an analytic envelope; sandwich_steps relates the effective
step size of an RMSProp-style update to that of threshold clipping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, InsufficientDataError
from .optimizers import Trace


@dataclass
class SlopeFit:
    slope: float
    intercept: float
    r_squared: float
    k_range: tuple[float, float]
    n_points: int


def fit_loglog_slope(
    trace: Trace,
    metric: str = "suboptimality",
    k_range: tuple[float, float] | None = None,
) -> SlopeFit:
    """Ordinary least squares of log(metric) on log(k).

    The trace should already be seed-averaged (metric-space averaging
    before logs).  Nonpositive metric values are dropped; at least three
    points must survive.
    """
    vals = np.asarray(trace.metric(metric), dtype=float)
    ks = np.asarray(trace.ks, dtype=float)
    if k_range is None:
        k_range = (float(ks[0]), float(ks[-1]))
    kmin, kmax = float(k_range[0]), float(k_range[1])
    if kmin >= kmax:
        raise ConfigurationError("k_range must satisfy k_min < k_max")
    keep = (ks >= kmin) & (ks <= kmax) & (vals > 0.0)
    ks, vals = ks[keep], vals[keep]
    if ks.size < 3:
        raise InsufficientDataError(
            f"need >= 3 positive points in k range [{kmin}, {kmax}], have {ks.size}"
        )
    lx, ly = np.log(ks), np.log(vals)
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    ss_res = float(resid @ resid)
    centered = ly - ly.mean()
    ss_tot = float(centered @ centered)
    r2 = 1.0 if ss_tot == 0.0 and ss_res <= 1e-30 else (1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0)
    return SlopeFit(
        slope=float(slope),
        intercept=float(intercept),
        r_squared=float(min(max(r2, 0.0), 1.0)),
        k_range=(kmin, kmax),
        n_points=int(ks.size),
    )


@dataclass
class EnvelopeResult:
    violations: list[int]
    max_excess: float

    @property
    def passed(self) -> bool:
        return not self.violations


def bound_envelope_check(
    trace: Trace,
    bound,
    metric: str = "suboptimality",
    k_min: int = 1,
) -> EnvelopeResult:
    """List every recorded k >= k_min where the metric exceeds bound(k).

    Equality is a pass.  A non-finite value (a diverged run) is a violation
    with infinite excess.  ``max_excess`` is the largest relative excess
    (value/bound - 1) among violations, 0 when there are none.
    """
    vals = np.asarray(trace.metric(metric), dtype=float)
    ks = np.asarray(trace.ks)
    violations: list[int] = []
    max_excess = 0.0
    for k, val in zip(ks, vals):
        if k < k_min:
            continue
        b = float(bound(int(k)))
        if not math.isfinite(val) or val > b:
            violations.append(int(k))
            if b > 0 and math.isfinite(val):
                max_excess = max(max_excess, val / b - 1.0)
            else:
                max_excess = math.inf
    return EnvelopeResult(violations=violations, max_excess=max_excess)


def strongly_convex_bound(mu: float, G: float, alpha: float):
    """Envelope 16 G^2 / (mu (k+1)^(2(alpha-1)/alpha)) for averaged iterates."""
    expo = 2.0 * (alpha - 1.0) / alpha

    def bound(k: int) -> float:
        return 16.0 * G * G / (mu * (k + 1.0) ** expo)

    return bound


# ---------------------------------------------------------------------------
# RMSProp-as-clipping effective step sizes.  For v >= 0 and gradient g the
# RMSProp step is h_adam = a / (eps + sqrt(b2 v + (1-b2) g^2)); matching the
# clipping parameters eta = 2a/(eps + sqrt(b2 v)) and
# tau = (eps + sqrt(b2 v))/sqrt(1-b2) gives h_clip = eta min{tau/|g|, 1}.
# Case analysis on whether clipping is active shows
# h_clip/4 <= h_adam <= h_clip/2, comfortably inside the 1/4..2 band.


def _refuse_bad_sandwich(v, g, a: float, beta2: float, epsilon: float):
    if not (a > 0 and epsilon > 0 and 0.0 < beta2 < 1.0
            and np.all((v >= 0) & (v < math.inf)) and np.all(np.isfinite(g))):
        raise ConfigurationError(
            "sandwich: require a > 0, epsilon > 0, beta2 in (0, 1), finite v >= 0 and finite g "
            f"(got a={a}, epsilon={epsilon}, beta2={beta2})"
        )


def sandwich_steps(v, g, a: float = 1e-3, beta2: float = 0.99, epsilon: float = 1e-8):
    """(h_adam, h_clip): the two effective step sizes at each (v, g) pair,
    for arrays or scalars of second-moment estimates v and gradients g."""
    v, g = np.asarray(v, dtype=float), np.asarray(g, dtype=float)
    _refuse_bad_sandwich(v, g, a, beta2, epsilon)
    root = np.sqrt(beta2 * v)
    h_adam = a / (epsilon + np.sqrt(beta2 * v + (1.0 - beta2) * g * g))
    eta = 2.0 * a / (epsilon + root)
    tau = (epsilon + root) / math.sqrt(1.0 - beta2)
    absg = np.abs(g)
    factors = np.ones(absg.shape)
    np.divide(tau, absg, out=factors, where=absg > tau)
    return h_adam, eta * factors


@dataclass
class FuzzResult:
    n: int
    violations: int
    min_ratio: float
    max_ratio: float

    @property
    def passed(self) -> bool:
        return self.violations == 0


def sandwich_fuzz(
    n: int,
    rng: np.random.Generator,
    v_max: float = 100.0,
    g_max: float = 100.0,
    a: float = 1e-3,
    beta2: float = 0.99,
    epsilon: float = 1e-8,
) -> FuzzResult:
    """Fuzz the quarter-to-double band over (v, g) in [0, v_max] x [-g_max, g_max]."""
    if n < 1:
        raise ConfigurationError("fuzz size must be positive")
    _refuse_bad_sandwich(v_max, g_max, a, beta2, epsilon)
    v = rng.random(n) * v_max
    g = (rng.random(n) * 2.0 - 1.0) * g_max
    h_adam, h_clip = sandwich_steps(v, g, a, beta2, epsilon)
    ratio = h_adam / h_clip
    bad = int(np.sum((h_adam < 0.25 * h_clip) | (h_adam > 2.0 * h_clip)))
    return FuzzResult(
        n=n,
        violations=bad,
        min_ratio=float(ratio.min()),
        max_ratio=float(ratio.max()),
    )
