"""Rate fitting and correspondence checks over recorded traces.

fit_loglog_slope regresses log metric on log k to read off an empirical
convergence-rate exponent; bound_envelope_check compares a seed-averaged
metric against an analytic envelope; sandwich_steps relates the effective
step size of an RMSProp-style update to that of threshold clipping.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .noise import row_blocks
from .report import Verdict
from .traces import Trace


@dataclass
class SlopeFit:
    slope: float
    intercept: float
    r_squared: float
    n_points: int


def fit_loglog_slope(
    trace: Trace,
    metric: str = "suboptimality",
    k_range: tuple[float, float] | None = None,
) -> SlopeFit:
    """Weighted least squares of log(metric) on log(k).

    Each point weighs its trapezoid share of the fitted log k range, so a
    denser record grid does not tilt the fit toward large k.  r_squared is
    the weighted r^2.  The trace should already be seed-averaged
    (metric-space averaging before logs).  Nonpositive metric values are
    dropped; at least three points must survive.
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
        raise ConfigurationError(
            f"the slope fit needs >= 3 positive points in k range [{kmin:g}, {kmax:g}], "
            f"has {ks.size}"
        )
    # Four arrays of the fitted length, reused once spent: the plain formulas' bits.
    lx, ly = np.log(ks, out=ks), np.log(vals, out=vals)  # ks and vals are copies
    w = np.append(np.diff(lx), 0.0)
    w[1:] += w[:-1]  # twice the trapezoid weights, gaps[i] + gaps[i - 1]: numpy buffers the overlap
    mean_x, mean_y = (w @ lx) / w.sum(), (w @ ly) / w.sum()
    dx, dy = np.subtract(lx, mean_x, out=lx), np.subtract(ly, mean_y, out=ly)
    wdx = w * dx
    slope = wdx @ dy / (wdx @ dx)
    intercept = mean_y - slope * mean_x
    resid = np.subtract(dy, np.multiply(slope, dx, out=dx), out=wdx)  # dy - slope * dx
    ss_res = float(np.multiply(w, resid, out=dx) @ resid)
    ss_tot = float(np.multiply(w, dy, out=dx) @ dy)
    r2 = 1.0 if ss_tot == 0.0 and ss_res <= 1e-30 else (1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0)
    return SlopeFit(
        slope=float(slope),
        intercept=float(intercept),
        r_squared=float(min(max(r2, 0.0), 1.0)),
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
    keep = ks >= k_min
    ks, vals = ks[keep], vals[keep]
    # bound takes Python ints one at a time: its ** is then C pow, not numpy's power
    bounds = np.fromiter(map(bound, map(int, ks)), float, len(ks))
    violations: list[int] = []
    max_excess = 0.0
    for i in np.flatnonzero(~np.isfinite(vals) | (vals > bounds)).tolist():
        val, b = float(vals[i]), float(bounds[i])
        violations.append(int(ks[i]))
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
    def verdicts(self) -> list[Verdict]:
        """No pair leaves the [1/4, 2] band, and some pair falls below 1/2,
        which only pairs where clipping is active reach."""
        return [
            Verdict("sandwich_band", "fuzzed pairs with h_adam/h_clip outside [1/4, 2]",
                    f"{self.violations} of {self.n}", "0", self.violations == 0),
            Verdict("sandwich_min_ratio", "smallest h_adam/h_clip below the 1/2 constant",
                    f"{self.min_ratio:.6f}", "< 0.5", self.min_ratio < 0.5),
        ]

    @property
    def passed(self) -> bool:
        return all(v.passed for v in self.verdicts)


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
    # a sub-block of pairs at a time, v from a copy of rng and g from rng past the n
    # v-draws: two whole draws' bits; the count, min and max do not depend on the order
    v_rng = copy.deepcopy(rng)
    for part in row_blocks(n):
        rng.random(part.stop - part.start)
    bad, min_ratio, max_ratio = 0, math.inf, -math.inf
    for part in row_blocks(n):
        size = part.stop - part.start
        v = v_rng.random(size) * v_max
        g = (rng.random(size) * 2.0 - 1.0) * g_max
        h_adam, h_clip = sandwich_steps(v, g, a, beta2, epsilon)
        ratio = h_adam / h_clip
        bad += int(np.count_nonzero((h_adam < 0.25 * h_clip) | (h_adam > 2.0 * h_clip)))
        min_ratio = min(min_ratio, float(ratio.min()))
        max_ratio = max(max_ratio, float(ratio.max()))
    return FuzzResult(n=n, violations=bad, min_ratio=min_ratio, max_ratio=max_ratio)
