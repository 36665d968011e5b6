"""Composite validation suites behind the CLI subcommands.

Each suite bundles a set of numeric checks into Verdict records so the
same logic backs both the command line and the acceptance tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .clip import ProbeResult, bias_variance_grid
from .errors import ConfigurationError
from .noise import (
    NoiseSpec,
    fan_out,
    pass_workers,
    row_blocks,
    row_sq_sums,
    sample_noise_batch,
    tail_index,
)
from .problems import (
    LowerBoundInstance,
    chain_gradient_raw,
    chain_value_and_gradient,
    chain_value_raw,
    prog,
)
from .report import Verdict


@dataclass
class SuiteResult:
    """The verdicts of one suite; it passes when every verdict does."""

    verdicts: list[Verdict] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(v.passed for v in self.verdicts)


# ---------------------------------------------------------------------------
# Noise probe: variance curve + tail index + histogram for one spec.


@dataclass
class NoiseProbeResult:
    variance_curve: list[tuple[int, float]]
    tail: float | None
    histogram: tuple[np.ndarray, np.ndarray]  # (counts, edges)


def noise_probe(
    spec: NoiseSpec,
    n: int,
    rng: np.random.Generator,
    block_size: int = 100,
    bins: int = 50,
) -> NoiseProbeResult:
    """One draw of max(n, 2 * block_size) vectors, kept as one squared norm
    each.  The second moment at c = 1e3, 1e4, ... and n is the mean of the
    first c; the tail index reads the first max(n - n % block_size,
    2 * block_size) norms and the histogram the first min(n, 1e5).  A
    second moment that overflows to inf is refused."""
    if n < 1:
        raise ConfigurationError(f"noise probe needs n >= 1 draws, got {n}")
    checkpoints = []
    c = 1000
    while c < n:
        checkpoints.append(c)
        c *= 10
    checkpoints.append(n)
    sq = np.empty(max(n, 2 * block_size))
    with np.errstate(over="ignore"):  # refused below, without a RuntimeWarning
        for part in row_blocks(sq.size, spec.dimension):
            row_sq_sums(sample_noise_batch(spec, rng, part.stop - part.start), sq[part])
        curve = [(c, float(np.sum(sq[:c])) / c) for c in checkpoints]
    for c, moment in curve:
        if not math.isfinite(moment):
            raise ConfigurationError(f"the empirical second moment of the first {c} draws "
                                     f"overflowed to {moment!r}; it must be finite")
    norms = np.sqrt(sq, out=sq)
    tail_norms = norms[:max(n - n % block_size, 2 * block_size)]
    tail = tail_index(tail_norms, block_size, rng=rng) if np.any(tail_norms > 0) else None
    hist_norms = norms[:min(n, 10**5)]
    hi = float(np.quantile(hist_norms, 0.999))
    counts, edges = np.histogram(hist_norms, bins=bins, range=(0.0, max(hi, 1e-12)))
    return NoiseProbeResult(variance_curve=curve, tail=tail, histogram=(counts, edges))


# ---------------------------------------------------------------------------
# Bias/variance lemma probe over a threshold grid.


@dataclass
class LemmaCheckResult(SuiteResult):
    probes: list[ProbeResult] = field(default_factory=list)


def lemma_check(
    noise: NoiseSpec,
    taus: list[float],
    n: int,
    rng: np.random.Generator,
    alpha: float,
    grad_norm: float = 1.0,
    workers: int | None = None,
) -> LemmaCheckResult:
    """Probe the clipped estimator over a threshold grid on shared draws,
    with up to ``workers`` processes (by default one per core).

    Checks, at every grid point, that the empirical second moment and bias
    stay below their analytic bounds (3 standard errors of slack), and that
    the variance grows while the bias shrinks along the grid.  A threshold
    given twice is refused: its monotonicity verdicts would compare a probe
    with itself.
    """
    taus = sorted(taus)
    for lo, hi in zip(taus, taus[1:]):
        if lo == hi:
            raise ConfigurationError(f"clip thresholds must differ, got {lo:g} twice")
    true_grad = np.zeros(noise.dimension)
    true_grad[0] = grad_norm
    probes = bias_variance_grid(noise, true_grad, taus, n, rng, alpha, workers)
    verdicts = []
    for pr in probes:
        verdicts.append(
            Verdict(
                criterion=f"variance_bound tau={pr.tau:g}",
                description="empirical E||g_hat||^2 below G^a tau^(2-a)",
                observed=f"{pr.second_moment:.6g}",
                threshold=f"{pr.bound_second_moment:.6g} + 3se",
                passed=pr.second_moment <= pr.bound_second_moment + 3 * pr.second_moment_se,
            )
        )
        verdicts.append(
            Verdict(
                criterion=f"bias_bound tau={pr.tau:g}",
                description="empirical bias below G^a tau^(1-a)",
                observed=f"{pr.bias_norm:.6g}",
                threshold=f"{pr.bound_bias:.6g} + 3se",
                passed=pr.bias_norm <= pr.bound_bias + 3 * pr.bias_se,
            )
        )
    for lo, hi in zip(probes, probes[1:]):
        tol_var = 3.0 * (lo.second_moment_se + hi.second_moment_se)
        verdicts.append(
            Verdict(
                criterion=f"variance_monotone tau={lo.tau:g}->{hi.tau:g}",
                description="second moment nondecreasing in tau",
                observed=f"{lo.second_moment:.6g} -> {hi.second_moment:.6g}",
                threshold=f"increase >= -{tol_var:.3g}",
                passed=hi.second_moment >= lo.second_moment - tol_var,
            )
        )
        tol_bias = 3.0 * (lo.bias_se + hi.bias_se)
        verdicts.append(
            Verdict(
                criterion=f"bias_monotone tau={lo.tau:g}->{hi.tau:g}",
                description="bias nonincreasing in tau",
                observed=f"{lo.bias_norm:.6g} -> {hi.bias_norm:.6g}",
                threshold=f"decrease >= -{tol_bias:.3g}",
                passed=hi.bias_norm <= lo.bias_norm + tol_bias,
            )
        )
    return LemmaCheckResult(probes=probes, verdicts=verdicts)


# ---------------------------------------------------------------------------
# Lower-bound oracle validation.


_LOWERBOUND_XS = np.array([0.0, 0.125, 0.25, 0.375, 0.5])


def _oracle_stats(inst: LowerBoundInstance, hits: np.ndarray, n: int):
    """|mean - gradient|, its standard error, the mean of |g|^alpha and its
    standard error, of n oracle draws at each of _LOWERBOUND_XS, of which
    hits[i] hit the spike x - 1/(2 gamma).  Each is numpy's mean, or
    std(ddof=1) / sqrt(n), of the draws, taken from the count alone."""
    spike = 1.0 / (2.0 * inst.gamma)
    q = hits / n
    root = np.sqrt(q * (1.0 - q) / (n - 1))
    hit = np.abs(_LOWERBOUND_XS - spike) ** inst.alpha
    miss = np.abs(_LOWERBOUND_XS) ** inst.alpha
    return np.abs(q * spike - inst.b), spike * root, miss + q * (hit - miss), np.abs(hit - miss) * root


def lowerbound_suite(
    epsilons: list[float],
    alphas: list[float],
    n: int,
    rng: np.random.Generator,
) -> SuiteResult:
    """Check unbiasedness and the unit alpha-moment bound of the two-point
    adversarial oracle at a grid of (epsilon, alpha, nu) settings, each at
    five points x, from one Binomial(n, p) hit count per point.  Needs
    2 <= n (a standard error) <= 2**63 - 1 (numpy's binomial)."""
    if not 2 <= n <= 2**63 - 1:
        raise ConfigurationError(f"lowerbound needs n >= 2 draws per point and at most 2**63 - 1, got {n}")
    instances = [LowerBoundInstance(epsilon=eps, alpha=alpha, nu=nu)
                 for eps in epsilons for alpha in alphas for nu in (0, 1)]
    verdicts = []
    for inst in instances:
        tag = f"eps={inst.epsilon:g},alpha={inst.alpha:g},nu={inst.nu}"
        hits = rng.binomial(n, inst.p, size=_LOWERBOUND_XS.size)
        dev, se, moment, moment_se = _oracle_stats(inst, hits, n)
        verdicts += [
            Verdict(
                criterion=f"lowerbound_mean {tag}",
                description="oracle mean matches the gradient at 5 points",
                observed=f"max(|dev|-4se) = {np.max(dev - 4.0 * se):.3g}",
                threshold="<= 0",
                passed=bool(np.all(dev <= 4.0 * se)),
            ),
            Verdict(
                criterion=f"lowerbound_moment {tag}",
                description="empirical alpha-moment below 1",
                observed=f"max(E|g|^a - 3se) = {np.max(moment - 3.0 * moment_se):.4g}",
                threshold="<= 1",
                passed=bool(np.all(moment <= 1.0 + 3.0 * moment_se)),
            ),
        ]
    return SuiteResult(verdicts=verdicts)


# ---------------------------------------------------------------------------
# Chain-instance property suite.


def _chain_test_points(d: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """Mix of diffuse and structured points covering all progress levels.

    Three groups of rows: uniform on [-3, 3], standard normal, and progress
    points, uniform on [-0.45, 0.45] except that the first ``level``
    coordinates are set to an amplitude in [0.6, 2.5] with a random sign.
    Each group is drawn straight into its rows of one (n, d) array, a
    sub-block of row_blocks at a time, in the order of one draw per group:
    the uniforms, the levels, the amplitudes, then the signs.
    """
    n_wide = n * 2 // 5
    n_norm = n // 5
    pts = np.empty((n, d))
    wide, norm, progress = np.split(pts, [n_wide, n_wide + n_norm])
    for part in row_blocks(len(wide), d):
        wide[part] = rng.uniform(-3.0, 3.0, size=wide[part].shape)
    rng.standard_normal(out=norm)
    parts = list(row_blocks(len(progress), d))
    for part in parts:
        progress[part] = rng.uniform(-0.45, 0.45, size=progress[part].shape)
    levels = rng.integers(0, d + 1, size=len(progress))
    blocks = [(progress[part], levels[part]) for part in parts]
    for part, level in blocks:
        np.copyto(part, rng.uniform(0.6, 2.5, size=part.shape), where=np.arange(d) < level[:, None])
    for part, level in blocks:  # amplitude * -1.0 is the amplitude negated
        np.negative(part, out=part,
                    where=(np.arange(d) < level[:, None]) & (rng.random(part.shape) < 0.5))
    return pts


def chain_suite(
    d: int,
    n_points: int,
    rng: np.random.Generator,
    p: float = 0.5,
    curvature_points: int = 2000,
    workers: int | None = None,
) -> SuiteResult:
    """Numerically verify the chain objective's advertised properties and
    gradient/finite-difference agreement.  ``p``, the oracle's revealing
    probability, is only checked to lie in (0, 1].  The per-point pass runs
    on up to ``workers`` processes, by default one per core."""
    if d < 1:
        raise ConfigurationError("chain length d must be >= 1")
    if not (0.0 < p <= 1.0):
        raise ConfigurationError("revealing probability p must lie in (0, 1]")
    if n_points < 1:
        raise ConfigurationError(f"chain check needs at least 1 point, got {n_points}")
    pts = _chain_test_points(d, n_points, rng)
    f0 = chain_value_raw(np.zeros(d))
    # Per-point figures, a job per block of rows so that the chain's
    # temporaries stay at the sampler's sub-block size; a free worker takes
    # the next block, which balances the costlier wide uniform rows (the
    # first 40%).  The blocks' figures are folded in row order.
    parts = list(row_blocks(n_points, d))

    def figures(i):
        part = parts[i]
        values, grads = chain_value_and_gradient(pts[part])
        low = int(np.argmin(values))
        gnorms = np.sqrt(row_sq_sums(grads, np.empty(len(grads))))[np.abs(pts[part, -1]) <= 1.0]
        excess = prog(grads, 0.0) - prog(pts[part], 0.5)
        offending = excess[excess > 1]
        return (values[low], part.start + low, np.max(np.abs(grads)),
                np.min(gnorms) if gnorms.size else math.inf,
                int(offending[0]) if offending.size else None)

    mins, rows, maxes, floors, excesses = zip(
        *fan_out(figures, len(parts), pass_workers(n_points * d, workers)))
    verdicts = []

    # 1. value gap from 0 to the best point found.
    first = int(np.argmin(mins))
    best = float(mins[first])
    # 300 gradient steps from the best point and 150 from each of 20 random
    # restarts; the restarts descend together, one row each.
    x_best, restarts = pts[[rows[first]]], rng.uniform(-2.0, 2.0, size=(20, d))
    for x, steps in ((x_best, 300), (restarts, 150)):
        for _ in range(steps):
            x -= 0.05 * chain_gradient_raw(x)
    best = min(best, float(chain_value_raw(x_best)[0]), float(np.min(chain_value_raw(restarts))))
    gap = f0 - best
    verdicts.append(
        Verdict(
            criterion="chain_value_gap",
            description="f(0) minus best probed value below 12d",
            observed=f"{gap:.4g}",
            threshold=f"<= {12 * d}",
            passed=gap <= 12.0 * d,
        )
    )

    # 2. sup-norm gradient bound.
    grad_inf = float(np.max(maxes))
    verdicts.append(
        Verdict(
            criterion="chain_grad_bound",
            description="max |grad|_inf over sampled points below 23",
            observed=f"{grad_inf:.4g}",
            threshold="<= 23",
            passed=grad_inf <= 23.0 + 1e-9,
        )
    )

    # 3. large gradient while the chain is incomplete.
    min_unfinished = float(np.min(floors))
    verdicts.append(
        Verdict(
            criterion="chain_grad_floor",
            description="||grad|| at least 1 wherever the last link is unset",
            observed=f"{min_unfinished:.6g}",
            threshold=">= 1",
            passed=min_unfinished >= 1.0 - 1e-9,
        )
    )

    # 4. the gradient reveals at most one new coordinate (excess at the first breach).
    offending = next((e for e in excesses if e is not None), None)
    prog_ok = offending is None
    verdicts.append(
        Verdict(
            criterion="chain_zero_chain",
            description="prog_0(grad) never exceeds prog_1/2(x) + 1",
            observed="ok" if prog_ok else f"excess {offending}",
            threshold="<= +1",
            passed=prog_ok,
        )
    )

    # 5. sampled directional curvature below the smoothness constant.
    h = 1e-3
    idx = rng.integers(0, pts.shape[0], size=curvature_points)
    xs = pts[idx]
    dirs = rng.standard_normal((curvature_points, d))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    second = np.abs(
        chain_value_raw(xs + h * dirs)
        - 2.0 * chain_value_raw(xs)
        + chain_value_raw(xs - h * dirs)
    ) / h**2
    max_curv = float(np.max(second))
    verdicts.append(
        Verdict(
            criterion="chain_smoothness",
            description="finite-difference directional curvature below 152",
            observed=f"{max_curv:.4g}",
            threshold="<= 152 * 1.01",
            passed=max_curv <= 152.0 * 1.01,
        )
    )

    # Analytic gradient against central differences at 100 points, all
    # shifted points in one call.
    hfd = 1e-5
    xs = pts[rng.integers(0, pts.shape[0], size=100)]
    shifts = hfd * np.eye(d)
    shifted = np.concatenate([xs[:, None] + shifts, xs[:, None] - shifts]).reshape(-1, d)
    plus, minus = np.split(chain_value_raw(shifted), 2)
    fds = ((plus - minus) / (2.0 * hfd)).reshape(-1, d)
    # np.linalg.norm of each row, as the check of a single point takes it
    max_rel = max((float(np.linalg.norm(fd - g) / max(np.linalg.norm(g), 1e-8))
                   for fd, g in zip(fds, chain_gradient_raw(xs))), default=0.0)
    verdicts.append(
        Verdict(
            criterion="chain_gradient_fd",
            description="analytic gradient matches central differences",
            observed=f"max rel err {max_rel:.3g}",
            threshold="<= 1e-4",
            passed=max_rel <= 1e-4,
        )
    )
    return SuiteResult(verdicts=verdicts)
