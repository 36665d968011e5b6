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
from .noise import NoiseSpec, iter_blocks, tail_index
from .problems import (
    LowerBoundInstance,
    chain_gradient_raw,
    chain_value_raw,
    lowerbound_oracle,
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
    2 * block_size) norms and the histogram the first min(n, 1e5)."""
    if n < 1:
        raise ConfigurationError(f"noise probe needs n >= 1 draws, got {n}")
    sq = np.empty(max(n, 2 * block_size))
    start = 0
    for block in iter_blocks(spec, rng, sq.size):
        np.sum(block * block, axis=1, out=sq[start:start + len(block)])
        start += len(block)
    checkpoints = []
    c = 1000
    while c < n:
        checkpoints.append(c)
        c *= 10
    checkpoints.append(n)
    curve = [(c, float(np.sum(sq[:c])) / c) for c in checkpoints]
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
) -> LemmaCheckResult:
    """Probe the clipped estimator over a threshold grid on shared draws.

    Checks, at every grid point, that the empirical second moment and bias
    stay below their analytic bounds (3 standard errors of slack), and that
    the variance grows while the bias shrinks along the grid.
    """
    true_grad = np.zeros(noise.dimension)
    true_grad[0] = grad_norm
    probes = bias_variance_grid(noise, true_grad, sorted(taus), n, rng, alpha)
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


def lowerbound_suite(
    epsilons: list[float],
    alphas: list[float],
    n: int,
    rng: np.random.Generator,
) -> SuiteResult:
    """Check unbiasedness and the unit alpha-moment bound of the two-point
    adversarial oracle at a grid of (epsilon, alpha, nu) settings, each at
    five points x.  Needs n >= 2 draws per point for a standard error."""
    if n < 2:
        raise ConfigurationError(f"lowerbound needs n >= 2 draws per point, got {n}")
    verdicts = []
    for eps in epsilons:
        for alpha in alphas:
            for nu in (0, 1):
                inst = LowerBoundInstance(epsilon=eps, alpha=alpha, nu=nu)
                tag = f"eps={eps:g},alpha={alpha:g},nu={nu}"
                worst_dev = 0.0
                mean_ok = True
                moment_max = 0.0
                moment_ok = True
                for x in (0.0, 0.125, 0.25, 0.375, 0.5):
                    draws = lowerbound_oracle(inst, x, rng, size=n)
                    mean = float(np.mean(draws))
                    se = float(np.std(draws, ddof=1) / math.sqrt(n))
                    dev = abs(mean - inst.exact_gradient(x))
                    worst_dev = max(worst_dev, dev - 4.0 * se)
                    if dev > 4.0 * se:
                        mean_ok = False
                    mom = np.abs(draws) ** alpha
                    m_val = float(np.mean(mom))
                    m_se = float(np.std(mom, ddof=1) / math.sqrt(n))
                    moment_max = max(moment_max, m_val - 3.0 * m_se)
                    if m_val > 1.0 + 3.0 * m_se:
                        moment_ok = False
                verdicts.append(
                    Verdict(
                        criterion=f"lowerbound_mean {tag}",
                        description="oracle mean matches the gradient at 5 points",
                        observed=f"max(|dev|-4se) = {worst_dev:.3g}",
                        threshold="<= 0",
                        passed=mean_ok,
                    )
                )
                verdicts.append(
                    Verdict(
                        criterion=f"lowerbound_moment {tag}",
                        description="empirical alpha-moment below 1",
                        observed=f"max(E|g|^a - 3se) = {moment_max:.4g}",
                        threshold="<= 1",
                        passed=moment_ok,
                    )
                )
    return SuiteResult(verdicts=verdicts)


# ---------------------------------------------------------------------------
# Chain-instance property suite.


def _chain_test_points(d: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """Mix of diffuse and structured points covering all progress levels."""
    n_wide = n * 2 // 5
    n_norm = n // 5
    n_prog = n - n_wide - n_norm
    wide = rng.uniform(-3.0, 3.0, size=(n_wide, d))
    norm = rng.standard_normal((n_norm, d))
    progress = rng.uniform(-0.45, 0.45, size=(n_prog, d))
    levels = rng.integers(0, d + 1, size=n_prog)
    amps = rng.uniform(0.6, 2.5, size=(n_prog, d))
    signs = np.where(rng.random((n_prog, d)) < 0.5, -1.0, 1.0)
    mask = np.arange(d)[None, :] < levels[:, None]
    progress = np.where(mask, amps * signs, progress)
    return np.vstack([wide, norm, progress])


def chain_suite(
    d: int,
    n_points: int,
    rng: np.random.Generator,
    p: float = 0.5,
    curvature_points: int = 2000,
) -> SuiteResult:
    """Numerically verify the chain objective's advertised properties and
    gradient/finite-difference agreement.  ``p``, the oracle's revealing
    probability, is only checked to lie in (0, 1]."""
    if d < 1:
        raise ConfigurationError("chain length d must be >= 1")
    if not (0.0 < p <= 1.0):
        raise ConfigurationError("revealing probability p must lie in (0, 1]")
    if n_points < 1:
        raise ConfigurationError(f"chain check needs at least 1 point, got {n_points}")
    pts = _chain_test_points(d, n_points, rng)
    grads = chain_gradient_raw(pts)
    grad_inf = np.max(np.abs(grads), axis=1)
    verdicts = []

    # 1. value gap from 0 to the best point found.
    f0 = chain_value_raw(np.zeros(d))
    values = chain_value_raw(pts)
    best = float(np.min(values))
    # 300 gradient steps from the best point and 150 from each of 20 random
    # restarts; the restarts descend together, one row each.
    x_best, restarts = pts[[np.argmin(values)]], rng.uniform(-2.0, 2.0, size=(20, d))
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
    verdicts.append(
        Verdict(
            criterion="chain_grad_bound",
            description="max |grad|_inf over sampled points below 23",
            observed=f"{float(grad_inf.max()):.4g}",
            threshold="<= 23",
            passed=bool(grad_inf.max() <= 23.0 + 1e-9),
        )
    )

    # 3. large gradient while the chain is incomplete.
    unfinished = np.abs(pts[:, -1]) <= 1.0
    gnorms = np.sqrt(np.sum(grads * grads, axis=1))
    min_unfinished = float(gnorms[unfinished].min()) if np.any(unfinished) else math.inf
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
    excess = prog(grads, 0.0) - prog(pts, 0.5)
    offending = excess[excess > 1]
    prog_ok = offending.size == 0
    verdicts.append(
        Verdict(
            criterion="chain_zero_chain",
            description="prog_0(grad) never exceeds prog_1/2(x) + 1",
            observed="ok" if prog_ok else f"excess {offending[0]}",
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
