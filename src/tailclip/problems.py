"""Stochastic test problems and feasible-domain projection.

Provides strongly convex quadratics, a smooth bounded nonconvex objective,
the two-point adversarial gradient oracle on [0, 1/2] used for the
strongly-convex lower bound, the chain hard instance, and Euclidean
projection onto a ball.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConfigurationError, DomainError
from .noise import NoiseSpec, iter_blocks

# ---------------------------------------------------------------------------
# Feasible domains


@dataclass
class Ball:
    center: np.ndarray
    radius: float

    def __post_init__(self):
        self.center = np.asarray(self.center, dtype=float)
        if self.radius <= 0:
            raise ConfigurationError("ball radius must be positive")

    def project(self, y: np.ndarray) -> np.ndarray:
        dev = y - self.center
        dist = math.sqrt(float(dev @ dev))
        if dist <= self.radius:
            return y
        return self.center + dev * (self.radius / dist)


def project(domain: Ball, y: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the domain (idempotent, nonexpansive)."""
    return domain.project(np.asarray(y, dtype=float))


# ---------------------------------------------------------------------------
# Stochastic problems


@dataclass
class Constants:
    """Problem constants; fields are None when unknown/not applicable."""

    L: float | None = None
    mu: float | None = None


@dataclass
class StochasticProblem:
    """An objective with exact gradient, additive gradient noise and metadata.

    The stochastic gradient at x is exact_gradient(x) plus one draw of
    ``noise``; optimizers pre-generate the draws in blocks.  ``value`` takes
    one point or a stack of points (one per row).  ``optimum`` is
    (x_star, f_star) when known.
    """

    dimension: int
    value: Callable[[np.ndarray], float | np.ndarray]
    exact_gradient: Callable[[np.ndarray], np.ndarray]
    noise: NoiseSpec
    constants: Constants = field(default_factory=Constants)
    domain: Ball | None = None
    optimum: tuple[np.ndarray, float] | None = None


def _quad_value(mu: float, x_star: np.ndarray, x: np.ndarray):
    dev = x - x_star
    return 0.5 * mu * np.vecdot(dev, dev)  # per row; equals dev @ dev bit for bit


def _quad_grad(mu: float, x_star: np.ndarray, x: np.ndarray) -> np.ndarray:
    return mu * (x - x_star)


def quadratic_problem(
    mu: float, dimension: int, x_star: np.ndarray | float, noise: NoiseSpec
) -> StochasticProblem:
    """(mu/2)||x - x*||^2 with additive gradient noise; L = mu."""
    if mu <= 0:
        raise ConfigurationError("mu must be positive")
    xs = np.broadcast_to(np.asarray(x_star, dtype=float), (dimension,)).copy()
    if noise.dimension != dimension:
        raise ConfigurationError(
            f"noise dimension {noise.dimension} does not match problem dimension {dimension}"
        )
    value = functools.partial(_quad_value, mu, xs)
    grad = functools.partial(_quad_grad, mu, xs)
    return StochasticProblem(
        dimension=dimension,
        value=value,
        exact_gradient=grad,
        constants=Constants(L=mu, mu=mu),
        noise=noise,
        optimum=(xs, 0.0),
    )


def _ratio_value(x: np.ndarray):
    x = np.asarray(x, dtype=float)
    return np.sum(x * x / (1.0 + x * x), axis=-1)


def _ratio_grad(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    return 2.0 * x / (1.0 + x * x) ** 2


def nonconvex_problem(dimension: int, noise: NoiseSpec) -> StochasticProblem:
    """Smooth bounded nonconvex objective sum_i x_i^2/(1+x_i^2).

    Each 1-d term has second derivative bounded by 2 in magnitude, so the
    objective is L-smooth with L = 2; global minimum 0 at the origin.
    """
    if dimension < 1:
        raise ConfigurationError("dimension must be >= 1")
    if noise.dimension != dimension:
        raise ConfigurationError(
            f"noise dimension {noise.dimension} does not match problem dimension {dimension}"
        )
    return StochasticProblem(
        dimension=dimension,
        value=_ratio_value,
        exact_gradient=_ratio_grad,
        constants=Constants(L=2.0),
        noise=noise,
        optimum=(np.zeros(dimension), 0.0),
    )


# ---------------------------------------------------------------------------
# Strongly-convex lower-bound oracle: minimize (x-b)^2/2 over [0, 1/2] with a
# two-point stochastic gradient whose alpha-moment stays below 1.


@dataclass
class LowerBoundInstance:
    epsilon: float
    alpha: float
    nu: int

    def __post_init__(self):
        if not (0.0 < self.epsilon <= 0.125):
            raise ConfigurationError("epsilon must lie in (0, 1/8]")
        if not (1.0 < self.alpha <= 2.0):
            raise ConfigurationError("alpha must lie in (1, 2]")
        if self.nu not in (0, 1):
            raise ConfigurationError("nu must be 0 or 1")

    @property
    def b(self) -> float:
        """Location of the optimum: (2 - nu) * epsilon."""
        return (2 - self.nu) * self.epsilon

    @property
    def gamma(self) -> float:
        return (4.0 * self.epsilon) ** (1.0 / (self.alpha - 1.0))

    @property
    def p(self) -> float:
        return self.gamma**self.alpha - 2.0 * self.nu * self.gamma * self.epsilon

    def value(self, x: float) -> float:
        return 0.5 * (x - self.b) ** 2

    def exact_gradient(self, x: float) -> float:
        return x - self.b


def lowerbound_oracle(
    inst: LowerBoundInstance,
    x: float,
    rng: np.random.Generator,
    size: int | None = None,
):
    """Stochastic gradient: x - 1/(2*gamma) with prob. p, else x.

    Unbiased for the gradient of (x-b)^2/2 and E|g|^alpha <= 1 on [0, 1/2].
    """
    if not (0.0 <= x <= 0.5):
        raise DomainError(f"x={x} outside the feasible interval [0, 1/2]")
    spike = x - 1.0 / (2.0 * inst.gamma)
    if size is None:
        return spike if rng.random() < inst.p else x
    hits = rng.random(size) < inst.p
    return np.where(hits, spike, x)


# ---------------------------------------------------------------------------
# Chain hard instance.  Component functions:
#   psi(t) = 0 for t <= 1/2, exp(1 - 1/(2t-1)^2) otherwise
#   phi(t) = sqrt(e) * integral_{-inf}^t exp(-s^2/2) ds
# and the objective
#   f_d(x) = -psi(1) phi(x_1)
#            + sum_{i=2}^d [psi(-x_{i-1}) phi(-x_i) - psi(x_{i-1}) phi(x_i)].

_SQRT_E = math.sqrt(math.e)
_PHI_SCALE = _SQRT_E * math.sqrt(math.pi / 2.0)


def chain_psi(t):
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    mask = t > 0.5
    if np.any(mask):
        tm = t[mask]
        with np.errstate(over="ignore"):
            out[mask] = np.exp(1.0 - 1.0 / (2.0 * tm - 1.0) ** 2)
    return out if out.ndim else float(out)


def chain_psi_prime(t):
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    mask = t > 0.5
    if np.any(mask):
        tm = t[mask]
        u = 2.0 * tm - 1.0
        out[mask] = np.exp(1.0 - 1.0 / u**2) * 4.0 / u**3
    return out if out.ndim else float(out)


def chain_phi(t):
    """sqrt(e) * sqrt(pi/2) * (1 + erf(t/sqrt(2))), exact via erf."""
    # Imported here: scipy.special costs most of the package's import time
    # and only the chain instance needs it.
    from scipy.special import erf

    t = np.asarray(t, dtype=float)
    out = _PHI_SCALE * (1.0 + erf(t / math.sqrt(2.0)))
    return out if out.ndim else float(out)


def chain_phi_prime(t):
    t = np.asarray(t, dtype=float)
    out = _SQRT_E * np.exp(-0.5 * t * t)
    return out if out.ndim else float(out)


@dataclass
class ChainInstance:
    """Chain objective f_d of length d, whose oracle reveals the next
    coordinate with probability p."""

    d: int
    p: float

    def __post_init__(self):
        if self.d < 1:
            raise ConfigurationError("chain length d must be >= 1")
        if not (0.0 < self.p <= 1.0):
            raise ConfigurationError("revealing probability p must lie in (0, 1]")


def chain_value_raw(x: np.ndarray):
    """f_d at one point (1-d input) or batched rows (2-d input)."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    total = -chain_psi(1.0) * chain_phi(x[:, 0])
    if x.shape[1] > 1:
        prev, cur = x[:, :-1], x[:, 1:]
        total = total + np.sum(
            chain_psi(-prev) * chain_phi(-cur) - chain_psi(prev) * chain_phi(cur),
            axis=1,
        )
    return total if total.size > 1 else float(total[0])


def chain_gradient_raw(x: np.ndarray) -> np.ndarray:
    """Analytic gradient of f_d, batched like chain_value_raw."""
    x2 = np.atleast_2d(np.asarray(x, dtype=float))
    m, d = x2.shape
    g = np.zeros_like(x2)
    g[:, 0] = -chain_psi(1.0) * chain_phi_prime(x2[:, 0])
    if d > 1:
        prev, cur = x2[:, :-1], x2[:, 1:]
        # d/dx_i of the i-th pair term, i = 2..d
        g[:, 1:] += -chain_psi(-prev) * chain_phi_prime(-cur) - chain_psi(
            prev
        ) * chain_phi_prime(cur)
        # d/dx_{i-1} of the i-th pair term
        g[:, :-1] += -chain_psi_prime(-prev) * chain_phi(-cur) - chain_psi_prime(
            prev
        ) * chain_phi(cur)
    return g if np.asarray(x).ndim == 2 else g[0]


def prog(x: np.ndarray, beta: float) -> int:
    """Highest 1-based index i with |x_i| > beta; 0 if none."""
    hits = np.nonzero(np.abs(np.asarray(x, dtype=float)) > beta)[0]
    return int(hits[-1]) + 1 if hits.size else 0


# ---------------------------------------------------------------------------
# Empirical calibration of the moment constants used by the prescribed schedules.


def _norm_moment_root(
    noise: NoiseSpec, shift, alpha: float, n: int, rng: np.random.Generator
) -> float:
    """(empirical E||shift + xi||^alpha)^(1/alpha) over n draws of xi."""
    total = 0.0
    for block in iter_blocks(noise, rng, n):
        block = block + shift
        total += float(np.sum(np.sum(block * block, axis=1) ** (alpha / 2.0)))
    return (total / n) ** (1.0 / alpha)


def estimate_sigma(noise: NoiseSpec, alpha: float, n: int, rng: np.random.Generator) -> float:
    """sigma with sigma^alpha = empirical E||xi||^alpha over n draws."""
    return _norm_moment_root(noise, 0.0, alpha, n, rng)


def estimate_G(
    problem: StochasticProblem, x0: np.ndarray, alpha: float, n: int, rng: np.random.Generator
) -> float:
    """G with G^alpha = empirical E||g(x0)||^alpha over n oracle draws."""
    eg = problem.exact_gradient(np.asarray(x0, dtype=float))
    return _norm_moment_root(problem.noise, eg, alpha, n, rng)


def estimate_B(
    problem: StochasticProblem, x0: np.ndarray, alpha: float, n: int, rng: np.random.Generator
) -> np.ndarray:
    """Per-coordinate B_i with B_i^alpha = empirical E|g_i(x0)|^alpha."""
    eg = problem.exact_gradient(np.asarray(x0, dtype=float))
    total = np.zeros(problem.dimension)
    for block in iter_blocks(problem.noise, rng, n):
        total += np.sum(np.abs(block + eg) ** alpha, axis=0)
    return (total / n) ** (1.0 / alpha)
