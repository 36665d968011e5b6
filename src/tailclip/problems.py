"""Stochastic test problems and feasible-domain projection.

Provides strongly convex quadratics, a smooth bounded nonconvex objective,
the constants of the two-point adversarial gradient oracle on [0, 1/2]
behind the strongly-convex lower bound, the chain hard instance, and Euclidean
projection onto a ball.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigurationError
from .noise import NoiseSpec, coordinate_moment_roots, norm_moment_root

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
        """Nearest point of the ball; the run loop writes the same steps inline."""
        dev = y - self.center
        dist = math.sqrt(dev.dot(dev))  # the bits of dev @ dev
        if dist <= self.radius:
            return y
        return self.center + dev * (self.radius / dist)


def project(domain: Ball, y: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the domain (idempotent, nonexpansive)."""
    return domain.project(np.asarray(y, dtype=float))


# ---------------------------------------------------------------------------
# Stochastic problems


@dataclass
class StochasticProblem:
    """An objective with exact gradient, additive gradient noise and metadata.

    The stochastic gradient at x is exact_gradient(x) plus one draw of
    ``noise``; optimizers pre-generate the draws in blocks.  Both
    ``exact_gradient`` and ``value`` take one point or a stack of points
    (one per row); each row of a stacked gradient has the bits of the call
    on that row alone, and at d = 1 ``exact_gradient`` also takes a float
    and returns one with the same bits.  Both problems have
    minimum value 0, so ``value`` is the suboptimality.  ``L`` and ``mu``
    are the smoothness and strong convexity constants, None if unknown.
    """

    dimension: int
    value: Callable[[np.ndarray], float | np.ndarray]
    exact_gradient: Callable[[np.ndarray | float], np.ndarray | float]
    noise: NoiseSpec
    L: float | None = None
    mu: float | None = None
    domain: Ball | None = None


def _quad_value(mu: float, x_star: np.ndarray | float, x: np.ndarray):
    dev = x - x_star
    return 0.5 * mu * np.vecdot(dev, dev)  # per row; equals dev @ dev bit for bit


def _quad_grad(mu: float, x_star: np.ndarray | float, x: np.ndarray | float):
    return mu * (x - x_star)


def _same_grad(x: np.ndarray | float):
    return x


def quadratic_problem(
    mu: float, dimension: int, x_star: np.ndarray | float, noise: NoiseSpec
) -> StochasticProblem:
    """(mu/2)||x - x*||^2 with additive gradient noise; L = mu.

    At mu = 1 with every x* entry +0.0 the gradient mu (x - x*) is x itself,
    bit for bit: x - (+0.0) is x for every x (not with -0.0: -0.0 - -0.0 is
    +0.0), and 1.0 y is y.  It hands back x, so a caller must not update the
    gradient in place.
    """
    if mu <= 0:
        raise ConfigurationError("mu must be positive")
    xs = np.broadcast_to(np.asarray(x_star, dtype=float), (dimension,)).copy()
    if dimension == 1:  # a float, so that a float x keeps its type
        xs = float(xs[0])
    if noise.dimension != dimension:
        raise ConfigurationError(
            f"noise dimension {noise.dimension} does not match problem dimension {dimension}"
        )
    value = functools.partial(_quad_value, mu, xs)
    at_zero = not (np.any(xs) or np.any(np.signbit(xs)))  # every entry +0.0
    grad = _same_grad if mu == 1.0 and at_zero else functools.partial(_quad_grad, mu, xs)
    return StochasticProblem(
        dimension=dimension,
        value=value,
        exact_gradient=grad,
        noise=noise,
        L=mu,
        mu=mu,
    )


def _ratio_value(x: np.ndarray):
    x = np.asarray(x, dtype=float)
    return np.sum(x * x / (1.0 + x * x), axis=-1)


def _ratio_grad(x: np.ndarray | float):
    t = 1.0 + x * x
    return 2.0 * x / (t * t)  # not t ** 2: on a float, ** calls pow


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
        noise=noise,
        L=2.0,
    )


# ---------------------------------------------------------------------------
# Strongly-convex lower-bound oracle: minimize (x-b)^2/2 over [0, 1/2] with a
# two-point stochastic gradient, x - 1/(2 gamma) with probability p and x
# otherwise.  Since p/(2 gamma) = b it is unbiased, and its alpha-moment stays
# below 1.


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
        """Location of the minimizer: (2 - nu) * epsilon."""
        return (2 - self.nu) * self.epsilon

    @property
    def gamma(self) -> float:
        return (4.0 * self.epsilon) ** (1.0 / (self.alpha - 1.0))

    @property
    def p(self) -> float:
        return self.gamma**self.alpha - 2.0 * self.nu * self.gamma * self.epsilon


# ---------------------------------------------------------------------------
# Chain hard instance.  Component functions:
#   psi(t) = 0 for t <= 1/2, exp(1 - 1/(2t-1)^2) otherwise
#   phi(t) = sqrt(e) * integral_{-inf}^t exp(-s^2/2) ds
# and the objective
#   f_d(x) = -psi(1) phi(x_1)
#            + sum_{i=2}^d [psi(-x_{i-1}) phi(-x_i) - psi(x_{i-1}) phi(x_i)].

_SQRT_E = math.sqrt(math.e)
_PHI_SCALE = _SQRT_E * math.sqrt(math.pi / 2.0)


def _psi_and_prime(t: np.ndarray, prime: bool):
    """psi(t) and, if ``prime``, psi'(t) (else None), from one exp."""
    psi = np.zeros_like(t)
    mask = t > 0.5
    u = 2.0 * t[mask] - 1.0
    with np.errstate(over="ignore"):
        psi[mask] = np.exp(1.0 - 1.0 / u**2)
    if not prime:
        return psi, None
    dpsi = np.zeros_like(t)
    dpsi[mask] = psi[mask] * 4.0 / u**3
    return psi, dpsi


def chain_psi(t):
    out = _psi_and_prime(np.asarray(t, dtype=float), False)[0]
    return out if out.ndim else float(out)


def chain_psi_prime(t):
    out = _psi_and_prime(np.asarray(t, dtype=float), True)[1]
    return out if out.ndim else float(out)


def chain_phi(t):
    """sqrt(e) * sqrt(pi/2) * (1 + erf(t/sqrt(2))), exact via the standard
    library's math.erf, one call per entry."""
    t = np.asarray(t, dtype=float)
    z = (t / math.sqrt(2.0)).ravel().tolist()
    erf = np.fromiter(map(math.erf, z), float, len(z)).reshape(t.shape)
    out = _PHI_SCALE * (1.0 + erf)
    return out if out.ndim else float(out)


def chain_phi_prime(t):
    t = np.asarray(t, dtype=float)
    out = _SQRT_E * np.exp(-0.5 * t * t)
    return out if out.ndim else float(out)


def _pair_terms(x: np.ndarray, negate: bool, gradient: bool):
    """For the pairs (t, s) = (x_{i-1}, x_i) of each row of x, or (-x_{i-1},
    -x_i) if ``negate``: psi(t) phi(s) and, if ``gradient``, psi(t) phi'(s)
    and psi'(t) phi(s) (else None).  phi(s) is evaluated only where psi(t)
    != 0 or s is NaN: elsewhere psi(t) and psi'(t) are +0.0 and phi(s) is
    finite, so both products are +0.0 whatever phi(s) is."""
    s = -x[:, 1:] if negate else x[:, 1:]
    psi, dpsi = _psi_and_prime(-x[:, :-1] if negate else x[:, :-1], gradient)
    phi = np.zeros_like(s)
    live = (psi != 0.0) | np.isnan(s)
    phi[live] = chain_phi(s[live])
    if not gradient:
        return psi * phi, None, None
    return psi * phi, psi * chain_phi_prime(s), dpsi * phi


def chain_value_and_gradient(x: np.ndarray, gradient: bool = True):
    """f_d and its gradient (None unless ``gradient``) at one point (1-d
    input: a float and a vector) or at batched rows (2-d input: one value
    and one gradient row per row), from one evaluation of psi, psi', phi
    and phi'."""
    x = np.asarray(x, dtype=float)
    x2 = np.atleast_2d(x)
    value = -chain_psi(1.0) * chain_phi(x2[:, 0])
    grad = None
    if gradient:
        grad = np.zeros_like(x2)
        grad[:, 0] = -chain_psi(1.0) * chain_phi_prime(x2[:, 0])
    if x2.shape[1] > 1:
        value_neg, phi_prime_neg, psi_prime_neg = _pair_terms(x2, True, gradient)
        value_pos, phi_prime_pos, psi_prime_pos = _pair_terms(x2, False, gradient)
        value_neg -= value_pos
        value = value + np.sum(value_neg, axis=1)
        if gradient:
            # d/dx_i of the i-th pair term, i = 2..d
            grad[:, 1:] += -phi_prime_neg - phi_prime_pos
            # d/dx_{i-1} of the i-th pair term
            grad[:, :-1] += -psi_prime_neg - psi_prime_pos
    if x.ndim == 2:
        return value, grad
    return float(value[0]), None if grad is None else grad[0]


def chain_value_raw(x: np.ndarray):
    """f_d at one point (1-d input, a float) or batched rows (2-d input, one
    value per row)."""
    return chain_value_and_gradient(x, gradient=False)[0]


def chain_gradient_raw(x: np.ndarray) -> np.ndarray:
    """Analytic gradient of f_d, batched like chain_value_raw."""
    return chain_value_and_gradient(x)[1]


def prog(x: np.ndarray, beta: float):
    """Highest 1-based index i with |x_i| > beta, 0 if none: an int for one
    point, one count per row for an (m, d) array."""
    hits = np.abs(np.asarray(x, dtype=float)) > beta
    out = np.max(np.where(hits, np.arange(1, hits.shape[-1] + 1), 0), axis=-1, initial=0)
    return int(out) if hits.ndim == 1 else out


# ---------------------------------------------------------------------------
# Empirical calibration of the moment constants used by the prescribed schedules.


def estimate_sigma(
    noise: NoiseSpec, alpha: float, n: int, rng: np.random.Generator,
    workers: int | None = None,
) -> float:
    """sigma with sigma^alpha = empirical E||xi||^alpha over n draws."""
    return norm_moment_root(noise, 0.0, alpha, n, rng, workers)


def estimate_G(
    problem: StochasticProblem, x0: np.ndarray, alpha: float, n: int, rng: np.random.Generator,
    workers: int | None = None,
) -> float:
    """G with G^alpha = empirical E||g(x0)||^alpha over n oracle draws."""
    eg = problem.exact_gradient(np.asarray(x0, dtype=float))
    return norm_moment_root(problem.noise, eg, alpha, n, rng, workers)


def estimate_B(
    problem: StochasticProblem, x0: np.ndarray, alpha: float, n: int, rng: np.random.Generator,
    workers: int | None = None,
) -> np.ndarray:
    """Per-coordinate B_i with B_i^alpha = empirical E|g_i(x0)|^alpha."""
    eg = problem.exact_gradient(np.asarray(x0, dtype=float))
    return coordinate_moment_roots(problem.noise, eg, alpha, n, rng, workers)
