"""Optimization loops with clipping, projection and iterate averaging.

Algorithms: plain and momentum SGD, globally clipped SGD (optionally
projected), coordinate-wise clipped SGD, adaptive coordinate-wise clipping,
and an RMSProp/Adam-style baseline.  Schedules include the constant
step/threshold pair prescribed for smooth nonconvex objectives and the
inverse-time step with power-growing threshold prescribed for strongly
convex objectives.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from itertools import chain

import numpy as np

from .clip import acclip_factors
from .errors import ConfigurationError
from .noise import iter_blocks
from .problems import StochasticProblem

ALGORITHMS = ("sgd", "momentum_sgd", "gclip", "proj_gclip", "cclip", "acclip", "adamlike")

# Rows per pre-generated noise block in the run loop; small enough that a
# pool worker's memory does not grow with the iteration count.
_NOISE_BLOCK = 4096


# ---------------------------------------------------------------------------
# Schedules


@dataclass
class Schedule:
    """Step size eta_k and clip threshold tau_k at 1-based iteration k.

    eta_k = eta / (k+1) when ``inverse_time``, else eta.  tau_k = tau *
    k^tau_exponent, where ``tau`` is a scalar, or a per-coordinate vector
    for coordinate-wise clipping.
    """

    eta: float
    tau: float | np.ndarray = math.inf
    tau_exponent: float = 0.0
    inverse_time: bool = False

    def __post_init__(self):
        if self.eta <= 0:
            raise ConfigurationError("step-size parameter must be positive")
        if np.ndim(self.tau):
            self.tau = np.asarray(self.tau, dtype=float)
        if not np.all(np.asarray(self.tau) >= 0):  # NaN included
            raise ConfigurationError("thresholds must be nonnegative")

    def etas(self, K: int) -> np.ndarray:
        """eta_1..eta_K."""
        if self.inverse_time:
            return self.eta / (np.arange(1, K + 1, dtype=float) + 1.0)
        return np.full(K, self.eta)

    def tau_scales(self, K: int) -> np.ndarray:
        """k^tau_exponent for k = 1..K; tau_k is ``tau * tau_scales(K)[k-1]``."""
        return np.arange(1, K + 1, dtype=float) ** self.tau_exponent


def nonconvex_schedule(L: float, sigma: float, alpha: float, K: int, f0: float) -> Schedule:
    """Constant (eta, tau) pair for L-smooth nonconvex objectives.

    tau = max{2, 48^(1/(a-1)) s^(a/(a-1)), 8s, (f0/(s^2 K))^(a/(3a-2)) / L^((2a-2)/(3a-2))}
    eta = min{1/(4L), s^a/(L tau^a), 1/(24 L tau)}

    sigma = 0 degenerates to eta = 1/(4L), tau = 2 by convention.
    """
    if L <= 0 or K < 1 or f0 <= 0:
        raise ConfigurationError("L, K and f0 must be positive")
    if sigma < 0:
        raise ConfigurationError("sigma must be nonnegative")
    if not (1.0 < alpha <= 2.0):
        raise ConfigurationError("alpha must lie in (1, 2] (alpha=1 divides by zero)")
    if sigma == 0.0:
        tau = 2.0
        eta = 1.0 / (4.0 * L)
    else:
        last = (f0 / (sigma**2 * K)) ** (alpha / (3.0 * alpha - 2.0)) / L ** (
            (2.0 * alpha - 2.0) / (3.0 * alpha - 2.0)
        )
        tau = max(
            2.0,
            48.0 ** (1.0 / (alpha - 1.0)) * sigma ** (alpha / (alpha - 1.0)),
            8.0 * sigma,
            last,
        )
        eta = min(1.0 / (4.0 * L), sigma**alpha / (L * tau**alpha), 1.0 / (24.0 * L * tau))
    return Schedule(eta, tau)


def strongly_convex_schedule(mu: float, G: float, alpha: float) -> Schedule:
    """eta_k = 4/(mu (k+1)) with tau_k = G k^(1/alpha) for strongly convex runs."""
    if mu <= 0 or G <= 0:
        raise ConfigurationError("mu and G must be positive")
    if not (1.0 < alpha <= 2.0):
        raise ConfigurationError("alpha must lie in (1, 2]")
    return Schedule(4.0 / mu, G, 1.0 / alpha, inverse_time=True)


def cclip_schedule(mu: float, B: np.ndarray, alpha: float) -> Schedule:
    """Coordinate-wise analogue of the strongly convex schedule:
    tau_k = B_i k^(1/alpha) per coordinate."""
    if mu <= 0:
        raise ConfigurationError("mu must be positive")
    B = np.asarray(B, dtype=float)
    if np.any(B < 0):
        raise ConfigurationError("B must be nonnegative elementwise")
    return Schedule(4.0 / mu, B, 1.0 / alpha, inverse_time=True)


# ---------------------------------------------------------------------------
# Trace and config


@dataclass
class OptimizerConfig:
    algorithm: str
    schedule: Schedule
    iterations: int
    x0: np.ndarray | float = 0.0
    beta1: float = 0.9
    beta2: float = 0.99
    acclip_alpha: float = 1.0
    epsilon: float = 1e-5
    averaging: bool = False
    project: bool = False
    record: str | int = "log"

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ConfigurationError(
                f"unknown algorithm {self.algorithm!r}; expected one of {ALGORITHMS}"
            )
        if self.iterations < 1:
            raise ConfigurationError("iterations must be >= 1")
        if self.algorithm == "proj_gclip":
            self.project = True


# Per-record metrics of a Trace, in field order.  The first five are the
# serialized columns; the running means exist only in memory.
CSV_METRICS = ("suboptimality", "grad_norm", "min_grad_stat", "clip_frac", "eff_step")
TRACE_METRICS = CSV_METRICS + ("avg_grad_sq", "avg_min_stat")


@dataclass
class Trace:
    """Strided per-iteration records of one optimization run.

    ``suboptimality`` is measured at the weighted-average iterate when the
    run used iterate averaging, else at the current iterate.  The running
    means ``avg_grad_sq`` and ``avg_min_stat`` accumulate over every step,
    not just recorded ones.
    """

    ks: np.ndarray
    suboptimality: np.ndarray
    grad_norm: np.ndarray
    min_grad_stat: np.ndarray
    clip_frac: np.ndarray
    eff_step: np.ndarray
    avg_grad_sq: np.ndarray
    avg_min_stat: np.ndarray
    seed: int
    algorithm: str

    def metric(self, name: str) -> np.ndarray:
        try:
            return getattr(self, name)
        except AttributeError:
            raise ConfigurationError(f"unknown trace metric {name!r}") from None


def average_traces(traces: list[Trace], stat: str = "mean") -> Trace:
    """Aggregate traces across seeds in metric space (mean or median)."""
    if not traces:
        raise ConfigurationError("no traces to average")
    ks = traces[0].ks
    for t in traces[1:]:
        if not np.array_equal(t.ks, ks):
            raise ConfigurationError("traces have mismatched record points")
    agg = np.mean if stat == "mean" else np.median
    stacked = {f: agg(np.stack([t.metric(f) for t in traces]), axis=0) for f in TRACE_METRICS}
    return Trace(ks=ks.copy(), seed=-1, algorithm=traces[0].algorithm, **stacked)


def record_points(iterations: int, record: str | int) -> np.ndarray:
    """Checkpoints at which a run is recorded, always including 1 and the
    final iteration K.

    "log": geometric spacing (powers of 1.25) plus every power of ten.  An
    integer s >= 1: every multiple of s up to K.
    """
    K = iterations
    if record == "log":
        pts = {1, K}
        k = 1.0
        while k <= K:
            pts.add(int(round(k)))
            k *= 1.25
        dec = 10
        while dec <= K:
            pts.add(dec)
            dec *= 10
        return np.array(sorted(p for p in pts if 1 <= p <= K), dtype=np.int64)
    if not isinstance(record, int) or record < 1:
        raise ConfigurationError(f"expected 'log' or a stride >= 1, got {record!r}")
    pts = np.arange(record, K + 1, record, dtype=np.int64)
    if record > 1:
        pts = np.insert(pts, 0, 1)
    if pts[-1] != K:
        pts = np.append(pts, K)
    return pts


# ---------------------------------------------------------------------------
# The run loop


@np.errstate(over="ignore", invalid="ignore")
def run(problem: StochasticProblem, config: OptimizerConfig, seed) -> Trace:
    """Execute one optimization run; deterministic given (problem, config, seed).

    A divergent run overflows to inf and NaN without a RuntimeWarning: its
    trace carries them, and the checks fail on them.

    At d = 1 the state is held as Python floats, and the problem's
    ``exact_gradient`` and ``Ball.project`` take and return floats: one
    numpy operation on a one-element array costs as much as some twenty
    float operations.  Both kinds of state take the same IEEE operations in
    the same order, so the trace is the same to the bit.  Powers go through
    ``np.power``, which on a float equals numpy's array power; ``**`` on a
    float calls the C library's pow, which can differ in the last bit, even
    at p = 2.
    """
    alg = config.algorithm
    K = config.iterations
    sched = config.schedule
    d = problem.dimension
    scalar = d == 1
    rng = np.random.default_rng(seed)

    x = np.broadcast_to(np.asarray(config.x0, dtype=float), (d,)).astype(float)
    x = float(x[0]) if scalar else x
    domain = problem.domain
    project = config.project
    if project and domain is None:
        raise ConfigurationError(f"{alg} requires a feasible domain on the problem")
    if np.ndim(sched.tau) and alg != "cclip":
        raise ConfigurationError("vector thresholds only apply to coordinate-wise clipping")
    # a float, except a per-coordinate threshold vector at d >= 2
    tau = float(np.ravel(sched.tau)[0]) if scalar or not np.ndim(sched.tau) else sched.tau
    etas = sched.etas(K).tolist()
    tau_scales = sched.tau_scales(K).tolist()

    m = v = tau_alpha = 0.0 if scalar else np.zeros(d)  # rebound each step, never updated in place
    acc_alpha = config.acclip_alpha
    inv_alpha = 1.0 / acc_alpha
    eps = config.epsilon
    b1, b2 = config.beta1, config.beta2

    averaging = config.averaging
    w_sum = 0.0 if scalar else np.zeros(d)
    w_total = 0.0

    rec = record_points(K, config.record)
    pending = iter(rec.tolist())
    next_rec = next(pending)
    # Per record point: the evaluated point (the weighted sum when averaging,
    # divided after the loop) and the scalars (gsq, clip_frac, eff_step,
    # run_sq, run_min, w_total).
    points = np.empty((len(rec), d))
    scalars = []

    exact_gradient = problem.exact_gradient
    blocks = iter_blocks(problem.noise, rng, K, _NOISE_BLOCK)
    # at d = 1 each block's rows as floats: the same doubles
    rows = (b.ravel().tolist() for b in blocks) if scalar else blocks
    noise_rows = chain.from_iterable(rows)

    run_sq = 0.0
    run_min = 0.0
    eg = exact_gradient(x)

    for k, xi, eta, scale in zip(range(1, K + 1), noise_rows, etas, tau_scales):
        if averaging:
            w_sum += k * x
            w_total += k

        g = eg + xi
        clip_frac = 0.0
        eff_step = eta

        if alg == "sgd":
            x = x - eta * g
        elif alg == "momentum_sgd":
            m = b1 * m + (1.0 - b1) * g
            x = x - eta * m
        elif alg in ("gclip", "proj_gclip"):
            tau_k = tau * scale
            norm = math.sqrt(g * g if scalar else float(g @ g))
            c = 1.0 if (norm == 0.0 or norm <= tau_k) else tau_k / norm
            x = x - (eta * c) * g
            clip_frac = 1.0 if c < 1.0 else 0.0
            eff_step = eta * c
        elif alg == "cclip":
            tau_k = tau * scale
            # min/max keep g's sign, zero and NaN as np.clip does; thresholds are never NaN
            x = x - eta * (min(max(g, -tau_k), tau_k) if scalar else np.clip(g, -tau_k, tau_k))
            if k == next_rec:
                absg = abs(g)
                factors = np.ones(d)
                np.divide(tau_k, absg, out=factors, where=absg > tau_k)
                clip_frac = np.count_nonzero(factors < 1.0) / d
                eff_step = eta * (float(factors.sum()) / d)
        elif alg == "acclip":
            m = b1 * m + (1.0 - b1) * g
            tau_alpha = b2 * tau_alpha + (1.0 - b2) * np.power(abs(g), acc_alpha)
            factors = acclip_factors(m, np.power(tau_alpha, inv_alpha), eps)
            x = x - eta * (factors * m)
            if k == next_rec:
                clip_frac = np.count_nonzero(factors < 1.0) / d
                eff_step = eta * (float(factors.sum()) / d)
        else:  # adamlike; np.sqrt makes denom numpy's at d = 1 too: x / 0 is inf or NaN, no error
            m = b1 * m + (1.0 - b1) * g
            v = b2 * v + (1.0 - b2) * g * g
            denom = eps + np.sqrt(v)
            x = x - eta * (m if b1 > 0.0 else g) / denom
            if k == next_rec:
                eff_step = eta * (float((1.0 / denom).sum()) / d)

        if project:
            x = domain.project(x)

        eg = exact_gradient(x)
        gsq = eg * eg if scalar else float(eg @ eg)
        run_sq += gsq
        run_min += gsq if gsq < 1.0 else math.sqrt(gsq)

        if k == next_rec:
            points[len(scalars)] = w_sum if averaging else x
            scalars.append((gsq, clip_frac, eff_step, run_sq, run_min, w_total))
            next_rec = next(pending, 0)

    gsq, clip_frac, eff_step, run_sq, run_min, w_total = np.array(scalars).T
    if averaging:
        points /= w_total[:, None]
    grad_norm = np.sqrt(gsq)
    seed_label = seed if isinstance(seed, (int, np.integer)) else -1
    return Trace(
        ks=rec,
        suboptimality=problem.value(points),
        grad_norm=grad_norm,
        min_grad_stat=np.minimum(grad_norm, gsq),
        clip_frac=clip_frac,
        eff_step=eff_step,
        avg_grad_sq=run_sq / rec,
        avg_min_stat=run_min / rec,
        seed=int(seed_label),
        algorithm=alg,
    )


def seed_stream(master_seed: int, index: int) -> np.random.SeedSequence:
    """Independent per-run stream derived from (master seed, run index)."""
    return np.random.SeedSequence([int(master_seed), int(index)])


def _run_indexed(args):
    problem, config, master_seed, index = args
    trace = run(problem, config, seed_stream(master_seed, index))
    return index, replace(trace, seed=index)


def run_seeds(
    problem: StochasticProblem,
    config: OptimizerConfig,
    n_seeds: int,
    master_seed: int = 0,
    parallel: int | None = None,
) -> list[Trace]:
    """Run ``n_seeds`` independent replicas; replica i draws from a stream
    derived from (master_seed, i), so adding seeds never changes earlier ones."""
    jobs = [(problem, config, master_seed, i) for i in range(n_seeds)]
    if parallel is None:
        import os

        parallel = min(os.cpu_count() or 1, n_seeds)
    if parallel <= 1 or n_seeds == 1:
        results = [_run_indexed(j) for j in jobs]
    else:
        with ProcessPoolExecutor(max_workers=parallel) as pool:
            results = list(pool.map(_run_indexed, jobs))
    results.sort(key=lambda pair: pair[0])
    return [t for _, t in results]

