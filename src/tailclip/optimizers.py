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
import operator
import os
import tempfile
from collections.abc import Iterator
from contextlib import closing
from dataclasses import dataclass, replace

import numpy as np

from .clip import acclip_factors
from .errors import ConfigurationError
from .noise import fan_out, forks, row_blocks, sample_noise_batch
from .problems import StochasticProblem
# average_traces is also taken from here: perfbench/traced.py calls optimizers.average_traces
from .traces import TRACE_METRICS, Trace, average_traces

ALGORITHMS = ("sgd", "momentum_sgd", "gclip", "proj_gclip", "cclip", "acclip", "adamlike")


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

    def etas(self, K: int, start: int = 0) -> np.ndarray:
        """eta_k for k = start+1..K."""
        if self.inverse_time:
            return self.eta / (np.arange(start + 1, K + 1, dtype=float) + 1.0)
        return np.full(K - start, self.eta)

    def tau_scales(self, K: int, start: int = 0) -> np.ndarray:
        """k^tau_exponent for k = start+1..K; tau_k is ``tau * tau_scales(K)[k-1]``."""
        return np.arange(start + 1, K + 1, dtype=float) ** self.tau_exponent


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
        check_moment_settings(self.beta1, self.beta2, self.acclip_alpha, self.epsilon)
        if self.algorithm == "proj_gclip":
            self.project = True


def check_moment_settings(beta1: float, beta2: float, acclip_alpha: float, epsilon: float):
    """Refuse moment weights outside [0, 1), an ACClip exponent <= 0 (the run
    loop takes its inverse) and a negative epsilon; beta1 = beta2 = epsilon
    = 0 stays valid."""
    for key, value in (("beta1", beta1), ("beta2", beta2)):
        if not 0.0 <= value < 1.0:
            raise ConfigurationError(f"{key} = {value:g}: expected a weight in [0, 1)")
    if not acclip_alpha > 0.0:
        raise ConfigurationError(f"acclip_alpha = {acclip_alpha:g}: expected a positive exponent")
    if not epsilon >= 0.0:
        raise ConfigurationError(f"epsilon = {epsilon:g}: expected a number >= 0")


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


def _noise_blocks(K: int, d: int) -> Iterator[slice]:
    """The run loop's noise blocks of steps: the sampler's sub-blocks of rows
    at least 4 wide, so at most 4,096 rows.  At d = 1 each row keeps a Python
    float in the block's list of iterates, and the step measured 8 % slower
    at 16,384 rows (the sub-block) than at 4,096."""
    return row_blocks(K, max(d, 4))


def _running_sums(carry, terms: np.ndarray) -> np.ndarray:
    """carry + terms[0], then + terms[1], ... along axis 0: the sums ``+=``
    gives, operand order included, for np.cumsum adds strictly in sequence."""
    sums = np.empty((len(terms) + 1,) + terms.shape[1:])
    sums[0] = carry
    sums[1:] = terms
    return np.cumsum(sums, axis=0, out=sums)[1:]


class _Bookkeeping:
    """What the run loop only accumulates, taken one noise block at a time.

    Each step k appends its iterate x_k to ``xs``, which starts each block
    with the x_{k-1} the block's first step starts from; each record step
    appends its clip fraction and effective step.  ``block_end`` then takes
    the block's (n + 1, d) stack X of iterates and does in one array pass
    what the loop would do with ``+=`` at every step: gsq = eg @ eg for the
    gradients eg of X[1:], run_sq += gsq, run_min += (gsq if gsq < 1 else
    its root), w_sum += k * x_{k-1} over X[:-1] and w_total += k, with the
    same IEEE operations in the same order, and fills the block's records.
    """

    def __init__(self, rec: np.ndarray, problem: StochasticProblem, averaging: bool, x0):
        self.rec, self.d, self.averaging = rec, problem.dimension, averaging
        self.value, self.gradient = problem.value, problem.exact_gradient
        self.xs, self.clip_fracs, self.eff_steps = [x0], [], []
        self.done = 0  # steps taken
        self.filled = 0  # records filled
        self.run_sq = self.run_min = self.w_total = 0.0
        self.w_sum = np.zeros(self.d)
        self.columns = [np.empty(len(rec)) for _ in range(6)]

    def block_records(self, n: int) -> list[int]:
        """The record points among the next n steps."""
        return self.rec[self.filled:np.searchsorted(self.rec, self.done + n, "right")].tolist()

    def block_end(self) -> None:
        X = np.reshape(self.xs, (-1, self.d))  # the list holds floats at d = 1
        del self.xs[:-1]  # the next block starts from this one's last iterate
        n, first = len(X) - 1, self.done + 1
        E = self.gradient(X[1:])
        gsq = np.vecdot(E, E)
        sq = _running_sums(self.run_sq, gsq)
        mins = _running_sums(self.run_min, np.where(gsq < 1.0, gsq, np.sqrt(gsq)))
        self.run_sq, self.run_min = sq[-1], mins[-1]
        if self.averaging:
            weights = np.arange(first, first + n, dtype=float)
            sums = _running_sums(self.w_sum, weights[:, None] * X[:-1])
            totals = _running_sums(self.w_total, weights)
            self.w_sum, self.w_total = sums[-1], totals[-1]
        self.done += n
        r = len(self.clip_fracs)
        if not r:
            return
        at = self.rec[self.filled:self.filled + r] - first  # the records' rows in the block
        points = sums[at] / totals[at, None] if self.averaging else X[1:][at]
        out = slice(self.filled, self.filled + r)
        subopt, gsq_rec, clip_frac, eff_step, run_sq, run_min = self.columns
        subopt[out] = self.value(points)
        gsq_rec[out], run_sq[out], run_min[out] = gsq[at], sq[at], mins[at]
        clip_frac[out], eff_step[out] = self.clip_fracs, self.eff_steps
        self.clip_fracs.clear()
        self.eff_steps.clear()
        self.filled += r

    def trace(self, seed: int, algorithm: str) -> Trace:
        subopt, gsq, clip_frac, eff_step, run_sq, run_min = self.columns
        grad_norm = np.sqrt(gsq)
        return Trace(
            ks=self.rec,
            suboptimality=subopt,
            grad_norm=grad_norm,
            min_grad_stat=np.minimum(grad_norm, gsq, out=gsq),
            clip_frac=clip_frac,
            eff_step=eff_step,
            avg_grad_sq=np.divide(run_sq, self.rec, out=run_sq),
            avg_min_stat=np.divide(run_min, self.rec, out=run_min),
            seed=seed,
            algorithm=algorithm,
        )


@np.errstate(over="ignore", invalid="ignore")
def run(problem: StochasticProblem, config: OptimizerConfig, seed) -> Trace:
    """Execute one optimization run; deterministic given (problem, config, seed).

    A divergent run overflows to inf and NaN without a RuntimeWarning: its
    trace carries them, and the checks fail on them.

    The loop body only updates the state: the noise add, the step, the
    projection and the gradient, and appends each step's iterate.  It draws
    the noise in the blocks of ``_noise_blocks(K, d)``, and ``_Bookkeeping``
    takes what the loop only accumulates from the block's iterates in one
    array pass per block.  It never updates ``x`` in place: the state is
    rebound each step, which lets the problem hand back ``x`` itself as its
    gradient (the quadratic with mu = 1, x* = 0) and lets the block keep
    every iterate without a copy.

    At d = 1 the state is held as Python floats, and the problem's
    ``exact_gradient`` takes and returns floats: one numpy operation on a
    one-element array costs as much as some twenty float operations.  Both
    kinds of state take the same IEEE operations in the same order, so the
    trace is the same to the bit.  Powers go through ``np.power``, which on
    a float equals numpy's array power; ``**`` on a float calls the C
    library's pow, which can differ in the last bit, even at p = 2.  Squared
    norms on the per-step path are ``sq(v, v)``: ``v * v`` on a float, and
    ``v.dot(v)`` on an array, which gives the bits of ``v @ v`` in about
    half the time.

    The ball projection is written into the loop at every d, and ``gclip``
    and ``proj_gclip`` screen it: ``reach`` bounds ||x - center||, and a
    step of length eff_step * ||g|| moves it by at most that much, so while
    reach + step <= radius - slack the projection is a no-op and its
    subtraction and dot are skipped.  Otherwise, and at the first step of
    every noise block, the exact distance is taken as ``Ball.project``
    takes it, and ``reach`` becomes it, or the radius when the step
    projects.  A NaN or inf step or bound fails the comparison and takes
    the exact path.  slack = 1e-9 (radius + ||center||) covers the
    rounding that the bound does not see.  While screened, ||x|| is at most
    radius + ||center||, and one step's rounding adds at most (d/2 + 5)
    ulps of that to ||x - center|| beyond reach, at d = 1 as at d >= 2: the
    computed step length can be short by (d/2 + 2) ulps (the dot product of
    d squares, the root and the product), and the update's product and
    difference and the bound's sum round once each.  A noise block holds at
    most 4,096 and at most 16,384 / d steps, so the bound drifts by at most
    28,672 ulps, 3.2e-12 (radius + ||center||), before the next block's
    first step takes the exact distance again.
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

    m = v = tau_alpha = 0.0 if scalar else np.zeros(d)  # rebound each step, never updated in place
    acc_alpha = config.acclip_alpha
    inv_alpha = 1.0 / acc_alpha
    eps = config.epsilon
    b1, b2 = config.beta1, config.beta2

    book = _Bookkeeping(record_points(K, config.record), problem, config.averaging, x)
    keep_x = book.xs.append
    keep_clip_frac, keep_eff_step = book.clip_fracs.append, book.eff_steps.append

    sq = operator.mul if scalar else np.ndarray.dot  # sq(v, v): the bits of v @ v
    if project:
        center = float(domain.center[0]) if scalar else domain.center
        radius = domain.radius
        near = radius - 1e-9 * (radius + math.sqrt(sq(center, center)))
    step = math.inf  # the step's length, which only gclip and proj_gclip know

    exact_gradient = problem.exact_gradient
    eg = exact_gradient(x)

    for steps in _noise_blocks(K, d):
        start, stop = steps.start, steps.stop
        reach = math.inf  # the block's first step takes the exact distance
        block = sample_noise_batch(problem.noise, rng, stop - start)
        pending = iter(book.block_records(len(block)))
        next_rec = next(pending, 0)
        # at d = 1 the block's rows as floats: the same doubles
        for xi, k, eta, scale in zip(block.ravel().tolist() if scalar else block,
                                     range(start + 1, stop + 1), sched.etas(stop, start).tolist(),
                                     sched.tau_scales(stop, start).tolist()):
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
                norm = math.sqrt(sq(g, g))
                c = 1.0 if (norm == 0.0 or norm <= tau_k) else tau_k / norm
                eff_step = eta * c
                x = x - eff_step * g
                clip_frac = 1.0 if c < 1.0 else 0.0
                step = eff_step * norm
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
                reach += step
                if not reach <= near:
                    dev = x - center
                    reach = math.sqrt(sq(dev, dev))
                    if not reach <= radius:  # NaN and inf project, as in Ball.project
                        x = center + dev * (radius / reach)
                        reach = radius

            eg = exact_gradient(x)
            keep_x(x)

            if k == next_rec:
                keep_clip_frac(clip_frac)
                keep_eff_step(eff_step)
                next_rec = next(pending, 0)

        book.block_end()

    seed_label = seed if isinstance(seed, (int, np.integer)) else -1
    return book.trace(int(seed_label), alg)


def seed_stream(master_seed: int, index: int) -> np.random.SeedSequence:
    """Independent per-run stream derived from (master seed, run index)."""
    return np.random.SeedSequence([int(master_seed), int(index)])


def _run_indexed(args) -> Trace:
    problem, config, master_seed, index = args
    return replace(run(problem, config, seed_stream(master_seed, index)), seed=index)


def _run_to_file(args, directory: str) -> str:
    """Run one replica in a worker and save its trace's arrays in
    ``directory``; the file's path goes back to the parent."""
    trace = _run_indexed(args)
    path = os.path.join(directory, f"{trace.seed}.npz")
    np.savez(path, ks=trace.ks, **{f: trace.metric(f) for f in TRACE_METRICS})
    return path


def _load_trace(path: str, algorithm: str, seed: int) -> Trace:
    with np.load(path) as arrays:
        trace = Trace(**{name: arrays[name] for name in arrays.files}, seed=seed,
                      algorithm=algorithm)
    os.remove(path)
    return trace


def iter_seeds(
    problem: StochasticProblem,
    config: OptimizerConfig,
    n_seeds: int,
    master_seed: int = 0,
    parallel: int | None = None,
) -> Iterator[Trace]:
    """Yield the traces of ``n_seeds`` independent replicas in seed order;
    replica i draws from a stream derived from (master_seed, i), so adding
    seeds never changes earlier ones.

    The seeds go through noise.fan_out on up to ``parallel`` workers (by
    default one per core).  When they fork, each worker saves its trace to
    a temporary file, read when the caller asks for it: the caller holds
    one trace at a time, and the traces not yet taken wait on disk.  If a
    seed raises or the caller stops early, the seeds not yet started are
    cancelled and the running ones finish before the temporary files are
    removed.
    """
    jobs = [(problem, config, master_seed, i) for i in range(n_seeds)]
    if not forks(parallel, n_seeds):
        for job in jobs:
            yield _run_indexed(job)
        return
    with tempfile.TemporaryDirectory() as tmp, \
            closing(fan_out(lambda i: _run_to_file(jobs[i], tmp), n_seeds, parallel)) as paths:
        for seed, path in enumerate(paths):
            yield _load_trace(path, config.algorithm, seed)


def run_seeds(
    problem: StochasticProblem,
    config: OptimizerConfig,
    n_seeds: int,
    master_seed: int = 0,
    parallel: int | None = None,
) -> list[Trace]:
    """The traces of iter_seeds as a list, seeds ascending."""
    return list(iter_seeds(problem, config, n_seeds, master_seed, parallel))
