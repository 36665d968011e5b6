import math
from dataclasses import dataclass, field, replace

import numpy as np
import pytest

from tailclip.clip import acclip_factors, cclip, gclip
from tailclip.errors import ConfigurationError
from tailclip.noise import NoiseSpec, iter_blocks
from tailclip.optimizers import (
    ALGORITHMS,
    TRACE_METRICS,
    OptimizerConfig,
    Schedule,
    average_traces,
    cclip_schedule,
    record_points,
    run,
    run_seeds,
    nonconvex_schedule,
    strongly_convex_schedule,
)
from tailclip.problems import Ball, nonconvex_problem, project, quadratic_problem


# ---------------------------------------------------------------------------
# Reference oracles the run loop is checked against


def noise_rows(problem, K, seed):
    """The K noise rows a run with ``seed`` adds to its gradients."""
    return np.vstack(list(iter_blocks(problem.noise, np.random.default_rng(seed), K)))


def weighted_average(iterates) -> np.ndarray:
    """j-weighted average of x_0..x_{k-1}: sum_j j*x_{j-1} / sum_j j."""
    total = None
    weight = 0.0
    for j, x in enumerate(iterates, start=1):
        x = np.asarray(x, dtype=float)
        total = j * x if total is None else total + j * x
        weight += j
    if total is None:
        raise ConfigurationError("weighted_average needs a nonempty sequence")
    return total / weight


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
    """State of the adaptive clipping loop.

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
        self.m = np.zeros_like(self.x) if self.m is None else np.asarray(self.m, dtype=float)
        if self.tau_alpha is None:
            self.tau_alpha = np.zeros_like(self.x)
        self.tau_alpha = np.asarray(self.tau_alpha, dtype=float)


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


def acclip_reference_run(problem, config: OptimizerConfig, seed) -> np.ndarray:
    """Final iterate from repeated acclip_step calls."""
    d = problem.dimension
    params = ACClipParams(
        beta1=config.beta1, beta2=config.beta2,
        alpha=config.acclip_alpha, epsilon=config.epsilon,
    )
    state = ACClipState(x=np.full(d, float(config.x0)), params=params)
    noise = noise_rows(problem, config.iterations, seed)
    for eta, xi in zip(config.schedule.etas(config.iterations), noise):
        state = acclip_step(state, problem.exact_gradient(state.x) + xi, eta)
    return state.x


def clip_reference_run(problem, config: OptimizerConfig, seed) -> np.ndarray:
    """Final iterate of gclip, proj_gclip or cclip from clip.gclip/clip.cclip steps."""
    sched, K = config.schedule, config.iterations
    clip = cclip if config.algorithm == "cclip" else gclip
    x = np.full(problem.dimension, float(config.x0))
    noise = noise_rows(problem, K, seed)
    for eta, scale, xi in zip(sched.etas(K), sched.tau_scales(K), noise):
        x = x - eta * clip(problem.exact_gradient(x) + xi, sched.tau * scale)
        if config.project:
            x = project(problem.domain, x)
    return x


def final_iterate(problem, config: OptimizerConfig, seed) -> np.ndarray:
    """The last point the run loop records, read where it evaluates its points."""
    points = []

    def value(x):
        points.append(np.array(x))
        return problem.value(x)

    run(replace(problem, value=value), replace(config, record=config.iterations), seed)
    return points[-1][-1]


def make_quadratic(d=2, noise_family="zero", tail=1.5, scale=1.0, mu=1.0, domain=None):
    noise = NoiseSpec(noise_family, dimension=d, tail_index=tail, scale=scale)
    p = quadratic_problem(mu, d, 0.0, noise)
    p.domain = domain
    return p


def eta_at(s: Schedule, k: int):
    return s.etas(k)[k - 1]


def tau_at(s: Schedule, k: int):
    return s.tau * s.tau_scales(k)[k - 1]


class TestSchedules:
    def test_nonconvex_schedule_hand_arithmetic(self):
        # L=1, sigma=1, alpha=2, K=1, f0=1: tau = max{2,48,8,1} = 48,
        # eta = min{1/4, 1/48^2, 1/(24*48)} = 1/2304
        s = nonconvex_schedule(1.0, 1.0, 2.0, 1, 1.0)
        assert tau_at(s, 1) == pytest.approx(48.0)
        assert eta_at(s, 1) == pytest.approx(1.0 / 2304.0)

    def test_nonconvex_schedule_zero_noise_degenerate(self):
        s = nonconvex_schedule(2.0, 0.0, 1.5, 100, 1.0)
        assert eta_at(s, 1) == pytest.approx(1.0 / 8.0)
        assert tau_at(s, 1) == pytest.approx(2.0)

    def test_nonconvex_schedule_alpha_one_rejected(self):
        with pytest.raises(ConfigurationError):
            nonconvex_schedule(1.0, 1.0, 1.0, 10, 1.0)

    def test_nonconvex_schedule_k_term_dominates_for_large_budget(self):
        # cross-check the max expression by recomputing it independently
        L, sigma, alpha, K, f0 = 1.0, 0.05, 2.0, 10**6, 50.0
        s = nonconvex_schedule(L, sigma, alpha, K, f0)
        terms = [
            2.0,
            48.0 ** (1 / (alpha - 1)) * sigma ** (alpha / (alpha - 1)),
            8.0 * sigma,
            (f0 / (sigma**2 * K)) ** (alpha / (3 * alpha - 2)) / L ** ((2 * alpha - 2) / (3 * alpha - 2)),
        ]
        assert tau_at(s, 1) == pytest.approx(max(terms), rel=1e-12)

    def test_strongly_convex_schedule_values(self):
        s = strongly_convex_schedule(1.0, 1.0, 2.0)
        assert eta_at(s, 3) == pytest.approx(1.0)  # 4/(mu*(k+1)) at k=3
        assert tau_at(s, 16) == pytest.approx(4.0)  # G * 16^(1/2)

    def test_strongly_convex_schedule_validation(self):
        with pytest.raises(ConfigurationError):
            strongly_convex_schedule(0.0, 1.0, 1.5)
        with pytest.raises(ConfigurationError):
            strongly_convex_schedule(1.0, 1.0, 2.5)

    def test_cclip_thresholds(self):
        s = cclip_schedule(1.0, np.array([1.0, 2.0]), 2.0)
        assert np.allclose(tau_at(s, 4), [2.0, 4.0])  # B_i * 4^(1/2)
        assert np.allclose(tau_at(s, 1), [1.0, 2.0])
        assert np.all(tau_at(cclip_schedule(1.0, np.zeros(3), 1.5), 10) == 0.0)

    def test_schedule_validation(self):
        with pytest.raises(ConfigurationError):
            Schedule(eta=0.0)
        with pytest.raises(ConfigurationError):
            Schedule(eta=0.1, tau=-1.0)
        with pytest.raises(ConfigurationError):
            Schedule(eta=0.1, tau=np.array([1.0, -1.0]))


class TestWeightedAverage:
    def test_single(self):
        x = np.array([2.0, -1.0])
        assert np.array_equal(weighted_average([x]), x)

    def test_hand_value(self):
        out = weighted_average([np.array([0.0]), np.array([3.0])])
        assert out[0] == pytest.approx(2.0)  # (1*0 + 2*3)/3

    def test_constant_sequence(self):
        c = np.array([0.7, -0.2])
        assert np.allclose(weighted_average([c] * 9), c)

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            weighted_average([])


class TestRecordPoints:
    def test_log_includes_decades_and_ends(self):
        pts = record_points(10**5, "log")
        for needed in (1, 10, 100, 1000, 10**4, 10**5):
            assert needed in pts
        assert pts[0] == 1 and pts[-1] == 10**5
        assert np.all(np.diff(pts) > 0)

    def test_stride(self):
        assert list(record_points(10, 3)) == [1, 3, 6, 9, 10]

    @pytest.mark.parametrize("K,stride,want", [(1, 1, [1]), (1, 5, [1]), (7, 10, [1, 7]),
                                               (10, 10, [1, 10]), (12, 4, [1, 4, 8, 12])])
    def test_stride_adds_first_and_last(self, K, stride, want):
        pts = record_points(K, stride)
        assert pts.dtype == np.int64 and list(pts) == want

    @pytest.mark.parametrize("record", [0, -3, "every", [5, 10]])
    def test_bad_record_refused(self, record):
        with pytest.raises(ConfigurationError, match="stride"):
            record_points(100, record)


class TestRunLoop:
    def test_deterministic(self):
        p = make_quadratic(3, "stable", 1.5)
        cfg = OptimizerConfig("gclip", Schedule(0.05, 1.0), 300, x0=1.0)
        a = run(p, cfg, 9)
        b = run(p, cfg, 9)
        assert np.array_equal(a.suboptimality, b.suboptimality)
        assert np.array_equal(a.clip_frac, b.clip_frac)

    def test_noise_free_gclip_closed_form(self):
        # eta=0.5, mu=1: x halves every step, suboptimality quarters
        p = make_quadratic(2)
        cfg = OptimizerConfig(
            "gclip", Schedule(0.5, math.inf), 20, x0=1.0, record=1
        )
        tr = run(p, cfg, 0)
        expect = np.array([1.0 * 0.5**k for k in range(1, 21)])
        assert np.allclose(tr.suboptimality, expect**2, rtol=1e-12)

    def test_acclip_reduction_matches_sgd_exactly(self):
        p = make_quadratic(4, "stable", 1.5)
        sched = Schedule(0.02)
        base = dict(schedule=sched, iterations=400, x0=1.0, record=7)
        t_sgd = run(p, OptimizerConfig("sgd", **base), 5)
        t_ac = run(
            p,
            OptimizerConfig(
                "acclip", beta1=0.0, beta2=0.0, acclip_alpha=1.0, epsilon=0.0, **base
            ),
            5,
        )
        for f in ("suboptimality", "grad_norm", "min_grad_stat", "clip_frac", "eff_step"):
            assert np.array_equal(t_sgd.metric(f), t_ac.metric(f)), f

    def test_gclip_cclip_infinite_tau_match_sgd(self):
        p = make_quadratic(3, "pareto", 2.5)
        base = dict(iterations=300, x0=-0.5, record=11)
        t_sgd = run(p, OptimizerConfig("sgd", schedule=Schedule(0.03), **base), 2)
        t_gc = run(p, OptimizerConfig("gclip", schedule=Schedule(0.03, math.inf), **base), 2)
        cc_sched = Schedule(0.03, tau=np.full(3, math.inf))
        t_cc = run(p, OptimizerConfig("cclip", schedule=cc_sched, **base), 2)
        assert np.array_equal(t_sgd.suboptimality, t_gc.suboptimality)
        assert np.array_equal(t_sgd.suboptimality, t_cc.suboptimality)

    def test_projected_iterates_stay_in_domain(self):
        dom = Ball(center=np.full(2, 1.0), radius=1.5)
        p = make_quadratic(2, "stable", 1.5, domain=dom)
        cfg = OptimizerConfig(
            "proj_gclip", strongly_convex_schedule(1.0, 3.0, 1.5), 500, x0=1.0, record=1
        )
        tr = run(p, cfg, 3)
        # re-run manually to check the recorded suboptimality is feasible
        assert np.all(tr.suboptimality <= 0.5 * (np.linalg.norm(dom.center) + dom.radius) ** 2)
        assert tr.ks[0] == 1 and tr.ks[-1] == 500

    def test_proj_gclip_requires_domain(self):
        p = make_quadratic(2)
        cfg = OptimizerConfig("proj_gclip", Schedule(0.1, 1.0), 10)
        with pytest.raises(ConfigurationError):
            run(p, cfg, 0)

    def test_noise_free_inverse_time_monotone_after_step_one(self):
        p = make_quadratic(4)
        cfg = OptimizerConfig("gclip", strongly_convex_schedule(1.0, 5.0, 2.0), 200, x0=2.0, record=1)
        tr = run(p, cfg, 0)
        # eta_k = 4/(k+1) <= 2/mu from k=1 onward: monotone decrease in f
        assert np.all(np.diff(tr.suboptimality) <= 1e-14)

    def test_averaging_matches_weighted_average_op(self):
        p = make_quadratic(2, "gaussian")
        K = 50
        cfg = OptimizerConfig("sgd", Schedule(0.05), K, x0=1.0, averaging=True, record=K)
        tr = run(p, cfg, 13)
        # replay the iterates to cross-check the averaged suboptimality
        rng_trace = []
        x = np.full(2, 1.0)
        from tailclip.noise import sample_noise_batch

        noise = sample_noise_batch(p.noise, np.random.default_rng(13), K)
        for k in range(K):
            rng_trace.append(x.copy())
            x = x - 0.05 * (p.exact_gradient(x) + noise[k])
        xbar = weighted_average(rng_trace)
        assert tr.suboptimality[-1] == pytest.approx(p.value(xbar), rel=1e-12)

    def test_acclip_run_matches_reference_steps(self):
        p = make_quadratic(3, "gaussian")
        cfg = OptimizerConfig(
            "acclip", Schedule(0.05), 40, x0=1.0,
            beta1=0.9, beta2=0.99, acclip_alpha=1.0, epsilon=1e-5, record=40,
        )
        tr = run(p, cfg, 21)
        x_ref = acclip_reference_run(p, cfg, 21)
        assert tr.suboptimality[-1] == pytest.approx(p.value(x_ref), rel=1e-12)

    @pytest.mark.parametrize("alg", ["gclip", "proj_gclip", "cclip"])
    def test_clip_run_matches_reference_clip_steps(self, alg):
        d = 4
        p = make_quadratic(d, "stable", 1.6, domain=Ball(center=np.full(d, 1.0), radius=1.5))
        if alg == "cclip":
            sched = cclip_schedule(1.0, np.array([0.1, 0.2, 0.4, 0.8]), 1.5)
        else:
            sched = strongly_convex_schedule(1.0, 0.3, 1.5)
        cfg = OptimizerConfig(alg, sched, 300, x0=1.0, project=alg == "proj_gclip")
        # the step-by-step operators scale by the peak coordinate, the run
        # loop by the norm: the two may differ by an ulp per step
        np.testing.assert_allclose(final_iterate(p, cfg, 5), clip_reference_run(p, cfg, 5),
                                   rtol=1e-12, atol=0.0)

    def test_momentum_and_adamlike_converge_noise_free(self):
        p = make_quadratic(3)
        for alg, sched in (
            ("momentum_sgd", Schedule(0.2)),
            ("adamlike", Schedule(0.05)),
        ):
            cfg = OptimizerConfig(alg, sched, 800, x0=1.0, beta1=0.9, beta2=0.99, epsilon=1e-8)
            tr = run(p, cfg, 0)
            assert tr.suboptimality[-1] < 1e-3, alg

    def test_vector_threshold_only_for_cclip(self):
        p = make_quadratic(2)
        sched = cclip_schedule(1.0, np.ones(2), 1.5)
        with pytest.raises(ConfigurationError):
            run(p, OptimizerConfig("gclip", sched, 10), 0)


@pytest.mark.parametrize("averaging", [False, True])
@pytest.mark.parametrize("alg", ALGORITHMS)
def test_every_step_record_matches_log_grid(alg, averaging):
    # recording every step must not move any value the log grid records
    d = 3
    p = make_quadratic(d, "stable", 1.6, scale=0.5, domain=Ball(center=np.full(d, 1.0), radius=3.0))
    if alg == "cclip":
        sched = cclip_schedule(1.0, np.full(d, 2.0), 1.5)
    else:
        sched = strongly_convex_schedule(1.0, 2.0, 1.5)

    def traced(record):
        cfg = OptimizerConfig(alg, sched, 2000, x0=1.0, averaging=averaging, project=True,
                              record=record)
        return run(p, cfg, 17)

    every, log = traced(1), traced("log")
    idx = np.searchsorted(every.ks, log.ks)
    assert np.array_equal(every.ks[idx], log.ks)
    for m in TRACE_METRICS:
        assert np.array_equal(every.metric(m)[idx], log.metric(m)), m


class TestSeedFanOut:
    def test_prefix_stability(self):
        p = make_quadratic(2, "stable", 1.5)
        cfg = OptimizerConfig("gclip", Schedule(0.05, 2.0), 100, x0=1.0)
        five = run_seeds(p, cfg, 5, master_seed=11, parallel=1)
        nine = run_seeds(p, cfg, 9, master_seed=11, parallel=1)
        for a, b in zip(five, nine):
            assert np.array_equal(a.suboptimality, b.suboptimality)

    def test_seeds_differ(self):
        p = make_quadratic(2, "gaussian")
        cfg = OptimizerConfig("sgd", Schedule(0.05), 50, x0=1.0)
        traces = run_seeds(p, cfg, 3, master_seed=0, parallel=1)
        assert not np.array_equal(traces[0].suboptimality, traces[1].suboptimality)
        assert [t.seed for t in traces] == [0, 1, 2]

    def test_average_traces(self):
        p = make_quadratic(2, "gaussian")
        cfg = OptimizerConfig("sgd", Schedule(0.05), 50, x0=1.0)
        traces = run_seeds(p, cfg, 4, master_seed=1, parallel=1)
        mean = average_traces(traces)
        stacked = np.stack([t.suboptimality for t in traces])
        assert np.allclose(mean.suboptimality, stacked.mean(axis=0))
        med = average_traces(traces, stat="median")
        assert np.allclose(med.suboptimality, np.median(stacked, axis=0))


def test_nonconvex_problem_decreases_under_sgd():
    noise = NoiseSpec("gaussian", dimension=4, scale=0.05)
    p = nonconvex_problem(4, noise)
    cfg = OptimizerConfig("sgd", Schedule(0.05), 2000, x0=1.2)
    tr = run(p, cfg, 0)
    assert tr.suboptimality[-1] < 0.05 * tr.suboptimality[0]
