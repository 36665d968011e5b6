import math
import tracemalloc
import types
from dataclasses import dataclass, replace
from itertools import product

import numpy as np
import pytest

from tailclip import optimizers
from tailclip.clip import acclip_factors
from tailclip.errors import ConfigurationError
from tailclip.noise import NoiseSpec, sample_noise_batch
from tailclip.optimizers import (
    _noise_blocks,
    ALGORITHMS,
    OptimizerConfig,
    Schedule,
    cclip_schedule,
    iter_seeds,
    record_points,
    run,
    run_seeds,
    nonconvex_schedule,
    strongly_convex_schedule,
)
from tailclip.problems import (
    Ball,
    StochasticProblem,
    nonconvex_problem,
    project,
    quadratic_problem,
)
from tailclip.traces import TRACE_METRICS, SeedMean, Trace, average_traces
from test_clip import ACClipParams, ACClipState, acclip_step, cclip, gclip


# ---------------------------------------------------------------------------
# Reference oracles the run loop is checked against


def noise_rows(problem, K, seed):
    """The K noise rows a run with ``seed`` adds to its gradients."""
    return sample_noise_batch(problem.noise, np.random.default_rng(seed), K)


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


def reference_run(problem: StochasticProblem, config: OptimizerConfig, seed) -> Trace:
    """The run loop with its state held in numpy arrays at every d, numpy scalars
    for the schedules and a set of record points: the reference ``run`` must
    equal bit for bit."""
    alg = config.algorithm
    K = config.iterations
    sched = config.schedule
    d = problem.dimension
    rng = np.random.default_rng(seed)

    x = np.broadcast_to(np.asarray(config.x0, dtype=float), (d,)).astype(float).copy()
    domain = problem.domain
    if config.project and domain is None:
        raise ConfigurationError(f"{alg} requires a feasible domain on the problem")
    if np.ndim(sched.tau) and alg != "cclip":
        raise ConfigurationError("vector thresholds only apply to coordinate-wise clipping")
    etas = sched.etas(K)
    tau = sched.tau
    tau_scales = sched.tau_scales(K)

    m = np.zeros(d)
    tau_alpha = np.zeros(d)
    v = np.zeros(d)
    acc_alpha = config.acclip_alpha
    eps = config.epsilon
    b1, b2 = config.beta1, config.beta2

    averaging = config.averaging
    w_sum = np.zeros(d)
    w_total = 0.0

    rec = record_points(K, config.record)
    rec_set = set(int(r) for r in rec)
    # Per record point: the evaluated point (the weighted sum when averaging,
    # divided after the loop) and the scalars (gsq, clip_frac, eff_step,
    # run_sq, run_min, w_total).
    points = np.empty((len(rec), d))
    scalars = []

    exact_gradient = problem.exact_gradient
    noise_rows = iter(sample_noise_batch(problem.noise, rng, K))

    run_sq = 0.0
    run_min = 0.0
    eg = exact_gradient(x)

    for k in range(1, K + 1):
        if averaging:
            w_sum += k * x
            w_total += k

        g = eg + next(noise_rows)
        eta = etas[k - 1]
        clip_frac = 0.0
        eff_step = eta

        if alg == "sgd":
            x = x - eta * g
        elif alg == "momentum_sgd":
            m = b1 * m + (1.0 - b1) * g
            x = x - eta * m
        elif alg in ("gclip", "proj_gclip"):
            tau_k = tau * tau_scales[k - 1]
            norm = math.sqrt(float(g @ g))
            c = 1.0 if (norm == 0.0 or norm <= tau_k) else tau_k / norm
            x = x - (eta * c) * g
            clip_frac = 1.0 if c < 1.0 else 0.0
            eff_step = eta * c
        elif alg == "cclip":
            tau_k = tau * tau_scales[k - 1]
            clipped = np.clip(g, -tau_k, tau_k)
            x = x - eta * clipped
            if k in rec_set:
                absg = np.abs(g)
                factors = np.ones(d)
                np.divide(tau_k, absg, out=factors, where=absg > tau_k)
                clip_frac = float(np.mean(factors < 1.0))
                eff_step = eta * float(np.mean(factors))
        elif alg == "acclip":
            m = b1 * m + (1.0 - b1) * g
            tau_alpha = b2 * tau_alpha + (1.0 - b2) * np.abs(g) ** acc_alpha
            tau_vec = tau_alpha ** (1.0 / acc_alpha)
            factors = acclip_factors(m, tau_vec, eps)
            x = x - eta * (factors * m)
            clip_frac = float(np.mean(factors < 1.0))
            eff_step = eta * float(np.mean(factors))
        else:  # adamlike
            m = b1 * m + (1.0 - b1) * g
            v = b2 * v + (1.0 - b2) * g * g
            denom = eps + np.sqrt(v)
            direction = m if b1 > 0.0 else g
            x = x - eta * direction / denom
            eff_step = eta * float(np.mean(1.0 / denom))

        if config.project:
            x = domain.project(x)

        eg = exact_gradient(x)
        gsq = float(eg @ eg)
        run_sq += gsq
        run_min += gsq if gsq < 1.0 else math.sqrt(gsq)

        if k in rec_set:
            points[len(scalars)] = w_sum if averaging else x
            scalars.append((gsq, clip_frac, eff_step, run_sq, run_min, w_total))

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
        for nan_tau in (math.nan, np.array([1.0, math.nan])):
            with pytest.raises(ConfigurationError, match="nonnegative"):
                Schedule(eta=0.1, tau=nan_tau)


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

    @pytest.mark.parametrize("setting", [dict(beta1=1.0), dict(beta2=-0.1), dict(acclip_alpha=0.0),
                                         dict(epsilon=-1e-8)], ids=str)
    def test_moment_setting_outside_its_range_refused(self, setting):
        with pytest.raises(ConfigurationError, match=next(iter(setting))):
            OptimizerConfig("sgd", Schedule(0.1), 10, **setting)

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
        with pytest.raises(ConfigurationError, match="median"):
            average_traces(traces, stat="median")


def folded_mean(traces) -> Trace:
    mean = SeedMean()
    for t in traces:
        mean.add(t)
    return mean.mean()


class TestSeedMean:
    @pytest.mark.parametrize("K", [1, 2, 5])
    @pytest.mark.parametrize("S", [1, 2, 3, 9, 20])
    def test_equals_average_traces_bit_for_bit(self, S, K):
        # the reference is np.mean of the (S, K) stack at K >= 2, and the sum
        # in seed order from +0.0 divided by S at K = 1, where numpy would
        # sum the (S, 1) column pairwise
        rng = np.random.default_rng(100 * S + K)
        ks = np.arange(1, K + 1)
        traces = [Trace(ks=ks, **{f: rng.standard_cauchy(K) for f in TRACE_METRICS},
                        seed=i, algorithm="gclip") for i in range(S)]
        for t in traces:
            t.eff_step[:] = -0.0  # the sum starts from +0.0, so the mean is +0.0
        traces[0].clip_frac[0] = math.inf
        traces[-1].clip_frac[-1] = -math.inf  # inf - inf: NaN when S > 1
        traces[S // 2].grad_norm[0] = math.nan
        want = {}
        with np.errstate(invalid="ignore"):  # inf - inf, both ways
            for f in TRACE_METRICS:
                stack = np.stack([t.metric(f) for t in traces])
                if K == 1:
                    total = 0.0
                    for value in stack[:, 0].tolist():
                        total += value
                    want[f] = np.array([total / S])
                else:
                    want[f] = np.mean(stack, axis=0)
            got = folded_mean(traces)
            assert_same_bits(average_traces(traces), got, (S, K))
        assert np.array_equal(got.ks, ks) and (got.seed, got.algorithm) == (-1, "gclip")
        for f in TRACE_METRICS:
            assert np.array_equal(got.metric(f).view(np.uint64), want[f].view(np.uint64)), (S, K, f)
        assert got.eff_step.view(np.uint64)[0] == 0

    def test_refuses_mismatched_records_empty_folds_and_adds_after_the_mean(self):
        p = make_quadratic(2, "gaussian")
        cfg = OptimizerConfig("sgd", Schedule(0.05), 50, x0=1.0)
        mean = SeedMean()
        with pytest.raises(ConfigurationError, match="no traces"):
            mean.mean()
        mean.add(run(p, cfg, 0))
        with pytest.raises(ConfigurationError, match="mismatched"):
            mean.add(run(p, replace(cfg, record=7), 1))
        mean.mean()
        with pytest.raises(ConfigurationError, match="already"):
            mean.add(run(p, cfg, 1))

    def test_workers_hand_back_seeds_in_order(self):
        p = make_quadratic(2, "stable", 1.5)
        cfg = OptimizerConfig("gclip", Schedule(0.05, 2.0), 200, x0=1.0)
        serial = run_seeds(p, cfg, 5, master_seed=4, parallel=1)
        pooled = list(iter_seeds(p, cfg, 5, master_seed=4, parallel=2))
        assert [t.seed for t in pooled] == [0, 1, 2, 3, 4]
        for a, b in zip(serial, pooled, strict=True):
            assert_same_bits(b, a, a.seed)


def test_nonconvex_problem_decreases_under_sgd():
    noise = NoiseSpec("gaussian", dimension=4, scale=0.05)
    p = nonconvex_problem(4, noise)
    cfg = OptimizerConfig("sgd", Schedule(0.05), 2000, x0=1.2)
    tr = run(p, cfg, 0)
    assert tr.suboptimality[-1] < 0.05 * tr.suboptimality[0]


# ---------------------------------------------------------------------------
# The run loop against reference_run, bit for bit: every algorithm at d = 1
# (float state) and d >= 2 (array state), on both problems, three noise
# families, with and without averaging and projection.

GATE_K = 300
GATE_NOISE = {
    "stable": dict(family="stable", tail_index=1.5),
    "gaussian": dict(family="gaussian"),
    "pareto": dict(family="pareto", tail_index=2.5),
}


@dataclass
class ArrayBall:
    """Ball.project written on arrays only."""

    center: np.ndarray
    radius: float

    def project(self, y):
        dev = y - self.center
        dist = math.sqrt(float(dev @ dev))
        if dist <= self.radius:
            return y
        return self.center + dev * (self.radius / dist)


def gate_problems(kind: str, d: int, noise: NoiseSpec, mu=0.7, x_star=0.2, radius=1.5):
    """The library's problem, with a ball around x0 = 1, and the same problem
    with value, gradient and projection written on arrays only."""
    if kind == "quadratic":
        problem = quadratic_problem(mu, d, x_star, noise)
        x_star = np.full(d, x_star)

        def value(x):
            dev = x - x_star
            return 0.5 * mu * np.vecdot(dev, dev)

        def gradient(x):
            return mu * (x - x_star)
    else:
        problem = nonconvex_problem(d, noise)

        def value(x):
            return np.sum(x * x / (1.0 + x * x), axis=-1)

        def gradient(x):
            return 2.0 * x / (1.0 + x * x) ** 2
    problem.domain = Ball(center=np.ones(d), radius=radius)
    reference = StochasticProblem(d, value, gradient, noise, domain=ArrayBall(np.ones(d), radius))
    return problem, reference


# (mu, x*) for each form of the quadratic's gradient: x itself and
# mu (x - x*), and x* = -0.0, which keeps the latter
GRADIENT_FORMS = [(1.0, 0.0), (0.7, 0.2), (1.0, -0.0)]


def optimum_distance(d: int, x_star: float) -> float:
    """||x* - x0|| with x0 = 1, computed as the run loop computes a distance."""
    dev = np.full(d, x_star) - 1.0
    return math.sqrt(dev.dot(dev))


def gradient_form_cases(alg: str, d: int):
    """gate_problems arguments for every gradient form; gclip and proj_gclip
    also take a ball that holds the optimum (the screening skips most
    projections), one that excludes it (the projection binds) and one with
    the optimum exactly on its sphere."""
    scales = (2.0, 0.5, 1.0) if alg in ("gclip", "proj_gclip") else (2.0,)
    for (mu, x_star), scale in product(GRADIENT_FORMS, scales):
        yield dict(mu=mu, x_star=x_star, radius=scale * optimum_distance(d, x_star))


def gate_schedule(alg: str, d: int) -> Schedule:
    if alg == "cclip":
        return cclip_schedule(1.0, np.linspace(0.3, 2.0, d), 1.5)
    if alg == "adamlike":
        return Schedule(0.01)
    return strongly_convex_schedule(1.0, 0.8, 1.5)


def assert_same_bits(trace: Trace, ref: Trace, label):
    assert np.array_equal(trace.ks, ref.ks), label
    assert (trace.seed, trace.algorithm) == (ref.seed, ref.algorithm), label
    for f in TRACE_METRICS:
        got, want = trace.metric(f), ref.metric(f)
        assert got.dtype == want.dtype == np.float64, (label, f)
        # compared as bit patterns, so NaN equals NaN and -0.0 differs from 0.0
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (label, f)


@pytest.mark.parametrize("d", [1, 2, 10, 100])
@pytest.mark.parametrize("alg", ALGORITHMS)
def test_run_matches_reference_bit_for_bit(alg, d):
    # acclip alternates its moment exponent between 1 and 1.5 (a non-integer
    # power), adamlike its momentum between on and off; the log grid and a
    # stride run on the plain stable cases
    variants = {"acclip": [dict(acclip_alpha=1.0), dict(acclip_alpha=1.5)],
                "adamlike": [dict(beta1=0.9), dict(beta1=0.0)]}.get(alg, [{}])
    cases = 0
    for family, kind, averaging, proj in product(GATE_NOISE, ("quadratic", "nonconvex"),
                                                 (False, True), (False, True)):
        if alg == "proj_gclip" and not proj:
            continue
        noise = NoiseSpec(dimension=d, **GATE_NOISE[family])
        problem, reference = gate_problems(kind, d, noise)
        plain = not (averaging or proj) and family == "stable"
        for record in [1, "log", 7] if plain else [1]:
            variant = variants[cases % len(variants)]
            cfg = OptimizerConfig(alg, gate_schedule(alg, d), GATE_K, x0=1.0, averaging=averaging,
                                  project=proj, record=record, **variant)
            assert_same_bits(run(problem, cfg, cases), reference_run(reference, cfg, cases),
                             (family, kind, averaging, proj, variant, record))
            cases += 1
    noise = NoiseSpec(dimension=d, **GATE_NOISE["stable"])
    for form in gradient_form_cases(alg, d):
        problem, reference = gate_problems("quadratic", d, noise, **form)
        variant = variants[cases % len(variants)]
        cfg = OptimizerConfig(alg, gate_schedule(alg, d), GATE_K, x0=1.0, averaging=cases % 2 == 0,
                              project=True, **variant)
        assert_same_bits(run(problem, cfg, cases), reference_run(reference, cfg, cases),
                         (form, variant))
        cases += 1


@pytest.mark.parametrize("alg", ALGORITHMS)
def test_divergent_d1_runs_match_reference_bit_for_bit(alg):
    # Pareto noise of tail index 1.05 at large constant steps: the traces run
    # into inf and NaN, which must come out as the array loop computes them
    noise = NoiseSpec("pareto", dimension=1, tail_index=1.05)
    non_finite = 0
    for eta, kind, averaging in product((3.0, 50.0), ("quadratic", "nonconvex"), (False, True)):
        problem, reference = gate_problems(kind, 1, noise)
        cfg = OptimizerConfig(alg, Schedule(eta, 1.0 if alg != "cclip" else np.ones(1)), GATE_K,
                              x0=1.0, averaging=averaging, project=alg == "proj_gclip", record=1,
                              acclip_alpha=1.5 if averaging else 1.0)
        with np.errstate(all="ignore"):
            trace = run(problem, cfg, 5)
            ref = reference_run(reference, cfg, 5)
        assert_same_bits(trace, ref, (eta, kind, averaging))
        non_finite += sum(int(np.sum(~np.isfinite(trace.metric(f)))) for f in TRACE_METRICS)
    if alg == "sgd":
        assert non_finite > 0  # the case the test is for


# The run loop sums what it accumulates at the end of each noise block of
# block_rows(d) steps: 4,096 at d = 1 and 2, 1,638 at d = 10 and 163 at
# d = 100.  K runs to one step short of a block end, onto it, one past it,
# and across three block ends.


def block_rows(d: int) -> int:
    return next(_noise_blocks(10**9, d)).stop


def test_noise_blocks_are_sub_blocks_of_at_most_4096_rows():
    assert [block_rows(d) for d in (1, 2, 4, 5, 10, 100, 20_000)] == \
        [4096, 4096, 4096, 3276, 1638, 163, 1]


def flush_ks(d: int) -> list[int]:
    rows = block_rows(d)
    return [rows - 1, rows, rows + 1, 3 * rows + 2]


@pytest.mark.parametrize("d", [1, 2, 10, 100])
@pytest.mark.parametrize("alg", ALGORITHMS)
def test_run_matches_reference_across_block_ends(alg, d):
    # every K at d = 10 and 100; at d = 1 and 2, where the four take the
    # reference loop several seconds, each algorithm takes one K in turn
    i = ALGORITHMS.index(alg)
    ks = flush_ks(d) if d >= 10 else [flush_ks(d)[i % 4]]
    for case, K in enumerate(ks, start=i):
        averaging = case % 2 == 1
        record = [1, "log", 7][case % 3]
        kind = ("quadratic", "nonconvex")[case // 2 % 2]
        noise = NoiseSpec(dimension=d, **GATE_NOISE[("stable", "pareto", "gaussian")[case % 3]])
        problem, reference = gate_problems(kind, d, noise)
        variant = {"acclip": dict(acclip_alpha=1.5), "adamlike": dict(beta1=0.0)}.get(alg, {})
        cfg = OptimizerConfig(alg, gate_schedule(alg, d), K, x0=1.0, averaging=averaging,
                              project=alg == "proj_gclip" or case % 4 == 0, record=record,
                              **(variant if case % 2 else {}))
        assert_same_bits(run(problem, cfg, case), reference_run(reference, cfg, case),
                         (K, kind, averaging, record))
    # the gradient forms and balls, projected, across a block end: all of
    # them at d = 100, every third in turn below, so that each algorithm
    # takes one form, and gclip and proj_gclip one ball with every form
    K = flush_ks(d)[2]
    noise = NoiseSpec(dimension=d, **GATE_NOISE["stable"])
    forms = list(gradient_form_cases(alg, d))
    for case, form in enumerate(forms if d == 100 else forms[i % 3::3]):
        problem, reference = gate_problems("quadratic", d, noise, **form)
        cfg = OptimizerConfig(alg, gate_schedule(alg, d), K, x0=1.0, averaging=case % 2 == 1,
                              project=True, record=[1, "log", 7][case % 3])
        assert_same_bits(run(problem, cfg, case), reference_run(reference, cfg, case), (K, form))


@pytest.mark.parametrize("alg", ALGORITHMS)
def test_divergent_d10_runs_match_reference_across_block_ends(alg):
    # no threshold and large steps on the quadratic: the first inf or NaN
    # lands inside the first block of 1,638 steps, and the block ends after it
    # must carry inf and NaN through the running sums as += does
    d = 10
    rows = block_rows(d)
    noise = NoiseSpec("pareto", dimension=d, tail_index=1.05)
    tau = np.full(d, math.inf) if alg == "cclip" else math.inf
    first_bad = []
    for eta, averaging in ((4.0, False), (500.0, True)):
        problem, reference = gate_problems("quadratic", d, noise)
        cfg = OptimizerConfig(alg, Schedule(eta, tau), 2 * rows + 5, x0=1.0, averaging=averaging,
                              project=alg == "proj_gclip", record=1)
        with np.errstate(all="ignore"):
            trace = run(problem, cfg, 5)
            ref = reference_run(reference, cfg, 5)
        assert_same_bits(trace, ref, (eta, averaging))
        bad = ~np.isfinite(trace.avg_grad_sq)
        if bad.any():
            first_bad.append(int(trace.ks[np.argmax(bad)]))
    if alg not in ("proj_gclip", "adamlike"):  # the projection and Adam's step stay finite
        assert first_bad and all(1 < k < rows for k in first_bad), first_bad
    # projected runs on noise near the top of the float range.  Without a
    # threshold the draws overflow to inf: inf steps and distances, then the
    # NaN that inf * 0 leaves in the projected point, take the exact branch.
    # With one, a finite gradient whose squared norm overflows clips to a
    # zero step of length 0 * inf = NaN, which must not end the screening.
    finite_tau = np.ones(d) if alg == "cclip" else 1.0
    for scale, threshold, x_star in ((1e306, tau, 0.0), (1e153, finite_tau, 0.2)):
        noise = NoiseSpec("pareto", dimension=d, tail_index=1.05, scale=scale)
        problem, reference = gate_problems("quadratic", d, noise, mu=1.0, x_star=x_star)
        cfg = OptimizerConfig(alg, Schedule(4.0, threshold), 2 * rows + 5, x0=1.0, project=True,
                              record=1)
        with np.errstate(all="ignore"):
            trace = run(problem, cfg, 5)
            ref = reference_run(reference, cfg, 5)
        assert_same_bits(trace, ref, (scale, threshold, x_star))
        if threshold is tau:
            assert np.isnan(trace.suboptimality[-1])


@pytest.mark.parametrize("d,G", [(1, 3.7), (10, 13.6)], ids=["d1", "d10"])
def test_screened_projection_takes_few_exact_distances(monkeypatch, d, G):
    # the bundled A1 instance's shape: x* = 0 inside a ball of twice its
    # distance around x0, where the bound reach + step rules out almost
    # every projection, on floats at d = 1 as on arrays at d = 10; G is the
    # calibrated one.  The loop takes one math.sqrt per step for the
    # gradient norm, one for the centre's norm, and one per exact distance.
    K = 20_000
    problem = make_quadratic(d, "stable", 1.55, domain=Ball(center=np.ones(d),
                                                             radius=2.0 * math.sqrt(d)))
    cfg = OptimizerConfig("proj_gclip", strongly_convex_schedule(1.0, G, 1.5), K, x0=1.0,
                          averaging=True)
    roots = []
    counting = types.SimpleNamespace(**vars(math))
    counting.sqrt = lambda v: roots.append(v) or math.sqrt(v)
    monkeypatch.setattr(optimizers, "math", counting)
    run(problem, cfg, 0)
    exact = len(roots) - K - 1
    blocks = -(-K // block_rows(d))
    assert blocks <= exact < K // 100, exact


def test_record_every_step_holds_no_more_than_the_trace():
    # the records fill preallocated columns block by block, so a run that
    # records all 20,000 steps peaks at the trace's own arrays plus about a
    # block of gradients and points
    d, K = 10, 20_000
    problem = make_quadratic(d, "stable", 1.55, domain=Ball(center=np.zeros(d), radius=5.0))
    cfg = OptimizerConfig("proj_gclip", strongly_convex_schedule(1.0, 3.0, 1.5), K, x0=1.5,
                          averaging=True, record=1)
    run(problem, replace(cfg, iterations=100), 0)  # numpy's one-time allocations
    tracemalloc.start()
    try:
        trace = run(problem, cfg, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    own = trace.ks.nbytes + sum(trace.metric(f).nbytes for f in TRACE_METRICS)
    assert len(trace.ks) == K
    assert peak <= own + 2 * 2**20, (peak, own)


def test_working_memory_does_not_grow_with_the_step_count():
    # the schedule is computed one noise block at a time, so past the trace's
    # own arrays a run's traced peak does not grow from 10,000 to 40,000 steps
    d = 10
    problem = make_quadratic(d, "stable", 1.55, domain=Ball(center=np.zeros(d), radius=5.0))
    cfg = OptimizerConfig("proj_gclip", strongly_convex_schedule(1.0, 3.0, 1.5), 100, x0=1.5,
                          averaging=True, record=1)
    run(problem, cfg, 0)  # numpy's one-time allocations
    extra = []
    for K in (10_000, 40_000):
        tracemalloc.start()
        try:
            trace = run(problem, replace(cfg, iterations=K), 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        extra.append(peak - trace.ks.nbytes - sum(trace.metric(f).nbytes for f in TRACE_METRICS))
    assert extra[1] <= extra[0] + 2**16, extra
