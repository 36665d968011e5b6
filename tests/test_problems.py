import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from tailclip.errors import ConfigurationError
from tailclip.noise import NoiseSpec, row_blocks, sample_noise_batch
from tailclip.problems import (
    Ball,
    LowerBoundInstance,
    estimate_B,
    estimate_G,
    estimate_sigma,
    nonconvex_problem,
    prog,
    project,
    quadratic_problem,
)
from tailclip.suites import _LOWERBOUND_XS, _oracle_stats, lowerbound_suite


def zero_noise(d):
    return NoiseSpec("zero", dimension=d)


def stream_blocks(noise, rng, n):
    """The n draws in blocks of 65,536 rows, the groups the calibration sums
    its terms in."""
    draws = sample_noise_batch(noise, rng, n)
    return [draws[part] for part in row_blocks(n, coords=1 << 16)]


def reference_moment_root(noise, shift, alpha, n, rng):
    """estimate_sigma / estimate_G through whole-block temporaries."""
    total = 0.0
    for block in stream_blocks(noise, rng, n):
        block = block + shift
        total += float(np.sum(np.sum(block * block, axis=1) ** (alpha / 2.0)))
    return (total / n) ** (1.0 / alpha)


def reference_B(noise, eg, alpha, n, rng):
    total = np.zeros(noise.dimension)
    for block in stream_blocks(noise, rng, n):
        total += np.sum(np.abs(block + eg) ** alpha, axis=0)
    return (total / n) ** (1.0 / alpha)


@pytest.mark.parametrize("d,n", [(1, 140_000), (10, 70_000), (100, 20_000)])
@pytest.mark.parametrize("family,tail", [("stable", 1.55), ("pareto", 1.6), ("stable", 2.0),
                                         ("gaussian", 2.0)])
@pytest.mark.parametrize("alpha", [1.5, 2.0])
def test_calibration_bits_equal_the_whole_block_formulas(family, tail, d, n, alpha):
    noise = NoiseSpec(family, dimension=d, scale=0.8, tail_index=tail)
    p = quadratic_problem(2.0, d, np.linspace(-1.0, 1.0, d), noise)
    x0 = np.full(d, 0.3)
    eg = p.exact_gradient(x0)
    assert estimate_sigma(noise, alpha, n, np.random.default_rng(1)).hex() == \
        reference_moment_root(noise, 0.0, alpha, n, np.random.default_rng(1)).hex()
    assert estimate_G(p, x0, alpha, n, np.random.default_rng(2)).hex() == \
        reference_moment_root(noise, eg, alpha, n, np.random.default_rng(2)).hex()
    got = estimate_B(p, x0, alpha, n, np.random.default_rng(3))
    assert np.array_equal(got.view(np.uint64),
                          reference_B(noise, eg, alpha, n, np.random.default_rng(3)).view(np.uint64))

@pytest.mark.parametrize("estimate", [estimate_G, estimate_B])
def test_calibration_peak_stays_near_a_sub_block(estimate):
    # at d = 100 the draws come 163 rows (128 KB) at a time; one 65,536-row
    # block of them would take 52 MB (on one worker, so that every group
    # runs in the traced process)
    noise = NoiseSpec("stable", dimension=100, tail_index=1.55)
    p = quadratic_problem(1.0, 100, 1.0, noise)
    estimate(p, np.zeros(100), 1.5, 1000, np.random.default_rng(0))  # one-time allocations
    tracemalloc.start()
    try:
        estimate(p, np.zeros(100), 1.5, 100_000, np.random.default_rng(1), workers=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 2**20, peak


@pytest.mark.parametrize("d", [1, 10, 100])
@pytest.mark.parametrize("kind", ["quadratic", "nonconvex"])
def test_batched_value_equals_per_point_value(kind, d):
    # the run loop evaluates all its record points in one call
    rng = np.random.default_rng(d)
    pts = rng.standard_normal((300, d)) * 10.0 ** rng.integers(-4, 5, (300, 1))
    if kind == "quadratic":
        x_star = rng.standard_normal(d)
        p = quadratic_problem(0.7, d, x_star, zero_noise(d))
        ref = [0.5 * 0.7 * float((x - x_star) @ (x - x_star)) for x in pts]
    else:
        p = nonconvex_problem(d, zero_noise(d))
        ref = [float(np.sum(x * x / (1.0 + x * x))) for x in pts]
    batched = p.value(pts)
    assert batched.shape == (300,)
    for got in (batched, np.array([p.value(x) for x in pts])):
        assert np.array_equal(got.view(np.int64), np.array(ref).view(np.int64))


class TestQuadratic:
    def test_hand_values(self):
        p = quadratic_problem(1.0, 2, 0.0, zero_noise(2))
        assert p.value(np.array([3.0, 4.0])) == pytest.approx(12.5)
        assert np.allclose(p.exact_gradient(np.array([3.0, 4.0])), [3.0, 4.0])

    def test_optimum(self):
        x_star = np.array([1.0, -2.0, 0.5])
        p = quadratic_problem(2.0, 3, x_star, zero_noise(3))
        assert p.value(x_star) == 0.0
        assert np.all(p.exact_gradient(x_star) == 0.0)
        assert p.L == p.mu == 2.0

    def test_zero_noise_oracle_is_exact(self):
        p = quadratic_problem(1.0, 2, 0.0, zero_noise(2))
        x = np.array([0.3, -0.7])
        g = p.exact_gradient(x) + sample_noise_batch(p.noise, np.random.default_rng(0), 1)[0]
        assert np.array_equal(g, p.exact_gradient(x))

    @pytest.mark.parametrize("d", [1, 3])
    @pytest.mark.parametrize("mu,x_star", [(1.0, 0.0), (0.7, 0.2), (1.0, -0.0)])
    def test_gradient_forms_keep_the_bits_of_mu_times_x_minus_x_star(self, d, mu, x_star):
        # at mu = 1, x* = +0.0 the gradient is x itself; x* = -0.0 keeps
        # mu (x - x*), since -0.0 - -0.0 is +0.0
        p = quadratic_problem(mu, d, x_star, zero_noise(d))
        for v in (-0.0, 0.0, math.inf, -math.inf, math.nan, 1e308, 5e-324, -0.3):
            x = np.full(d, v)
            want = mu * (x - np.full(d, x_star))
            got = p.exact_gradient(x) if d > 1 else np.array([p.exact_gradient(v)])
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), v

    def test_dimension_mismatch(self):
        with pytest.raises(ConfigurationError):
            quadratic_problem(1.0, 3, 0.0, zero_noise(2))
        with pytest.raises(ConfigurationError):
            quadratic_problem(-1.0, 2, 0.0, zero_noise(2))

    def test_unbiased_gaussian_oracle(self):
        noise = NoiseSpec("gaussian", dimension=3, scale=2.0)
        p = quadratic_problem(1.0, 3, 0.0, noise)
        x = np.array([1.0, -1.0, 2.0])
        draws = sample_noise_batch(noise, np.random.default_rng(5), 10**6) + p.exact_gradient(x)
        se = np.std(draws, axis=0, ddof=1) / math.sqrt(draws.shape[0])
        dev = np.abs(draws.mean(axis=0) - p.exact_gradient(x))
        assert np.all(dev <= 4.0 * se)

    def test_unbiased_heavy_tail_batch_medians(self):
        # Infinite-variance noise: use the median of 20 batch means rather
        # than a single CLT interval.
        noise = NoiseSpec("stable", dimension=2, tail_index=1.5)
        p = quadratic_problem(1.0, 2, 0.0, noise)
        x = np.array([0.5, -0.25])
        rng = np.random.default_rng(7)
        batch_means = np.stack(
            [
                (sample_noise_batch(noise, rng, 10**5) + p.exact_gradient(x)).mean(axis=0)
                for _ in range(20)
            ]
        )
        med = np.median(batch_means, axis=0)
        spread = np.std(batch_means, axis=0, ddof=1) / math.sqrt(20)
        assert np.all(np.abs(med - p.exact_gradient(x)) <= 4.0 * spread)

    def test_declared_alpha_moment_holds(self):
        alpha = 1.5
        noise = NoiseSpec("stable", dimension=3, tail_index=1.55)
        sigma = estimate_sigma(noise, alpha, 2 * 10**5, np.random.default_rng(11))
        fresh = sample_noise_batch(noise, np.random.default_rng(12), 2 * 10**5)
        moments = np.sqrt(np.sum(fresh * fresh, axis=1)) ** alpha
        se = np.std(moments, ddof=1) / math.sqrt(moments.size)
        assert np.mean(moments) <= sigma**alpha + 3.0 * se


# The run loop takes the gradients of a block's iterates in one call on their
# stack, and at d = 1 the per-step gradient on floats.
STACK_ENTRIES = (-0.0, 0.0, math.inf, -math.inf, math.nan, 1e308, 5e-324, -0.3, 0.2, 1.7)


@pytest.mark.parametrize("d", [1, 3])
@pytest.mark.parametrize("kind,mu,x_star", [("quadratic", 1.0, 0.0), ("quadratic", 0.7, 0.2),
                                            ("quadratic", 0.7, -0.0), ("nonconvex", None, None)])
def test_stacked_gradient_rows_have_the_bits_of_single_calls(kind, mu, x_star, d):
    if kind == "quadratic":
        p = quadratic_problem(mu, d, x_star, zero_noise(d))
    else:
        p = nonconvex_problem(d, zero_noise(d))
    rng = np.random.default_rng(d)
    X = np.concatenate([rng.choice(STACK_ENTRIES, size=(60, d)), rng.standard_normal((20, d))])
    with np.errstate(over="ignore", invalid="ignore"):
        stacked = p.exact_gradient(X)
        rows = np.array([p.exact_gradient(x) for x in X])
        floats = np.array([[p.exact_gradient(float(x[0]))] for x in X]) if d == 1 else rows
    assert stacked.shape == X.shape
    assert np.array_equal(stacked.view(np.uint64), rows.view(np.uint64))
    assert np.array_equal(floats.view(np.uint64), rows.view(np.uint64))


class TestNonconvex:
    def test_global_minimum(self):
        p = nonconvex_problem(4, zero_noise(4))
        assert p.value(np.zeros(4)) == 0.0
        assert np.all(p.exact_gradient(np.zeros(4)) == 0.0)
        assert p.L == 2.0 and p.mu is None

    def test_hand_value(self):
        p = nonconvex_problem(1, zero_noise(1))
        assert p.value(np.array([1.0])) == pytest.approx(0.5)
        assert p.exact_gradient(np.array([1.0]))[0] == pytest.approx(0.5)

    def test_gradient_matches_finite_differences(self):
        p = nonconvex_problem(5, zero_noise(5))
        rng = np.random.default_rng(3)
        h = 1e-5
        for _ in range(25):
            x = rng.uniform(-3, 3, size=5)
            g = p.exact_gradient(x)
            fd = np.empty(5)
            for j in range(5):
                e = np.zeros(5)
                e[j] = h
                fd[j] = (p.value(x + e) - p.value(x - e)) / (2 * h)
            assert np.linalg.norm(fd - g) <= 1e-4 * max(1.0, np.linalg.norm(g))

    def test_smoothness_constant(self):
        # 1-d second derivative of t^2/(1+t^2) is bounded by 2 in magnitude.
        p = nonconvex_problem(1, zero_noise(1))
        t = np.linspace(-6, 6, 2001)
        h = 1e-4
        second = np.array(
            [
                (p.value(np.array([s + h])) - 2 * p.value(np.array([s])) + p.value(np.array([s - h])))
                / h**2
                for s in t
            ]
        )
        assert np.max(np.abs(second)) <= 2.0 + 1e-4


class TestLowerBound:
    def test_derived_quantities_nu0(self):
        inst = LowerBoundInstance(epsilon=0.125, alpha=2.0, nu=0)
        assert inst.gamma == pytest.approx(0.5)
        assert inst.p == pytest.approx(0.25)
        assert inst.b == pytest.approx(0.25)

    def test_derived_quantities_nu1(self):
        inst = LowerBoundInstance(epsilon=0.125, alpha=2.0, nu=1)
        assert inst.p == pytest.approx(0.125)
        assert inst.b == pytest.approx(0.125)
        # E[g(x)] = x - p/(2 gamma) = x - b
        assert inst.p / (2 * inst.gamma) == pytest.approx(inst.b)

    @pytest.mark.parametrize("eps", [0.125, 0.0625])
    @pytest.mark.parametrize("alpha", [1.5, 2.0])
    @pytest.mark.parametrize("nu", [0, 1])
    def test_mean_identity(self, eps, alpha, nu):
        # Exact identity: p/(2 gamma) equals b for every instance.
        inst = LowerBoundInstance(epsilon=eps, alpha=alpha, nu=nu)
        assert inst.p / (2 * inst.gamma) == pytest.approx(inst.b, rel=1e-12)
        assert 0.0 < inst.gamma <= 0.5
        assert 0.0 < inst.p < 1.0

    def test_monte_carlo_mean_and_moment(self):
        inst = LowerBoundInstance(epsilon=0.125, alpha=1.5, nu=0)
        n = 10**6
        hits = np.random.default_rng(17).binomial(n, inst.p, size=_LOWERBOUND_XS.size)
        dev, se, moment, moment_se = _oracle_stats(inst, hits, n)
        assert np.all(dev <= 4 * se)
        assert np.all(moment <= 1.0 + 3 * moment_se)

    @pytest.mark.parametrize("n", [2, 3, 1000])
    def test_hit_counts_replay_the_draws(self, n):
        # Replays the suite's counts as explicit draws, the spike first, and
        # takes every statistic of the draws with numpy; at n = 2 and 3 some
        # verdicts fail, so the pass flags are compared too.
        res = lowerbound_suite([0.125, 0.0625], [1.5, 2.0], n, np.random.default_rng(3))
        rng = np.random.default_rng(3)
        observed = []
        for eps in (0.125, 0.0625):
            for alpha in (1.5, 2.0):
                for nu in (0, 1):
                    inst = LowerBoundInstance(epsilon=eps, alpha=alpha, nu=nu)
                    spike = 1.0 / (2.0 * inst.gamma)
                    hits = np.array([rng.binomial(n, inst.p) for _ in _LOWERBOUND_XS])
                    stats = []
                    for x, h in zip(_LOWERBOUND_XS, hits):
                        draws = np.where(np.arange(n) < h, x - spike, x)
                        mom = np.abs(draws) ** alpha
                        stats.append((abs(np.mean(draws) - (x - inst.b)),
                                      np.std(draws, ddof=1) / math.sqrt(n),
                                      np.mean(mom), np.std(mom, ddof=1) / math.sqrt(n)))
                    dev, se, moment, moment_se = np.array(stats).T
                    observed += [
                        (f"max(|dev|-4se) = {np.max(dev - 4.0 * se):.3g}",
                         bool(np.all(dev <= 4.0 * se))),
                        (f"max(E|g|^a - 3se) = {np.max(moment - 3.0 * moment_se):.4g}",
                         bool(np.all(moment <= 1.0 + 3.0 * moment_se))),
                    ]
                    top = np.maximum(np.abs(_LOWERBOUND_XS - spike), _LOWERBOUND_XS) ** alpha
                    closed = _oracle_stats(inst, hits, n)
                    for got, want, scale in zip(closed, (dev, se, moment, moment_se),
                                                (spike, spike, top, top)):
                        assert np.all(np.abs(got - want) <= 1e-12 * scale)
        assert [(v.observed, v.passed) for v in res.verdicts] == observed

    @pytest.mark.parametrize("epsilons,n", [([0.125, 0.3], 10**6), ([0.125], 10**19)])
    def test_refused_before_any_draw(self, epsilons, n):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ConfigurationError):
            lowerbound_suite(epsilons, [1.5, 2.0], n, rng)
        assert rng.bit_generator.state == state

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            LowerBoundInstance(epsilon=0.3, alpha=1.5, nu=0)
        with pytest.raises(ConfigurationError):
            LowerBoundInstance(epsilon=0.125, alpha=1.0, nu=0)
        with pytest.raises(ConfigurationError):
            LowerBoundInstance(epsilon=0.125, alpha=1.5, nu=2)


class TestProjection:
    def test_ball_radial_rescale(self):
        out = project(Ball(center=np.zeros(2), radius=1.0), np.array([3.0, 4.0]))
        assert np.allclose(out, [0.6, 0.8])

    def test_inside_unchanged(self):
        dom = Ball(center=np.zeros(2), radius=2.0)
        y = np.array([0.3, -0.4])
        assert np.array_equal(project(dom, y), y)

    @pytest.mark.parametrize(
        "dom",
        [
            Ball(center=np.array([0.5, -1.0, 2.0]), radius=1.7),
            Ball(center=np.array([-0.3]), radius=0.6),
            Ball(center=np.linspace(-2.0, 2.0, 10), radius=25.0),
        ],
    )
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_idempotent_and_nonexpansive(self, dom, data):
        d = dom.center.size
        points = st.lists(st.floats(-1e3, 1e3), min_size=d, max_size=d).map(np.array)
        y, z = data.draw(points), data.draw(points)
        py, pz = project(dom, y), project(dom, z)
        assert np.allclose(project(dom, py), py, rtol=1e-12, atol=1e-12)
        assert np.linalg.norm(py - pz) <= np.linalg.norm(y - z) + 1e-12

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            Ball(center=np.zeros(2), radius=0.0)
        with pytest.raises(ConfigurationError):
            Ball(center=np.zeros(2), radius=-1.0)


def test_prog_examples():
    assert prog(np.array([0.0, 1.0, 0.0, 2.0]), 0.0) == 4
    assert prog(np.array([0.4, 0.6, 0.1]), 0.5) == 2
    assert prog(np.zeros(5), 0.0) == 0
    assert prog(np.zeros(5), 1.0) == 0
    # strict comparison at the boundary
    assert prog(np.array([0.5]), 0.5) == 0


@st.composite
def rows_and_beta(draw):
    """An (m, d) array whose entries often sit at 0, -0 or exactly +-beta."""
    beta = draw(st.sampled_from([0.0, 0.5, 1.0]))
    special = st.sampled_from([0.0, -0.0, beta, -beta])
    entries = st.one_of(special, st.floats(-3.0, 3.0))
    shape = (draw(st.integers(1, 8)), draw(st.integers(1, 6)))
    return draw(hnp.arrays(float, shape, elements=entries)), beta


@given(rows_and_beta())
@settings(max_examples=300, deadline=None)
def test_prog_rows_match_single_points(case):
    rows, beta = case
    batched = prog(rows, beta)
    assert batched.shape == (rows.shape[0],)
    for i, row in enumerate(rows):
        single = prog(row, beta)
        assert isinstance(single, int)
        assert batched[i] == single
        assert single == max([j + 1 for j, v in enumerate(row) if abs(v) > beta], default=0)


def test_prog_rows_all_zero_and_d1():
    assert prog(np.zeros((3, 4)), 0.0).tolist() == [0, 0, 0]
    assert prog(np.array([[0.5], [0.6], [-0.7], [0.0]]), 0.5).tolist() == [0, 1, 1, 0]


def direction_alignment_bound_holds(v: np.ndarray, w: np.ndarray) -> bool:
    """<v/||v||, w> >= ||w||/3 - (8/3)||v - w|| for v != 0."""
    nv = float(np.linalg.norm(v))
    lhs = float(v @ w) / nv
    rhs = float(np.linalg.norm(w)) / 3.0 - (8.0 / 3.0) * float(np.linalg.norm(v - w))
    return lhs >= rhs - 1e-12


def test_direction_alignment_inequality_fuzz():
    rng = np.random.default_rng(31)
    for _ in range(10**4):
        d = int(rng.integers(1, 6))
        v = rng.standard_normal(d) * 10 ** rng.uniform(-3, 3)
        w = rng.standard_normal(d) * 10 ** rng.uniform(-3, 3)
        if np.linalg.norm(v) == 0:
            continue
        assert direction_alignment_bound_holds(v, w)
