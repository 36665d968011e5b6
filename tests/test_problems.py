import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tailclip.errors import ConfigurationError, DomainError
from tailclip.noise import NoiseSpec, sample_noise, sample_noise_batch
from tailclip.problems import (
    Ball,
    LowerBoundInstance,
    estimate_sigma,
    lowerbound_oracle,
    nonconvex_problem,
    prog,
    project,
    quadratic_problem,
)


def zero_noise(d):
    return NoiseSpec("zero", dimension=d)


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
        assert p.constants.L == p.constants.mu == 2.0

    def test_zero_noise_oracle_is_exact(self):
        p = quadratic_problem(1.0, 2, 0.0, zero_noise(2))
        x = np.array([0.3, -0.7])
        g = p.exact_gradient(x) + sample_noise(p.noise, np.random.default_rng(0))
        assert np.array_equal(g, p.exact_gradient(x))

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


class TestNonconvex:
    def test_global_minimum(self):
        p = nonconvex_problem(4, zero_noise(4))
        assert p.value(np.zeros(4)) == 0.0
        assert np.all(p.exact_gradient(np.zeros(4)) == 0.0)

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
        draws = lowerbound_oracle(inst, 0.3, np.random.default_rng(17), size=10**6)
        se = np.std(draws, ddof=1) / 1000.0
        assert abs(float(np.mean(draws)) - inst.exact_gradient(0.3)) <= 4 * se
        mom = np.abs(draws) ** inst.alpha
        assert float(np.mean(mom)) <= 1.0 + 3 * float(np.std(mom, ddof=1)) / 1000.0

    def test_domain_error(self):
        inst = LowerBoundInstance(epsilon=0.125, alpha=1.5, nu=0)
        with pytest.raises(DomainError):
            lowerbound_oracle(inst, 0.6, np.random.default_rng(0))

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
