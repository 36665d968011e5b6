import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tailclip.clip import bias_variance_grid, cclip, gclip
from tailclip.errors import ConfigurationError
from tailclip.noise import NoiseSpec, sample_noise_batch
from test_optimizers import ACClipParams, ACClipState, acclip_step

vectors = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1, max_size=6
)


def scaled_norm(v):
    """Euclidean norm taken with peak scaling, as gclip does: squaring a
    value near 1e-160 directly would land in the subnormal range."""
    peak = float(np.max(np.abs(v)))
    return 0.0 if peak == 0.0 else peak * math.sqrt(float((v / peak) @ (v / peak)))


class TestGClip:
    def test_below_threshold_identity(self):
        g = np.array([3.0, 4.0])
        assert np.array_equal(gclip(g, 10.0), g)

    def test_hand_scaling(self):
        out = gclip(np.array([3.0, 4.0]), 2.5)
        assert np.allclose(out, [1.5, 2.0])

    def test_zero_gradient_convention(self):
        assert np.array_equal(gclip(np.zeros(3), 1.0), np.zeros(3))
        assert np.array_equal(gclip(np.zeros(3), 0.0), np.zeros(3))

    def test_negative_tau_rejected(self):
        with pytest.raises(ConfigurationError):
            gclip(np.ones(2), -0.1)

    # Subnormal thresholds are left out: below 2.2e-308 the spacing of
    # doubles exceeds the 1e-12 relative tolerance, whatever the clip does.
    @given(vectors, st.floats(min_value=0, max_value=1e6, allow_nan=False, allow_subnormal=False))
    @settings(max_examples=200, deadline=None)
    def test_norm_never_increases_and_direction_preserved(self, vals, tau):
        g = np.array(vals)
        out = gclip(g, tau)
        norm = scaled_norm(g)
        assert scaled_norm(out) <= min(norm, tau) * (1 + 1e-12) or norm == 0.0
        if norm > 0:
            # output is a nonnegative scalar multiple of g
            c = scaled_norm(out) / norm
            assert 0.0 <= c <= 1.0 + 1e-12
            assert np.allclose(out, c * g, rtol=1e-9, atol=1e-12)

    @given(vectors, st.floats(min_value=0, max_value=100), st.floats(min_value=0, max_value=100))
    @settings(max_examples=200, deadline=None)
    def test_monotone_in_tau(self, vals, t1, t2):
        g = np.array(vals)
        lo, hi = min(t1, t2), max(t1, t2)
        assert np.linalg.norm(gclip(g, lo)) <= np.linalg.norm(gclip(g, hi)) + 1e-12


class TestCClip:
    def test_hand_values(self):
        out = cclip(np.array([3.0, -4.0]), np.array([2.0, 2.0]))
        assert np.array_equal(out, [2.0, -2.0])

    def test_below_threshold_identity(self):
        g = np.array([0.5, -0.5])
        assert np.array_equal(cclip(g, np.ones(2)), g)

    def test_zero_threshold_annihilates(self):
        assert np.array_equal(cclip(np.array([-5.0]), np.array([0.0])), [0.0])

    def test_dimension_mismatch(self):
        with pytest.raises(ConfigurationError):
            cclip(np.ones(3), np.ones(2))
        with pytest.raises(ConfigurationError):
            cclip(np.ones(2), np.array([-1.0, 1.0]))

    @given(vectors)
    @settings(max_examples=200, deadline=None)
    def test_never_grows_never_flips(self, vals):
        g = np.array(vals)
        tau = np.abs(np.array(vals[::-1]))
        out = cclip(g, tau)
        assert np.all(np.abs(out) <= np.minimum(np.abs(g), tau) + 1e-12)
        assert np.all(out * g >= 0.0)

    @given(
        st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=1e6, allow_nan=False)),
        st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=1e6, allow_nan=False)),
        st.sampled_from([-1.0, 1.0]),
    )
    @settings(max_examples=300, deadline=None)
    def test_agrees_with_gclip_in_1d(self, mag, tau, sign):
        g = sign * mag
        a = gclip(np.array([g]), tau)
        b = cclip(np.array([g]), np.array([tau]))
        assert np.allclose(a, b, rtol=1e-12, atol=0.0)


class TestACClipStep:
    def test_hand_trace(self):
        # b1=0, b2=1, tau_alpha=(1), alpha=1, eps=0, g=(2), eta=1, x=(0)
        params = ACClipParams(beta1=0.0, beta2=1.0, alpha=1.0, epsilon=0.0)
        state = ACClipState(x=np.array([0.0]), params=params, tau_alpha=np.array([1.0]))
        new = acclip_step(state, np.array([2.0]), 1.0)
        assert np.array_equal(new.m, [2.0])
        assert np.array_equal(new.tau_alpha, [1.0])
        assert np.array_equal(new.x, [-1.0])
        assert new.k == 1

    def test_degenerate_is_pure_sgd(self):
        params = ACClipParams(beta1=0.0, beta2=0.0, alpha=1.0, epsilon=0.0)
        rng = np.random.default_rng(4)
        state = ACClipState(x=rng.standard_normal(5), params=params)
        x_sgd = state.x.copy()
        for _ in range(10):
            g = rng.standard_normal(5)
            state = acclip_step(state, g, 0.05)
            x_sgd = x_sgd - 0.05 * g
            assert np.array_equal(state.x, x_sgd)

    def test_zero_gradient_zero_momentum_is_noop(self):
        state = ACClipState(x=np.array([1.0, -2.0]))
        new = acclip_step(state, np.zeros(2), 0.1)
        assert np.array_equal(new.x, state.x)

    def test_clipped_magnitude_bounded(self):
        rng = np.random.default_rng(8)
        state = ACClipState(x=np.zeros(4))
        for _ in range(50):
            g = rng.standard_normal(4) * 10 ** rng.uniform(-2, 2)
            prev = state
            state = acclip_step(state, g, 0.01)
            step = (prev.x - state.x) / 0.01
            tau = state.tau_alpha ** (1.0 / state.params.alpha)
            assert np.all(np.abs(step) <= np.abs(state.m) + 1e-12)
            assert np.all(np.abs(step) <= tau + 1e-12)

    def test_validation(self):
        state = ACClipState(x=np.zeros(2))
        with pytest.raises(ConfigurationError):
            acclip_step(state, np.zeros(3), 0.1)
        with pytest.raises(ConfigurationError):
            acclip_step(state, np.zeros(2), 0.0)
        with pytest.raises(ConfigurationError):
            ACClipParams(beta1=-0.1)
        with pytest.raises(ConfigurationError):
            ACClipParams(alpha=2.5)


class TestBiasVarianceProbe:
    def test_zero_noise_large_tau(self):
        tg = np.array([1.0, 2.0])
        res = bias_variance_grid(
            NoiseSpec("zero", dimension=2), tg, [10.0], 10**4, np.random.default_rng(0), 1.5
        )[0]
        assert res.bias_norm == pytest.approx(0.0, abs=1e-12)
        assert res.second_moment == pytest.approx(5.0, rel=1e-12)

    def test_huge_tau_no_clipping_bias_vanishes(self):
        tg = np.array([0.5, -0.5, 1.0])
        res = bias_variance_grid(
            NoiseSpec("gaussian", dimension=3, scale=0.3), tg, [1e6], 10**5,
            np.random.default_rng(1), 2.0,
        )[0]
        assert res.bias_norm <= 4.0 * res.bias_se

    def test_heavy_tail_bounds_at_zero_gradient(self):
        # target moment exponent 1.5 realized by a 1.55-stable sampler
        alpha = 1.5
        tau = 10.0
        res = bias_variance_grid(
            NoiseSpec("stable", dimension=3, tail_index=1.55),
            np.zeros(3), [tau], 10**6, np.random.default_rng(2), alpha,
        )[0]
        sigma_a = res.sigma_moment
        assert res.second_moment <= sigma_a * tau**0.5 + 3 * res.second_moment_se
        assert res.bias_norm <= 2 * sigma_a * tau**-0.5 + 3 * res.bias_se

    def test_minimum_sample_count(self):
        with pytest.raises(ConfigurationError):
            bias_variance_grid(
                NoiseSpec("gaussian", dimension=1), np.zeros(1), [1.0], 100,
                np.random.default_rng(0), 2.0,
            )

    @pytest.mark.parametrize("tau", [0.0, -1.0, math.nan])
    def test_nonpositive_threshold_refused_before_drawing(self, tau):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ConfigurationError, match="thresholds must be positive"):
            bias_variance_grid(
                NoiseSpec("gaussian", dimension=1), np.zeros(1), [5.0, tau], 10**4, rng, 1.5
            )
        assert rng.bit_generator.state == state

    def test_grid_monotone_on_shared_draws(self):
        res = bias_variance_grid(
            NoiseSpec("stable", dimension=2, tail_index=1.55),
            np.array([1.0, 0.0]), [2.0, 5.0, 10.0, 20.0], 10**5,
            np.random.default_rng(4), 1.5,
        )
        seconds = [r.second_moment for r in res]
        biases = [r.bias_norm for r in res]
        # exact monotonicity of the second moment on shared draws
        assert all(a <= b + 1e-12 for a, b in zip(seconds, seconds[1:]))
        for lo, hi in zip(res, res[1:]):
            assert hi.bias_norm <= lo.bias_norm + 3 * (lo.bias_se + hi.bias_se)
        assert all(r.second_moment <= r.bound_second_moment + 3 * r.second_moment_se for r in res)
        assert all(r.bias_norm <= r.bound_bias + 3 * r.bias_se for r in res)
