import math
import re
import tracemalloc
from dataclasses import astuple, dataclass, field, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tailclip import noise
from tailclip.clip import ProbeResult, acclip_factors, bias_variance_grid
from tailclip.errors import ConfigurationError
from tailclip.noise import NoiseSpec, sample_noise_batch

GROUP = noise._STREAM_CHUNK  # rows per stream group of a probe

# ---------------------------------------------------------------------------
# Reference clipping operators and the adaptive clipping state machine, one
# gradient at a time; the run loop in tailclip.optimizers applies each inline,
# and tests/test_optimizers.py checks it against them.


def gclip(g: np.ndarray, tau: float) -> np.ndarray:
    """min{tau/||g||, 1} * g, with g returned unchanged when ||g|| = 0."""
    if tau < 0:
        raise ConfigurationError("tau must be nonnegative")
    g = np.asarray(g, dtype=float)
    peak = float(np.max(np.abs(g))) if g.size else 0.0
    if peak == 0.0:
        return g.copy()
    # scale by the peak so the squared sum cannot under/overflow
    scaled = g / peak
    unit_norm = math.sqrt(float(scaled @ scaled))
    if peak * unit_norm <= tau:
        return g.copy()
    # rescale the peak-scaled vector: tau / ||g|| itself can underflow
    return scaled * (tau / unit_norm)


def cclip(g: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """Elementwise min{tau_i/|g_i|, 1} * g_i (sign preserved)."""
    g = np.asarray(g, dtype=float)
    tau = np.asarray(tau, dtype=float)
    if tau.shape != g.shape:
        raise ConfigurationError(f"threshold shape {tau.shape} does not match gradient {g.shape}")
    if np.any(tau < 0):
        raise ConfigurationError("thresholds must be nonnegative")
    return np.clip(g, -tau, tau)


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
        sigma_a = res.g_moment  # at a zero gradient, the noise moment
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

    @pytest.mark.parametrize("alpha", [0.0, -1.0, 1.0, 2.5, math.nan])
    def test_moment_exponent_outside_the_lemma_refused_before_drawing(self, alpha):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ConfigurationError, match=r"alpha must lie in \(1, 2\]"):
            bias_variance_grid(
                NoiseSpec("gaussian", dimension=1), np.zeros(1), [5.0], 10**4, rng, alpha
            )
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("family,tail,alpha", [("pareto", 1.1, 1.9), ("pareto", 1.5, 1.5),
                                                   ("stable", 1.2, 1.5), ("stable", 1.5, 1.5)])
    def test_moment_exponent_at_or_above_the_tail_index_refused_before_drawing(self, family,
                                                                                tail, alpha):
        # E||g||^alpha is infinite there, so the lemma's G does not exist
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ConfigurationError, match=r"E\|\|g\|\|\^alpha is infinite"):
            bias_variance_grid(NoiseSpec(family, dimension=2, tail_index=tail), np.zeros(2),
                               [5.0], 10**4, rng, alpha)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("family", ["gaussian", "stable", "zero"])
    def test_every_moment_of_gaussian_noise_is_finite(self, family):
        # a stable index of 2 is the Gaussian
        res = bias_variance_grid(NoiseSpec(family, dimension=2, tail_index=2.0), np.ones(2),
                                 [5.0], 10**4, np.random.default_rng(0), 2.0)
        assert math.isfinite(res[0].g_moment)

    @pytest.mark.parametrize("scale,grad,taus,name", [
        (1e200, 1.0, [5.0], "E||g||^alpha = inf"),
        (1.0, 1e200, [5.0], "E||g||^alpha = inf"),
        (1e150, 1.0, [1e150], "second_moment_se = inf"),  # a finite E||g||^alpha
    ])
    def test_figure_that_overflows_is_refused(self, scale, grad, taus, name):
        spec = NoiseSpec("pareto", dimension=3, scale=scale, tail_index=1.6)
        with pytest.raises(ConfigurationError, match=re.escape(name)):
            bias_variance_grid(spec, np.array([grad, 0.0, 0.0]), taus, 2 * GROUP + 7,
                               np.random.default_rng(0), 1.5)

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


def reference_bias_variance_grid(noise, true_grad, taus, n, rng, alpha):
    """bias_variance_grid as whole-array numpy expressions: one batch of
    draws and a fresh clipped array per threshold."""
    true_grad = np.asarray(true_grad, dtype=float)
    draws = sample_noise_batch(noise, rng, n) + true_grad
    norms = np.sqrt(np.sum(draws * draws, axis=1))
    g_mom = float(np.mean(norms**alpha))
    out = []
    for tau in [float(t) for t in taus]:
        factors = np.ones(n)
        np.divide(tau, norms, out=factors, where=norms > tau)
        clipped = draws * factors[:, None]
        sq = np.sum(clipped * clipped, axis=1)
        out.append(ProbeResult(
            tau=tau,
            second_moment=float(np.mean(sq)),
            second_moment_se=float(np.std(sq, ddof=1) / math.sqrt(n)),
            bias_norm=float(np.linalg.norm(clipped.mean(axis=0) - true_grad)),
            bias_se=float(math.sqrt(np.sum(np.var(clipped, axis=0, ddof=1)) / n)),
            g_moment=g_mom,
            bound_second_moment=g_mom * tau ** (2.0 - alpha),
            bound_bias=g_mom * tau ** (1.0 - alpha),
        ))
    return out



def chan_fold(parts):
    """The mean and M2 of (count, mean, M2) parts, folded in order from the
    first part by the pairwise update of Chan, Golub and LeVeque."""
    count, mean, m2 = parts[0]
    for m, mean_g, m2_g in parts[1:]:
        before, count = count, count + m
        delta = mean_g - mean
        mean = mean + delta * m / count
        m2 = m2 + (m2_g + delta * delta * before * m / count)
    return mean, m2


def reference_group_fold(noise, true_grad, taus, n, rng, alpha):
    """bias_variance_grid as its definition: whole-array numpy figures of
    each stream group, folded in group order."""
    true_grad = np.asarray(true_grad, dtype=float)
    draws = sample_noise_batch(noise, rng, n) + true_grad
    norms = np.sqrt(np.sum(draws * draws, axis=1))
    groups = [slice(start, min(start + GROUP, n)) for start in range(0, n, GROUP)]
    total = 0.0
    for g in groups:
        total += float(np.sum(norms[g] ** alpha))
    g_mom = total / n
    out = []
    for tau in [float(t) for t in taus]:
        factors = np.ones(n)
        np.divide(tau, norms, out=factors, where=norms > tau)
        clipped = draws * factors[:, None]
        sq = np.sum(clipped * clipped, axis=1)
        columns, squares = [], []
        for g in groups:
            c, s = clipped[g], sq[g]
            columns.append((len(c), c.mean(axis=0), np.sum(np.square(c - c.mean(axis=0)), axis=0)))
            squares.append((len(s), np.mean(s), np.sum(np.square(s - np.mean(s)))))
        mean, m2 = chan_fold(columns)
        second, second_m2 = chan_fold(squares)
        out.append(ProbeResult(
            tau=tau,
            second_moment=float(second),
            second_moment_se=math.sqrt(second_m2 / (n - 1)) / math.sqrt(n),
            bias_norm=float(np.linalg.norm(mean - true_grad)),
            bias_se=math.sqrt(np.sum(m2 / (n - 1)) / n),
            g_moment=g_mom,
            bound_second_moment=g_mom * tau ** (2.0 - alpha),
            bound_bias=g_mom * tau ** (1.0 - alpha),
        ))
    return out


FAMILIES = pytest.mark.parametrize("family,tail", [("zero", 2.0), ("gaussian", 2.0),
                                                   ("pareto", 1.6), ("stable", 1.55)])


def probe_case(family, tail, d):
    grad = np.zeros(d)
    grad[0] = 1.0
    return NoiseSpec(family, dimension=d, tail_index=tail), grad


class TestProbeMatchesReference:
    # 1e-9 lies below every draw's norm, so it clips every row.
    TAUS = [1e-9, 0.5, 2.0, 10.0, 50.0]

    @pytest.mark.parametrize("n", [10**4, GROUP])
    @pytest.mark.parametrize("d", [1, 2, 3, 10])
    @FAMILIES
    def test_bit_identical(self, family, tail, d, n):
        spec, grad = probe_case(family, tail, d)
        seed = n + d
        got = bias_variance_grid(spec, grad, self.TAUS, n, np.random.default_rng(seed), 1.5)
        want = reference_bias_variance_grid(spec, grad, self.TAUS, n,
                                            np.random.default_rng(seed), 1.5)
        assert [astuple(r) for r in got] == [astuple(r) for r in want]

    @pytest.mark.parametrize("n", [70001, 123457])
    @pytest.mark.parametrize("d", [1, 2, 3, 10])
    @FAMILIES
    def test_bit_identical_to_the_group_fold(self, family, tail, d, n):
        spec, grad = probe_case(family, tail, d)
        seed = n + d
        got = bias_variance_grid(spec, grad, self.TAUS, n, np.random.default_rng(seed), 1.5)
        want = reference_group_fold(spec, grad, self.TAUS, n, np.random.default_rng(seed), 1.5)
        assert [astuple(r) for r in got] == [astuple(r) for r in want]

    @pytest.mark.parametrize("n", [70001, 123457])
    @pytest.mark.parametrize("d", [1, 2, 3, 10])
    @FAMILIES
    def test_close_to_whole_array_above_one_group(self, family, tail, d, n):
        # The fold rounds differently from numpy's whole-array sums: measured
        # up to 7e-13 relative on bias_norm, a difference of nearly equal
        # vectors, and 1e-14 elsewhere.  Where every row is clipped to a
        # constant, the standard errors are rounding noise of the clipped
        # values (1e-36 against 0 here), so that threshold gets a floor.
        spec, grad = probe_case(family, tail, d)
        seed = n + d
        got = bias_variance_grid(spec, grad, self.TAUS, n, np.random.default_rng(seed), 1.5)
        want = reference_bias_variance_grid(spec, grad, self.TAUS, n,
                                            np.random.default_rng(seed), 1.5)
        for g, w in zip(got, want):
            floor = 1e-12 * g.tau if g.tau == self.TAUS[0] else 0.0
            for name, value in vars(g).items():
                assert math.isclose(value, getattr(w, name), rel_tol=1e-11, abs_tol=floor), \
                    (g.tau, name, value, getattr(w, name))

    @pytest.mark.parametrize("d", [1, 2, 10])
    @FAMILIES
    def test_bit_identical_on_two_workers(self, family, tail, d, monkeypatch):
        # the pass fans out, whatever its size: three stream groups, three jobs
        monkeypatch.setattr(noise, "FAN_OUT_FLOOR", 0)
        spec, grad = probe_case(family, tail, d)
        one, two = np.random.default_rng(d), np.random.default_rng(d)
        serial = bias_variance_grid(spec, grad, self.TAUS, 2 * GROUP + 7, one, 1.5,
                                    workers=1)
        fanned = bias_variance_grid(spec, grad, self.TAUS, 2 * GROUP + 7, two, 1.5, workers=2)
        assert [astuple(r) for r in fanned] == [astuple(r) for r in serial]
        assert two.bit_generator.state == one.bit_generator.state

    def test_every_row_clipped_below_all_norms(self):
        spec = NoiseSpec("gaussian", dimension=3)
        res = bias_variance_grid(spec, np.array([1.0, 0.0, 0.0]), [1e-9], 10**4,
                                 np.random.default_rng(0), 1.5)[0]
        assert res.second_moment == pytest.approx(1e-18, rel=1e-9)


def test_probe_peak_memory_below_one_and_a_half_draw_arrays():
    # one stream group's draws and a few (group,) vectors, whatever n: the
    # draws are summarised a group at a time and never held whole (on one
    # worker, so that every group runs in the traced process)
    n, d = 5 * 10**5, 10
    spec = NoiseSpec("stable", dimension=d, tail_index=1.55)
    grad = np.zeros(d)
    grad[0] = 1.0
    tracemalloc.start()
    try:
        bias_variance_grid(spec, grad, [2.0, 5.0, 10.0, 20.0, 50.0], n,
                           np.random.default_rng(0), 1.5, workers=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * GROUP * d * 8, f"traced peak {peak / (GROUP * d * 8):.2f}x a group's draws"
