import math

import numpy as np
import pytest

from tailclip.diagnostics import (
    FuzzResult,
    bound_envelope_check,
    fit_loglog_slope,
    sandwich_fuzz,
    sandwich_steps,
    strongly_convex_bound,
)
from tailclip.errors import ConfigurationError
from tailclip.optimizers import record_points
from tailclip.traces import Trace


def synthetic_trace(ks, values):
    ks = np.asarray(ks, dtype=np.int64)
    values = np.asarray(values, dtype=float)
    zeros = np.zeros_like(values)
    return Trace(
        ks=ks, suboptimality=values, grad_norm=values.copy(), min_grad_stat=values.copy(),
        clip_frac=zeros, eff_step=zeros, avg_grad_sq=values.copy(), avg_min_stat=values.copy(),
        seed=-1, algorithm="synthetic",
    )


class TestSlopeFit:
    def test_exact_power_law(self):
        ks = np.unique(np.logspace(0, 4, 40).astype(int))
        tr = synthetic_trace(ks, 7.0 * ks ** (-2.0 / 3.0))
        fit = fit_loglog_slope(tr, "suboptimality")
        assert fit.slope == pytest.approx(-2.0 / 3.0, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        assert math.exp(fit.intercept) == pytest.approx(7.0, rel=1e-9)

    def test_constant_metric(self):
        ks = np.array([1, 10, 100, 1000])
        fit = fit_loglog_slope(synthetic_trace(ks, np.full(4, 3.0)), "suboptimality")
        assert fit.slope == pytest.approx(0.0, abs=1e-14)

    def test_perturbed_power_law(self):
        ks = np.unique(np.logspace(0, 5, 60).astype(int))
        vals = ks**-1.0 * (1.0 + 0.01 * np.sin(np.log(ks)))
        fit = fit_loglog_slope(synthetic_trace(ks, vals), "suboptimality")
        assert abs(fit.slope - (-1.0)) <= 0.02

    def test_record_density_does_not_move_the_slope(self):
        # 1/k up to k = 1000, then k^-1/2: an equal-weight fit over every k
        # reads -0.53 and over the log grid -0.81
        K = 10**5
        every = np.arange(1, K + 1)
        log = record_points(K, "log")

        def curve(ks):
            return np.where(ks < 1000, 1.0 / ks, np.sqrt(1000.0 / ks) / 1000.0)

        fits = [fit_loglog_slope(synthetic_trace(ks, curve(ks))) for ks in (every, log)]
        assert abs(fits[0].slope - fits[1].slope) <= 0.02
        assert fits[0].slope == pytest.approx(-0.824, abs=0.005)
        assert all(0.0 <= f.r_squared <= 1.0 for f in fits)

    def test_k_range_filter_and_validation(self):
        ks = np.array([1, 10, 100, 1000, 10000])
        tr = synthetic_trace(ks, 2.0 * ks**-0.5)
        fit = fit_loglog_slope(tr, "suboptimality", (10, 10000))
        assert fit.n_points == 4
        with pytest.raises(ConfigurationError, match="needs >= 3 positive points"):
            fit_loglog_slope(tr, "suboptimality", (2000, 10000))
        with pytest.raises(ConfigurationError):
            fit_loglog_slope(tr, "suboptimality", (100, 100))
        with pytest.raises(ConfigurationError):
            fit_loglog_slope(tr, "not_a_metric")

    def test_zeros_dropped(self):
        ks = np.array([1, 10, 100, 1000, 10000])
        vals = 2.0 * ks**-0.5
        vals[2] = 0.0
        fit = fit_loglog_slope(synthetic_trace(ks, vals), "suboptimality")
        assert fit.n_points == 4
        assert fit.slope == pytest.approx(-0.5, abs=1e-12)

    def test_scale_equivariance(self):
        rng = np.random.default_rng(6)
        ks = np.unique(np.logspace(0, 4, 30).astype(int))
        vals = np.exp(rng.standard_normal(ks.size)) * ks**-0.8
        base = fit_loglog_slope(synthetic_trace(ks, vals), "suboptimality")
        for c in (2.0, 17.5, 1e-3):
            scaled = fit_loglog_slope(synthetic_trace(ks, c * vals), "suboptimality")
            assert scaled.slope == pytest.approx(base.slope, abs=1e-12)
            assert scaled.intercept == pytest.approx(base.intercept + math.log(c), abs=1e-9)


    @pytest.mark.parametrize("record", ["log", 1, 7])
    def test_equals_the_plain_formulas_bit_for_bit(self, record):
        # the fit reuses its buffers; the values must be those of the
        # formulas written out, one new array per step
        ks = record_points(5000, record)
        vals = np.exp(np.random.default_rng(3).standard_normal(ks.size)) * ks**-0.7
        vals[::11] = 0.0
        fit = fit_loglog_slope(synthetic_trace(ks, vals), "suboptimality", (3.0, 4000.0))
        keep = (ks >= 3.0) & (ks <= 4000.0) & (vals > 0.0)
        lx, ly = np.log(ks[keep].astype(float)), np.log(vals[keep])
        gaps = np.diff(lx)
        w = np.append(gaps, 0.0)
        w[1:] += gaps
        mean_x, mean_y = (w @ lx) / w.sum(), (w @ ly) / w.sum()
        dx, dy = lx - mean_x, ly - mean_y
        slope = (w * dx) @ dy / ((w * dx) @ dx)
        resid = dy - slope * dx
        r2 = 1.0 - float((w * resid) @ resid) / float((w * dy) @ dy)
        assert (fit.slope, fit.intercept, fit.r_squared) == (slope, mean_y - slope * mean_x, r2)
        assert fit.n_points == int(keep.sum())


class TestEnvelope:
    def test_bound_takes_python_ints(self):
        # on a Python int, the bound's ** is the C library's pow; on a numpy
        # int it would be numpy's power, which can differ in the last bit
        seen = []
        res = bound_envelope_check(synthetic_trace(np.arange(1, 6), np.zeros(5)),
                                   lambda k: seen.append(type(k)) or 1.0, k_min=2)
        assert res.passed and seen == [int] * 4


    def test_zero_metric_never_violates(self):
        ks = np.array([1, 10, 100])
        res = bound_envelope_check(synthetic_trace(ks, np.zeros(3)), lambda k: 1.0)
        assert res.passed and res.max_excess == 0.0

    def test_single_violation_with_excess(self):
        ks = np.array([1, 10, 100])
        bound = lambda k: 1.0
        vals = np.array([0.5, 1.01, 0.9])
        res = bound_envelope_check(synthetic_trace(ks, vals), bound)
        assert res.violations == [10]
        assert res.max_excess == pytest.approx(0.01, rel=1e-9)

    def test_boundary_equality_passes(self):
        ks = np.array([1, 10, 100])
        bound = strongly_convex_bound(1.0, 2.0, 1.5)
        vals = np.array([bound(1), bound(10), bound(100)])
        res = bound_envelope_check(synthetic_trace(ks, vals), bound)
        assert res.passed

    def test_k_min_filter(self):
        ks = np.array([1, 10, 100])
        vals = np.array([5.0, 0.5, 0.5])
        res = bound_envelope_check(synthetic_trace(ks, vals), lambda k: 1.0, k_min=10)
        assert res.passed

    def test_non_finite_values_violate(self):
        ks = np.array([1, 10, 100])
        res = bound_envelope_check(synthetic_trace(ks, np.full(3, np.nan)), lambda k: 1.0)
        assert not res.passed and res.violations == [1, 10, 100]
        assert res.max_excess == math.inf
        vals = np.array([np.nan, 0.5, np.inf])
        res = bound_envelope_check(synthetic_trace(ks, vals), lambda k: 1.0, k_min=10)
        assert res.violations == [100] and res.max_excess == math.inf

    def test_negative_infinity_violates_and_ks_are_ints(self):
        ks = np.array([1, 10, 100])
        vals = np.array([-np.inf, 0.5, 2.0])
        res = bound_envelope_check(synthetic_trace(ks, vals), lambda k: 1.0)
        assert res.violations == [1, 100] and res.max_excess == math.inf
        assert all(type(k) is int for k in res.violations)


class TestSandwich:
    def test_zero_gradient_ratio_half(self):
        h_adam, h_clip = sandwich_steps(2.0, 0.0)
        assert h_adam / h_clip == pytest.approx(0.5, rel=1e-12)

    def test_worked_example(self):
        h_adam, h_clip = sandwich_steps(1.0, 1.0, a=1e-3, beta2=0.99, epsilon=1e-8)
        assert h_adam == pytest.approx(1.000e-3, rel=1e-3)
        assert h_clip == pytest.approx(2.010e-3, rel=1e-3)
        # sits just below the 1/2 constant
        assert h_adam / h_clip == pytest.approx(0.4975, abs=5e-4)

    def test_clipping_active_branch(self):
        # tau = (eps + sqrt(b2 v)) / sqrt(1 - b2) is about 9.95 < |g| = 50
        h_adam, h_clip = sandwich_steps(1.0, 50.0, a=1e-3, beta2=0.99, epsilon=1e-8)
        eta = 2e-3 / (1e-8 + math.sqrt(0.99))
        assert h_clip < eta
        assert 0.25 <= h_adam / h_clip <= 0.5

    def test_arrays_match_scalars(self):
        v, g = np.array([0.0, 1.0, 2.0, 1.0]), np.array([3.0, 1.0, 0.0, 50.0])
        h_adam, h_clip = sandwich_steps(v, g)
        for i in range(v.size):
            assert (h_adam[i], h_clip[i]) == sandwich_steps(v[i], g[i])

    def test_validation(self):
        for kwargs in (dict(v=-1.0), dict(beta2=1.0), dict(beta2=0.0), dict(a=0.0),
                       dict(epsilon=0.0), dict(a=math.nan), dict(v=math.inf), dict(g=math.nan)):
            args = {"v": 1.0, "g": 0.0} | kwargs
            with pytest.raises(ConfigurationError):
                sandwich_steps(**args)

    @pytest.mark.parametrize("kwargs", [dict(v_max=-5.0), dict(a=math.nan), dict(a=0.0),
                                        dict(epsilon=0.0, v_max=0.0), dict(beta2=1.5),
                                        dict(g_max=math.inf)])
    def test_fuzz_refuses_bad_parameters_before_drawing(self, kwargs):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ConfigurationError):
            sandwich_fuzz(10**4, rng, **kwargs)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("n", [1, 16_384, 16_385, 50_000])
    def test_fuzz_in_blocks_matches_the_whole_array(self, n):
        # the fuzz draws v, then g, and evaluates them 16,384 pairs at a time
        got = sandwich_fuzz(n, np.random.default_rng(n), v_max=4.0, g_max=50.0, epsilon=1e-3)
        rng = np.random.default_rng(n)
        v = rng.random(n) * 4.0
        g = (rng.random(n) * 2.0 - 1.0) * 50.0
        h_adam, h_clip = sandwich_steps(v, g, epsilon=1e-3)
        ratio = h_adam / h_clip
        assert (got.n, got.violations, got.min_ratio, got.max_ratio) == (
            n, int(np.sum((h_adam < 0.25 * h_clip) | (h_adam > 2.0 * h_clip))),
            float(ratio.min()), float(ratio.max()))

    @pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.MT19937, np.random.Philox,
                                               np.random.SFC64])
    @pytest.mark.parametrize("n", [16_384, 50_001])
    def test_fuzz_draws_the_bits_of_whole_v_and_g_draws(self, bit_generator, n):
        # v from a copy of the generator, g after a skip of n draws: the
        # result and the generator's end state of two whole draws
        rng, twin = np.random.Generator(bit_generator(n)), np.random.Generator(bit_generator(n))
        got = sandwich_fuzz(n, rng)
        v = twin.random(n) * 100.0
        g = (twin.random(n) * 2.0 - 1.0) * 100.0
        h_adam, h_clip = sandwich_steps(v, g)
        ratio = h_adam / h_clip
        assert got == FuzzResult(n, int(np.sum((h_adam < 0.25 * h_clip) | (h_adam > 2.0 * h_clip))),
                                 float(ratio.min()), float(ratio.max()))
        np.testing.assert_equal(rng.bit_generator.state, twin.bit_generator.state)  # MT19937's key is an array

    def test_fuzz_respects_provable_band(self):
        res = sandwich_fuzz(10**5, np.random.default_rng(3))
        assert res.violations == 0
        assert 0.25 <= res.min_ratio <= res.max_ratio <= 0.5
        # the often-quoted 1/2 lower constant is not achieved everywhere
        assert res.min_ratio < 0.5
