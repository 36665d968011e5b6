import copy
import math

import numpy as np
import pytest
from scipy.stats import ks_2samp

from tailclip.errors import ConfigurationError
from tailclip.noise import (
    NoiseSpec,
    pareto_magnitude,
    iter_blocks,
    sample_noise_batch,
    tail_index,
)
from tailclip.suites import noise_probe


def test_zero_family_returns_zeros():
    spec = NoiseSpec("zero", dimension=7)
    out = sample_noise_batch(spec, np.random.default_rng(0), 1)[0]
    assert out.shape == (7,)
    assert np.all(out == 0.0)


def test_pareto_inverse_cdf_hand_value():
    # forced U=0.5, sign=+1, a=2, scale=1: (0.5)^(-1/2) = sqrt(2)
    assert pareto_magnitude(0.5, 2.0) == pytest.approx(math.sqrt(2), rel=1e-12)
    assert pareto_magnitude(0.0, 1.5) == pytest.approx(1.0, rel=1e-12)


def test_pareto_magnitudes_at_least_scale():
    spec = NoiseSpec("pareto", dimension=4, tail_index=1.5, scale=0.5)
    draws = sample_noise_batch(spec, np.random.default_rng(3), 1000)
    assert np.all(np.abs(draws) >= 0.5 - 1e-12)


def test_stable_a2_reduces_to_gaussian():
    # a=2 stable law is Gaussian with variance 2*scale^2; compare against
    # the gaussian sampler as oracle with a two-sample KS test.
    scale = 0.7
    stable = NoiseSpec("stable", dimension=1, tail_index=2.0, scale=scale)
    gauss = NoiseSpec("gaussian", dimension=1, scale=scale * math.sqrt(2.0))
    a = sample_noise_batch(stable, np.random.default_rng(11), 10**5)[:, 0]
    b = sample_noise_batch(gauss, np.random.default_rng(12), 10**5)[:, 0]
    assert ks_2samp(a, b).pvalue > 0.01


@pytest.mark.parametrize(
    "family,tail", [("pareto", 1.5), ("pareto", 3.0), ("stable", 1.5), ("stable", 1.9)]
)
def test_symmetry_mean_zero(family, tail):
    spec = NoiseSpec(family, dimension=1, tail_index=tail)
    draws = sample_noise_batch(spec, np.random.default_rng(100 + int(10 * tail)), 10**6)[:, 0]
    se = np.std(draws, ddof=1) / math.sqrt(draws.size)
    assert abs(float(np.mean(draws))) <= 4.0 * se


def test_determinism_bit_identical():
    spec = NoiseSpec("stable", dimension=3, tail_index=1.5)
    a = sample_noise_batch(spec, np.random.default_rng(42), 100)
    b = sample_noise_batch(spec, np.random.default_rng(42), 100)
    assert np.array_equal(a, b)


@pytest.mark.parametrize(
    "family,tail", [("gaussian", 2.0), ("pareto", 2.5), ("stable", 1.5), ("zero", 2.0)]
)
def test_batch_matches_repeated_single_draws(family, tail):
    spec = NoiseSpec(family, dimension=2, tail_index=tail)
    batch = sample_noise_batch(spec, np.random.default_rng(5), 6)
    rng = np.random.default_rng(5)
    singles = np.stack([sample_noise_batch(spec, rng, 1)[0] for _ in range(6)])
    assert np.array_equal(batch, singles)
    for block in (1, 4, 6, 64):
        blocks = list(iter_blocks(spec, np.random.default_rng(5), 6, block))
        assert [len(b) for b in blocks[:-1]] == [block] * (len(blocks) - 1)
        assert np.array_equal(np.vstack(blocks), singles)


def test_spec_validation():
    with pytest.raises(ConfigurationError):
        NoiseSpec("stable", dimension=2, tail_index=1.0)
    with pytest.raises(ConfigurationError):
        NoiseSpec("stable", dimension=2, tail_index=2.3)
    with pytest.raises(ConfigurationError):
        NoiseSpec("pareto", dimension=2, tail_index=0.9)
    with pytest.raises(ConfigurationError):
        NoiseSpec("gaussian", dimension=0)
    with pytest.raises(ConfigurationError):
        NoiseSpec("gaussian", dimension=2, scale=-1.0)
    with pytest.raises(ConfigurationError):
        NoiseSpec("cauchy", dimension=1)


@pytest.mark.parametrize("family", ["normal", "alpha_stable", "Gaussian", "none"])
def test_only_the_four_family_names_accepted(family):
    with pytest.raises(ConfigurationError, match="unknown noise family"):
        NoiseSpec(family, dimension=1)


@pytest.mark.parametrize("family", ["gaussian", "pareto", "stable", "zero"])
@pytest.mark.parametrize("field,value", [("scale", math.nan), ("scale", math.inf),
                                         ("tail_index", math.nan), ("tail_index", math.inf)])
def test_non_finite_scale_or_tail_index_refused(family, field, value):
    with pytest.raises(ConfigurationError, match=field):
        NoiseSpec(family, dimension=1, **{field: value})


def test_moment_finiteness_across_checkpoints():
    # Empirical moment at p just below the stability index stabilizes from
    # n=1e5 to n=1e6, while the second moment keeps growing.
    a = 1.5
    spec = NoiseSpec("stable", dimension=1, tail_index=a)
    ratios_low, ratios_sq = [], []
    for seed in range(20):
        draws = sample_noise_batch(spec, np.random.default_rng(500 + seed), 10**6)[:, 0]
        absd = np.abs(draws)
        for p, store in ((a - 0.1, ratios_low), (2.0, ratios_sq)):
            v5 = np.mean(absd[: 10**5] ** p)
            v6 = np.mean(absd**p)
            store.append(v6 / v5)
    assert 0.8 <= float(np.median(ratios_low)) <= 1.25
    assert float(np.median(ratios_sq)) > 1.5


def test_tail_index_gaussian_oracle():
    draws = np.abs(np.random.default_rng(21).standard_normal(10**6))
    assert 1.85 <= tail_index(draws, 100, rng=np.random.default_rng(0)) <= 2.0


def test_tail_index_stable_oracle():
    spec = NoiseSpec("stable", dimension=1, tail_index=1.5)
    draws = np.abs(sample_noise_batch(spec, np.random.default_rng(22), 10**6)[:, 0])
    assert 1.35 <= tail_index(draws, 100, rng=np.random.default_rng(0)) <= 1.65


def test_tail_index_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ConfigurationError):
        tail_index(np.ones(105), 10, rng)  # not a multiple of the block size
    with pytest.raises(ConfigurationError):
        tail_index(np.ones(10), 10, rng)  # single block
    with pytest.raises(ConfigurationError):
        tail_index(np.array([-1.0] * 100), 10, rng)
    with pytest.raises(ConfigurationError, match="at least 2"):
        tail_index(np.ones(100), 1, rng)  # log K = 0


def test_noise_probe_zero_family():
    res = noise_probe(NoiseSpec("zero", dimension=3), 100, np.random.default_rng(0))
    assert [v for _, v in res.variance_curve] == [0.0]
    assert res.tail is None


def test_noise_probe_gaussian_curve_stabilizes():
    spec = NoiseSpec("gaussian", dimension=4, scale=0.5)
    res = noise_probe(spec, 10**5, np.random.default_rng(9))
    assert [c for c, _ in res.variance_curve] == [10**3, 10**4, 10**5]
    assert res.variance_curve[-1][1] == pytest.approx(4 * 0.5**2, rel=0.05)


def test_noise_probe_stable_curve_drifts_up():
    spec = NoiseSpec("stable", dimension=1, tail_index=1.5)
    ratios = []
    for seed in range(20):
        curve = noise_probe(spec, 10**6, np.random.default_rng(3000 + seed)).variance_curve
        ratios.append(curve[-1][1] / curve[0][1])
    assert float(np.median(ratios)) > 2.0


def test_noise_probe_refuses_no_draws():
    with pytest.raises(ConfigurationError, match="n >= 1"):
        noise_probe(NoiseSpec("gaussian", dimension=1), 0, np.random.default_rng(0))


@pytest.mark.parametrize("n,block", [(100_050, 100), (150, 100)])
def test_noise_probe_outputs_read_one_draw(n, block):
    # max(n, 2 * block) vectors drawn once: the curve, the tail index and the
    # histogram all equal their values on those rows, and the stream ends
    # where the tail index's signs end
    spec = NoiseSpec("pareto", dimension=3, tail_index=1.5)
    rng = np.random.default_rng(8)
    twin = copy.deepcopy(rng)
    res = noise_probe(spec, n, rng, block_size=block, bins=20)
    rows = sample_noise_batch(spec, twin, max(n, 2 * block))
    sq = np.sum(rows * rows, axis=1)
    assert res.variance_curve[-1] == (n, float(np.sum(sq[:n])) / n)
    norms = np.sqrt(sq)
    assert res.tail == tail_index(norms[:max(n - n % block, 2 * block)], block, rng=twin)
    assert rng.bit_generator.state == twin.bit_generator.state
    hist = norms[:min(n, 10**5)]
    counts, edges = np.histogram(hist, bins=20, range=(0.0, float(np.quantile(hist, 0.999))))
    assert np.array_equal(res.histogram[0], counts)
    assert np.array_equal(res.histogram[1], edges)
