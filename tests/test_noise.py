import concurrent.futures
import copy
import math
import os
import time
import tracemalloc
from dataclasses import astuple
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import ks_2samp

from tailclip import noise, runner
from tailclip.config import apply_overrides, load_config
from tailclip.errors import ConfigurationError
from tailclip.noise import (
    NoiseSpec,
    column_sum,
    coordinate_moment_roots,
    fan_out,
    norm_moment_root,
    pareto_magnitude,
    row_blocks,
    row_sq_sums,
    sample_noise_batch,
    stream_groups,
    tail_index,
)
from tailclip.problems import estimate_G, quadratic_problem
from tailclip.suites import chain_suite, lemma_check, noise_probe

REPO = Path(__file__).resolve().parents[1]


def reference_batch(spec, rng, n):
    """The sampler as one transform over the whole (n, 2d) block of uniforms:
    the bit-identity reference for the sub-blocked sample_noise_batch."""
    d = spec.dimension
    if spec.family == "zero":
        return np.zeros((n, d))
    if spec.family == "gaussian":
        return rng.standard_normal((n, d)) * spec.scale
    u2 = rng.random((n, 2 * d))
    if spec.family == "pareto":
        signs = np.where(u2[:, d:] < 0.5, -1.0, 1.0)
        return signs * pareto_magnitude(u2[:, :d], spec.tail_index) * spec.scale
    a = spec.tail_index
    v = (u2[:, :d] - 0.5) * math.pi
    w = -np.log1p(-u2[:, d:])
    with np.errstate(divide="ignore"):
        x = (np.sin(a * v) / np.cos(v) ** (1.0 / a)) * (
            np.cos((1.0 - a) * v) / w
        ) ** ((1.0 - a) / a)
    return x * spec.scale


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def sub_rows(d):
    """Rows per sub-block at width d: the first slice of a long pass."""
    return next(row_blocks(10**9, d)).stop


@pytest.mark.parametrize("d,coords", [(1, 1 << 14), (3, 1 << 14), (100, 1 << 14), (20_000, 1 << 14),
                                      (1, 5), (7, 5), (1, 1 << 16)])
def test_row_blocks_cover_the_rows_once_in_order(d, coords):
    rows = max(coords // d, 1)
    for n in (0, 1, rows - 1, rows, rows + 1, 3 * rows + 2):
        parts = list(row_blocks(n, d, coords))
        assert np.array_equal(np.concatenate([np.arange(n)[p] for p in parts] + [[]]), np.arange(n))
        assert all(p.stop - p.start == rows for p in parts[:-1])
        assert all(0 < p.stop - p.start <= rows and p.step is None for p in parts)


@pytest.mark.parametrize("d", [1, 2, 10, 100])
def test_column_sum_equals_the_whole_array_sum(d):
    rows = sub_rows(d)
    for n in (1, rows - 1, rows, rows + 1, 3 * rows + 2):
        a = sample_noise_batch(NoiseSpec("stable", dimension=d, tail_index=1.2),
                               np.random.default_rng(n), n)
        a[n // 2] = np.inf
        a[n // 3, 0] = -0.0
        if n > 2:
            a[-1] = np.nan
            a[1, -1] = -np.inf
        filled = []

        def fill(part, out):
            filled.append(part)
            np.copyto(out, a[part])

        with np.errstate(invalid="ignore"):  # inf + -inf
            assert same_bits(column_sum(n, d, fill), np.sum(a, axis=0))
        assert filled == ([slice(0, n)] if d == 1 else list(row_blocks(n, d)))
    # the carried first row starts at -0.0, which leaves a column of -0.0 at -0.0
    zeros = np.full((3 * rows + 2, d), -0.0)
    assert same_bits(column_sum(len(zeros), d, lambda part, out: np.copyto(out, zeros[part])),
                     np.sum(zeros, axis=0))


@pytest.mark.parametrize("d", [1, 3, 10, 100])
@pytest.mark.parametrize("family,tail", [("gaussian", 2.0), ("pareto", 1.5), ("pareto", 2.5),
                                         ("stable", 1.5), ("stable", 2.0), ("zero", 2.0)])
def test_sub_blocks_match_the_whole_block_transform(family, tail, d):
    spec = NoiseSpec(family, dimension=d, scale=1.7, tail_index=tail)
    rows = sub_rows(d)
    for n in (1, rows - 1, rows, rows + 1, 65_536 + 7):
        rng, ref = np.random.default_rng(n), np.random.default_rng(n)
        assert same_bits(sample_noise_batch(spec, rng, n), reference_batch(spec, ref, n))
        assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("d", [1, 7, 100, 3000])
def test_row_sq_sums_equal_the_whole_array_sum(d):
    spec = NoiseSpec("stable", dimension=d, tail_index=1.3)
    a = sample_noise_batch(spec, np.random.default_rng(d), 2 * sub_rows(d) + 3)
    assert same_bits(row_sq_sums(a, np.empty(len(a))), np.sum(a * a, axis=1))


def traced_peak(fn):
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_stable_sampler_and_calibration_peak_near_their_block():
    # before sub-blocks, a whole-block transform peaked at about 7x the draws
    spec = NoiseSpec("stable", dimension=100, tail_index=1.55)
    block_bytes = 20_000 * 100 * 8
    draws, peak = traced_peak(lambda: sample_noise_batch(spec, np.random.default_rng(0), 20_000))
    assert draws.nbytes == block_bytes and peak <= block_bytes + 4 * 2**20
    problem = quadratic_problem(1.0, 100, 1.0, spec)
    _, peak = traced_peak(lambda: estimate_G(problem, np.zeros(100), 1.5, 20_000,
                                             np.random.default_rng(0)))
    assert peak <= block_bytes + 4 * 2**20


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


@pytest.mark.parametrize(
    "family,tail", [("gaussian", 2.0), ("pareto", 2.5), ("stable", 1.5), ("zero", 2.0)]
)
def test_batches_split_at_any_row_boundary_equal_one_call(family, tail):
    # at d = 2 a sub-block holds 8,192 rows: the splits fall inside, on and
    # across its boundaries
    spec = NoiseSpec(family, dimension=2, tail_index=tail)
    ref = np.random.default_rng(5)
    whole = sample_noise_batch(spec, ref, 20_000)
    for sizes in [(0, 20_000), (1, 19_999), (8_191, 2, 11_807), (8_192, 8_192, 3_616),
                  (5_000, 12_000, 3_000)]:
        rng = np.random.default_rng(5)
        parts = [sample_noise_batch(spec, rng, n) for n in sizes]
        assert np.array_equal(np.vstack(parts), whole), sizes
        assert rng.bit_generator.state == ref.bit_generator.state, sizes


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


def whole_array_tail_index(samples, k, rng):
    """tail_index written with whole-array signs and block sums: the
    bit-identity reference for its blockwise pass."""
    x = samples[samples > 0]
    n = x.size
    signed = np.where(rng.random(n) < 0.5, -x, x)
    block_sums = np.abs(signed.reshape(n // k, k).sum(axis=1))
    block_sums = block_sums[block_sums > 0]
    inv = (np.mean(np.log(block_sums)) - np.mean(np.log(x))) / math.log(k)
    return float(min(2.0 if inv <= 0.5 else 1.0 / inv, 2.0))


@pytest.mark.parametrize("k", [2, 7, 100])
@pytest.mark.parametrize("zeros", [0, 37])
def test_tail_index_in_runs_of_blocks_equals_the_whole_array(k, zeros):
    # about 60,000 samples: several runs of whole blocks at each k
    spec = NoiseSpec("stable", dimension=1, tail_index=1.5)
    m = 60_000 // k
    x = np.abs(sample_noise_batch(spec, np.random.default_rng(k), m * k)[:, 0])
    x = np.insert(x, np.random.default_rng(zeros).integers(0, x.size, zeros), 0.0)
    rng, twin = np.random.default_rng(5), np.random.default_rng(5)
    got = tail_index(x, k, rng)
    assert got == whole_array_tail_index(x, k, twin)
    assert rng.bit_generator.state == twin.bit_generator.state


@pytest.mark.parametrize("bad", [math.inf, math.nan, -math.inf])
def test_tail_index_refuses_a_non_finite_sample_before_drawing(bad):
    x = np.ones(1000)
    x[[321, 654]] = bad
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(ConfigurationError, match=f"sample 321 is {bad!r}"):
        tail_index(x, 100, rng)
    assert rng.bit_generator.state == state


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


# Positioned streams: the rows of a pareto or stable stream from any row on.

SPLIT_N = 65_540


@pytest.mark.parametrize("d", [1, 10, 100])
@pytest.mark.parametrize("family,tail", [("pareto", 1.6), ("stable", 1.55)])
def test_a_positioned_generator_draws_the_serial_rows(family, tail, d):
    spec = NoiseSpec(family, dimension=d, scale=0.7, tail_index=tail)
    rng = np.random.default_rng(d)
    rng.integers(0, 7, dtype=np.int32)  # a buffered 32-bit half, which rows leave alone
    serial = sample_noise_batch(spec, copy.deepcopy(rng), SPLIT_N)
    for row in (1, 7, 1637, 1638, 65_537, SPLIT_N - 1):
        gen = noise._advanced(rng, row * 2 * d)
        rows = min(5, SPLIT_N - row)
        assert same_bits(sample_noise_batch(spec, gen, rows), serial[row:row + rows]), row


def fanned(monkeypatch):
    """Fan out every pass, whatever its size."""
    monkeypatch.setattr(noise, "FAN_OUT_FLOOR", 0)


@pytest.mark.parametrize("d", [1, 4])
@pytest.mark.parametrize("family,tail", [("pareto", 1.6), ("stable", 1.55)])
def test_a_fanned_pass_keeps_the_bits_and_leaves_the_stream_where_a_serial_one_does(
        family, tail, d, monkeypatch):
    fanned(monkeypatch)
    spec = NoiseSpec(family, dimension=d, tail_index=tail)
    n = 2 * 65_536 + 11  # three groups
    shift = np.linspace(-1.0, 1.0, d)
    for moments in (norm_moment_root, coordinate_moment_roots):
        got, want = np.random.default_rng(3), np.random.default_rng(3)
        for rng in (got, want):
            rng.integers(0, 7, dtype=np.int32)
        assert got.bit_generator.state["has_uint32"] == 1
        assert same_bits(np.asarray(moments(spec, shift, 1.5, n, got, workers=2)),
                         np.asarray(moments(spec, shift, 1.5, n, want, workers=1)))
        assert got.bit_generator.state == want.bit_generator.state
        assert got.random() == want.random()


@pytest.mark.parametrize("family,bit_generator,forked", [
    ("stable", np.random.PCG64, True), ("pareto", np.random.PCG64, True),
    ("gaussian", np.random.PCG64, False), ("zero", np.random.PCG64, False),
    ("stable", np.random.MT19937, False), ("stable", np.random.PCG64DXSM, False),
])
def test_only_pcg64_pareto_and_stable_streams_fan_out(family, bit_generator, forked, monkeypatch):
    fanned(monkeypatch)
    spec = NoiseSpec(family, dimension=2, tail_index=1.5)
    rng = np.random.Generator(bit_generator(1))
    pids = stream_groups(spec, rng, 3 * 65_536, lambda group, gen: os.getpid(), workers=2)
    assert len(pids) == 3
    assert (os.getpid() not in pids) == forked and (set(pids) == {os.getpid()}) != forked


def test_a_pass_below_the_floor_stays_serial():
    spec = NoiseSpec("stable", dimension=2, tail_index=1.5)
    n = noise.FAN_OUT_FLOOR // 2 - 1
    pids = stream_groups(spec, np.random.default_rng(0), n, lambda group, gen: os.getpid(), 2)
    assert set(pids) == {os.getpid()}


def _square_or_raise(i):
    if i == 5:
        raise ValueError("job 5 failed")
    return i * i, os.getpid()


@pytest.mark.parametrize("workers", [1, 2])
def test_fan_out_returns_the_jobs_in_order_and_raises_their_errors(workers):
    squares = list(fan_out(lambda i: (i * i, os.getpid()), 9, workers))
    assert [sq for sq, _ in squares] == [i * i for i in range(9)]
    assert ({pid for _, pid in squares} == {os.getpid()}) == (workers == 1)
    with pytest.raises(ValueError, match="job 5 failed"):
        list(fan_out(_square_or_raise, 9, workers))
    assert noise._fan_out_job is None


def test_closing_fan_out_early_cancels_the_jobs_not_started(tmp_path):
    # 20 jobs on 2 workers, each marking its start, sleeping, then marking
    # its end: once the first result is taken and the iterator closed, the
    # jobs that started have ended and no other job starts
    def job(i):
        (tmp_path / f"{i}.start").touch()
        time.sleep(0.05)
        (tmp_path / f"{i}.end").touch()
        return i

    results = fan_out(job, 20, 2)
    assert next(results) == 0
    results.close()
    files = sorted(p.name for p in tmp_path.iterdir())
    started = [name for name in files if name.endswith(".start")]
    assert 0 < len(started) < 20
    assert files == sorted([*started, *(name.replace("start", "end") for name in started)])
    assert noise._fan_out_job is None
    time.sleep(0.3)
    assert sorted(p.name for p in tmp_path.iterdir()) == files


def test_library_entry_points_default_to_one_worker_per_core(monkeypatch):
    # with two cores and no floor, each entry point called without a worker
    # count starts a pool, and gives the bits of one worker
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(noise, "FAN_OUT_FLOOR", 0)
    pools = []

    class CountedPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountedPool)
    spec = NoiseSpec("stable", dimension=2, tail_index=1.55)
    cfg = load_config(REPO / "configs" / "smoke.cfg")
    apply_overrides(cfg, ["schedule.calibration_draws=140000"])  # three stream groups
    problem, x0 = runner.build_problem(cfg)
    calls = {
        "lemma_check": lambda **kw: [
            astuple(p) for p in lemma_check(spec, [2.0, 5.0], 2 * 65_536 + 7,
                                             np.random.default_rng(0), 1.5, **kw).probes],
        "chain_suite": lambda **kw: [
            astuple(v) for v in chain_suite(20, 4001, np.random.default_rng(0), **kw).verdicts],
        "build_schedule": lambda **kw: runner.build_schedule(cfg, problem, x0, **kw),
    }
    for name, call in calls.items():
        pools.clear()
        fanned = call()
        assert len(pools) == 1, name
        assert fanned == call(workers=1), name
        assert len(pools) == 1, name


def test_only_noise_starts_worker_processes():
    # fan_out is the one place that builds a process pool and reads the core count
    src = REPO / "src" / "tailclip"
    for path in sorted(src.glob("*.py")):
        text = path.read_text()
        for name in ("ProcessPoolExecutor", "cpu_count"):
            assert (name in text) == (path.name == "noise.py"), (path.name, name)
