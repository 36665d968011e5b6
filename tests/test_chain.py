import math
import tracemalloc

import numpy as np
import pytest

from tailclip import noise
from tailclip.errors import ConfigurationError
from tailclip.problems import (
    chain_gradient_raw,
    chain_phi,
    chain_phi_prime,
    chain_psi,
    chain_psi_prime,
    chain_value_and_gradient,
    chain_value_raw,
    prog,
)
from tailclip.suites import _chain_test_points, chain_suite


def test_psi_values():
    assert chain_psi(1.0) == pytest.approx(1.0, rel=1e-12)  # exp(1-1) = 1
    assert chain_psi(0.5) == 0.0
    assert chain_psi(-3.0) == 0.0
    assert chain_psi(0.6) == pytest.approx(math.exp(1.0 - 25.0), rel=1e-12)


def test_phi_value_at_zero():
    # sqrt(e) * integral_{-inf}^0 e^{-t^2/2} dt = sqrt(e) * sqrt(pi/2)
    assert chain_phi(0.0) == pytest.approx(2.0663657, rel=1e-6)
    assert chain_phi(0.0) == pytest.approx(math.sqrt(math.e) * math.sqrt(math.pi / 2), rel=1e-12)


def test_phi_monotone_and_bounded():
    xs = np.linspace(-8, 8, 400)
    vals = chain_phi(xs)
    assert np.all(np.diff(vals) > 0)
    assert vals[0] >= 0.0
    assert vals[-1] <= math.sqrt(math.e) * math.sqrt(2 * math.pi)


def test_psi_phi_derivatives_match_fd():
    xs = np.linspace(-2, 2, 101)
    h = 1e-6
    fd_psi = (chain_psi(xs + h) - chain_psi(xs - h)) / (2 * h)
    fd_phi = (chain_phi(xs + h) - chain_phi(xs - h)) / (2 * h)
    assert np.allclose(chain_psi_prime(xs), fd_psi, atol=1e-5)
    assert np.allclose(chain_phi_prime(xs), fd_phi, atol=1e-5)


def test_chain_value_d1_closed_form():
    x = np.array([0.37])
    assert chain_value_raw(x) == pytest.approx(-chain_phi(0.37), rel=1e-12)
    assert chain_gradient_raw(x)[0] == pytest.approx(-chain_phi_prime(0.37), rel=1e-12)


def separate_value_and_gradient(x):
    """f_d and its gradient, each written out in chain_psi, chain_psi_prime,
    chain_phi and chain_phi_prime, with phi evaluated at every entry: the
    bit-identity reference for the one evaluation of
    chain_value_and_gradient, which skips phi where psi is 0."""
    x2 = np.atleast_2d(np.asarray(x, dtype=float))
    value = -chain_psi(1.0) * chain_phi(x2[:, 0])
    g = np.zeros_like(x2)
    g[:, 0] = -chain_psi(1.0) * chain_phi_prime(x2[:, 0])
    if x2.shape[1] > 1:
        prev, cur = x2[:, :-1], x2[:, 1:]
        value = value + np.sum(chain_psi(-prev) * chain_phi(-cur) - chain_psi(prev) * chain_phi(cur),
                               axis=1)
        g[:, 1:] += -chain_psi(-prev) * chain_phi_prime(-cur) - chain_psi(prev) * chain_phi_prime(cur)
        g[:, :-1] += -chain_psi_prime(-prev) * chain_phi(-cur) - chain_psi_prime(prev) * chain_phi(cur)
    return (value, g) if np.ndim(x) == 2 else (float(value[0]), g[0])


@pytest.mark.parametrize("d", [1, 2, 6, 20])
def test_one_evaluation_gives_the_bits_of_separate_ones(d):
    rng = np.random.default_rng(d)
    pts = np.vstack([rng.uniform(-3.0, 3.0, (500, d)), rng.uniform(0.49, 0.51, (500, d)),
                     -rng.uniform(0.49, 0.51, (500, d)), np.zeros((2, d)), np.full((2, d), 0.5)])
    for x in (pts, pts[0], pts[-1]):
        value, grad = chain_value_and_gradient(x)
        want_value, want_grad = separate_value_and_gradient(x)
        assert type(value) is type(want_value)
        assert np.asarray(value).tobytes() == np.asarray(want_value).tobytes()
        assert grad.shape == want_grad.shape and grad.tobytes() == want_grad.tobytes()
        assert np.asarray(chain_value_raw(x)).tobytes() == np.asarray(value).tobytes()
        assert chain_gradient_raw(x).tobytes() == grad.tobytes()


@pytest.mark.parametrize("d", [1, 2, 6])
def test_a_nan_coordinate_gives_a_nan_value(d):
    # phi of a NaN is taken even where psi of its neighbour is 0, so the NaN
    # reaches the value and the gradient entries the reference puts it in
    rng = np.random.default_rng(d)
    for j in range(d):
        x = np.vstack([rng.uniform(-3.0, 3.0, (2, d)), rng.uniform(-0.5, 0.5, (2, d))])  # psi = 0
        x[:, j] = math.nan
        value, grad = chain_value_and_gradient(x)
        want_value, want_grad = separate_value_and_gradient(x)
        assert np.all(np.isnan(value))
        assert np.array_equal(np.isnan(grad), np.isnan(want_grad))
        assert np.array_equal(grad[~np.isnan(grad)], want_grad[~np.isnan(want_grad)])


def test_phi_matches_the_scipy_erf_formula():
    # math.erf and scipy's erf differ by up to 3 ulp of erf near |t| = 1.4,
    # so phi stays within 3 ulp of the larger of its two terms
    from scipy.special import erf

    t = np.linspace(-40.0, 40.0, 400_001)
    want = chain_phi(0.0) * (1.0 + erf(t / math.sqrt(2.0)))
    scale = np.spacing(chain_phi(0.0) * (1.0 + np.abs(erf(t / math.sqrt(2.0)))))
    assert np.all(np.abs(chain_phi(t) - want) <= 3 * scale)
    assert chain_phi(-40.0) == 0.0 and chain_phi(40.0) == 2.0 * chain_phi(0.0)


def test_chain_gradient_matches_fd():
    rng = np.random.default_rng(2)
    d = 6
    h = 1e-5
    for _ in range(100):
        x = rng.uniform(-2.5, 2.5, size=d)
        g = chain_gradient_raw(x)
        fd = np.empty(d)
        for j in range(d):
            e = np.zeros(d)
            e[j] = h
            fd[j] = (chain_value_raw(x + e) - chain_value_raw(x - e)) / (2 * h)
        assert np.linalg.norm(fd - g) <= 1e-4 * max(np.linalg.norm(g), 1e-8)


def test_oracle_unbiased_monte_carlo():
    # the revealed coordinate, drawn as chain_suite draws it
    p = 0.3
    x = np.array([1.4, 0.6, 0.05, 0.0])
    exact = chain_gradient_raw(x)
    j = prog(x, 0.25) + 1
    rng = np.random.default_rng(9)
    n = 10**5
    z = (rng.random(n) < p).astype(float)
    draws = exact[j - 1] * z / p
    se = np.std(draws, ddof=1) / math.sqrt(n)
    assert abs(float(np.mean(draws)) - exact[j - 1]) <= 4 * se


def test_chain_validation():
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    for d, p in ((0, 0.5), (3, 0.0), (3, 1.5), (3, math.nan)):
        with pytest.raises(ConfigurationError):
            chain_suite(d, 100, rng, p=p)
    assert rng.bit_generator.state == state  # refused before any draw


def test_chain_suite_small():
    res = chain_suite(8, 4000, np.random.default_rng(5), curvature_points=500)
    for v in res.verdicts:
        assert v.passed, v.line()


@pytest.mark.parametrize("d", [1, 2, 20])
def test_batched_rows_equal_single_points(d):
    xs = np.random.default_rng(d).uniform(-3.0, 3.0, size=(50, d))
    values = chain_value_raw(xs)
    grads = chain_gradient_raw(xs)
    for x, v, g in zip(xs, values, grads):
        assert chain_value_raw(x) == v
        assert np.array_equal(chain_gradient_raw(x), g)


@pytest.mark.parametrize("d", [1, 4])
def test_value_follows_the_input_rank(d):
    # a float for one point, one value per row for an (m, d) array, m = 1 included
    rows = np.random.default_rng(d).uniform(-2.0, 2.0, size=(1, d))
    batched, single = chain_value_raw(rows), chain_value_raw(rows[0])
    assert isinstance(batched, np.ndarray) and batched.shape == (1,)
    assert isinstance(single, float) and batched[0] == single


def reference_chain_observations(d, n, rng):
    """chain_suite's value gap, zero-chain excess and finite-difference error
    computed one point at a time, drawing from ``rng`` as chain_suite does."""
    pts = _chain_test_points(d, n, rng)
    grads = chain_gradient_raw(pts)
    best = float(np.min(chain_value_raw(pts)))
    x_cur = pts[np.argmin(chain_value_raw(pts))].copy()
    for _ in range(300):
        x_cur -= 0.05 * chain_gradient_raw(x_cur)
    best = min(best, float(chain_value_raw(x_cur)))
    for _ in range(20):
        x_cur = rng.uniform(-2.0, 2.0, size=d)
        for _ in range(150):
            x_cur -= 0.05 * chain_gradient_raw(x_cur)
        best = min(best, float(chain_value_raw(x_cur)))
    gap = chain_value_raw(np.zeros(d)) - best
    zero_chain = "ok"
    for x, g in zip(pts, grads):
        if prog(g, 0.0) > prog(x, 0.5) + 1:
            zero_chain = f"excess {prog(g, 0.0) - prog(x, 0.5)}"
            break
    rng.integers(0, pts.shape[0], size=2000)  # the curvature check's draws
    rng.standard_normal((2000, d))
    hfd = 1e-5
    max_rel = 0.0
    for x in pts[rng.integers(0, pts.shape[0], size=100)]:
        g = chain_gradient_raw(x)
        fd = np.empty(d)
        for j in range(d):
            e = np.zeros(d)
            e[j] = hfd
            fd[j] = (chain_value_raw(x + e) - chain_value_raw(x - e)) / (2.0 * hfd)
        max_rel = max(max_rel, float(np.linalg.norm(fd - g) / max(np.linalg.norm(g), 1e-8)))
    return {
        "chain_value_gap": f"{gap:.4g}",
        "chain_zero_chain": zero_chain,
        "chain_gradient_fd": f"max rel err {max_rel:.3g}",
    }


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("d", [1, 3, 12])
def test_chain_suite_matches_per_point_reference(d, seed):
    observed = {v.criterion: v.observed
                for v in chain_suite(d, 1500, np.random.default_rng(seed)).verdicts}
    want = reference_chain_observations(d, 1500, np.random.default_rng(seed))
    assert {k: observed[k] for k in want} == want


def test_zero_chain_reports_first_offending_point(monkeypatch):
    # A gradient that reveals every coordinate at once breaks the zero-chain
    # property; the suite reports the excess at the first such point.
    def revealing(x):
        value, g = chain_value_and_gradient(x)
        if np.ndim(x) == 2 and len(x) > 1000:
            g = g.copy()
            g[7:, -1] = 1.0
        return value, g

    monkeypatch.setattr("tailclip.suites.chain_value_and_gradient", revealing)
    pts = _chain_test_points(6, 1500, np.random.default_rng(4))
    first = next(i for i in range(7, len(pts)) if prog(pts[i], 0.5) + 1 < 6)
    v = {v.criterion: v for v in chain_suite(6, 1500, np.random.default_rng(4)).verdicts}
    assert not v["chain_zero_chain"].passed
    assert v["chain_zero_chain"].observed == f"excess {6 - prog(pts[first], 0.5)}"


@pytest.mark.parametrize("workers", [1, 2])
def test_zero_chain_reports_first_offending_point_across_blocks(workers, monkeypatch):
    # As above, across blocks.  At d = 20 a block is 819 rows, so 4,001
    # points make five blocks, each a job; the gradient reveals from row
    # 1,000 on, in the second block, and the later blocks' offending points
    # must not mask it.
    d, n, reveal_from = 20, 4001, 1000

    def revealing(x):  # x is a block of rows of the suite's points
        value, g = chain_value_and_gradient(x)
        start = (x.ctypes.data - x.base.ctypes.data) // x.strides[0]
        g = g.copy()
        g[max(reveal_from - start, 0):, -1] = 1.0
        return value, g

    monkeypatch.setattr(noise, "FAN_OUT_FLOOR", 0)
    monkeypatch.setattr("tailclip.suites.chain_value_and_gradient", revealing)
    pts = _chain_test_points(d, n, np.random.default_rng(4))
    offending = [i for i in range(reveal_from, n) if prog(pts[i], 0.5) + 1 < d]
    assert offending[0] < 2 * 819 and offending[-1] >= 2 * 819
    v = {v.criterion: v
         for v in chain_suite(d, n, np.random.default_rng(4), workers=workers).verdicts}
    assert not v["chain_zero_chain"].passed
    assert v["chain_zero_chain"].observed == f"excess {d - prog(pts[offending[0]], 0.5)}"


def whole_array_chain_verdicts(d, n, rng):
    """chain_suite's (criterion, observed, passed) triples with every per-point
    figure taken on all n points at once, drawing from ``rng`` as chain_suite does."""
    pts = _chain_test_points(d, n, rng)
    grads = chain_gradient_raw(pts)
    grad_inf = np.max(np.abs(grads), axis=1)
    values = chain_value_raw(pts)
    best = float(np.min(values))
    x_best, restarts = pts[[np.argmin(values)]], rng.uniform(-2.0, 2.0, size=(20, d))
    for x, steps in ((x_best, 300), (restarts, 150)):
        for _ in range(steps):
            x -= 0.05 * chain_gradient_raw(x)
    best = min(best, float(chain_value_raw(x_best)[0]), float(np.min(chain_value_raw(restarts))))
    gap = chain_value_raw(np.zeros(d)) - best
    unfinished = np.abs(pts[:, -1]) <= 1.0
    gnorms = np.sqrt(np.sum(grads * grads, axis=1))
    min_unfinished = float(gnorms[unfinished].min()) if np.any(unfinished) else math.inf
    excess = prog(grads, 0.0) - prog(pts, 0.5)
    offending = excess[excess > 1]
    h = 1e-3
    xs = pts[rng.integers(0, n, size=2000)]
    dirs = rng.standard_normal((2000, d))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    max_curv = float(np.max(np.abs(chain_value_raw(xs + h * dirs) - 2.0 * chain_value_raw(xs)
                                   + chain_value_raw(xs - h * dirs)) / h**2))
    hfd = 1e-5
    xs = pts[rng.integers(0, n, size=100)]
    shifts = hfd * np.eye(d)
    plus = chain_value_raw((xs[:, None] + shifts).reshape(-1, d))
    minus = chain_value_raw((xs[:, None] - shifts).reshape(-1, d))
    fds = ((plus - minus) / (2.0 * hfd)).reshape(-1, d)
    max_rel = max(float(np.linalg.norm(fd - g) / max(np.linalg.norm(g), 1e-8))
                  for fd, g in zip(fds, chain_gradient_raw(xs)))
    return [
        ("chain_value_gap", f"{gap:.4g}", gap <= 12.0 * d),
        ("chain_grad_bound", f"{float(grad_inf.max()):.4g}", bool(grad_inf.max() <= 23.0 + 1e-9)),
        ("chain_grad_floor", f"{min_unfinished:.6g}", min_unfinished >= 1.0 - 1e-9),
        ("chain_zero_chain", "ok" if offending.size == 0 else f"excess {offending[0]}",
         offending.size == 0),
        ("chain_smoothness", f"{max_curv:.4g}", max_curv <= 152.0 * 1.01),
        ("chain_gradient_fd", f"max rel err {max_rel:.3g}", max_rel <= 1e-4),
    ]


@pytest.mark.parametrize("n", [1, 819, 4001, 12345])
def test_chain_suite_matches_whole_array_reference(n):
    # at d = 20 a block is 819 rows: one short block, one exact, several with a remainder
    got = [(v.criterion, v.observed, v.passed)
           for v in chain_suite(20, n, np.random.default_rng(n)).verdicts]
    assert got == whole_array_chain_verdicts(20, n, np.random.default_rng(n))


@pytest.mark.parametrize("n", [819, 4001])
def test_chain_suite_on_two_workers_matches_whole_array_reference(n, monkeypatch):
    # the per-point pass fans out, a job per block, folded in row order
    monkeypatch.setattr(noise, "FAN_OUT_FLOOR", 0)
    got = [(v.criterion, v.observed, v.passed)
           for v in chain_suite(20, n, np.random.default_rng(n), workers=2).verdicts]
    assert got == whole_array_chain_verdicts(20, n, np.random.default_rng(n))


def stacked_chain_test_points(d, n, rng):
    """The chain suite's test points, each group drawn whole and stacked."""
    n_wide, n_norm = n * 2 // 5, n // 5
    n_prog = n - n_wide - n_norm
    wide = rng.uniform(-3.0, 3.0, size=(n_wide, d))
    norm = rng.standard_normal((n_norm, d))
    progress = rng.uniform(-0.45, 0.45, size=(n_prog, d))
    levels = rng.integers(0, d + 1, size=n_prog)
    amps = rng.uniform(0.6, 2.5, size=(n_prog, d))
    signs = np.where(rng.random((n_prog, d)) < 0.5, -1.0, 1.0)
    mask = np.arange(d)[None, :] < levels[:, None]
    return np.vstack([wide, norm, np.where(mask, amps * signs, progress)])


@pytest.mark.parametrize("d", [1, 5, 20, 50])
@pytest.mark.parametrize("n", [1, 3, 819, 4001])
def test_chain_points_equal_the_stacked_groups(d, n):
    # one preallocated array filled a row block at a time: the same draws
    # in the same order, and the stream left where the stacked draws leave it
    a, b = np.random.default_rng(n + d), np.random.default_rng(n + d)
    got = _chain_test_points(d, n, a)
    assert got.tobytes() == stacked_chain_test_points(d, n, b).tobytes()
    assert a.bit_generator.state == b.bit_generator.state


def test_chain_suite_peak_memory_below_two_and_a_half_point_arrays():
    # measured 2.32x with the points drawn into one array (2.87x when the
    # groups were drawn apart and stacked)
    d, n = 20, 20_000
    chain_suite(d, 100, np.random.default_rng(1))  # numpy's one-time allocations
    tracemalloc.start()
    try:
        chain_suite(d, n, np.random.default_rng(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * n * d * 8, f"traced peak {peak / (n * d * 8):.2f}x the points array"
