import math

import numpy as np
import pytest

from tailclip.errors import ConfigurationError
from tailclip.problems import (
    ChainInstance,
    chain_gradient_raw,
    chain_phi,
    chain_phi_prime,
    chain_psi,
    chain_psi_prime,
    chain_value_raw,
    prog,
)
from tailclip.suites import chain_suite


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
    with pytest.raises(ConfigurationError):
        ChainInstance(d=0, p=0.5)
    with pytest.raises(ConfigurationError):
        ChainInstance(d=3, p=0.0)
    with pytest.raises(ConfigurationError):
        ChainInstance(d=3, p=1.5)


def test_chain_suite_small():
    res = chain_suite(8, 4000, np.random.default_rng(5), curvature_points=500)
    for v in res.verdicts:
        assert v.passed, v.line()
