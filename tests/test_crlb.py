"""Tests for the width-estimation variance bounds."""

import math

import numpy as np
import pytest

from gaussfit import (
    CrlbQuery,
    DegenerateFisherError,
    GaussianParams,
    InvalidGridError,
    NoiseSpec,
    SignalBlock,
    crlb_ratio,
    crlb_sigma,
    optimal_rho_oracle,
    rho_from_samples,
    sample_gaussian,
)

# standard protocol grid: x in [0, 10] sampled every 0.01
GRID_DX = 0.01
GRID_N = 1001

LONG_TAIL = GaussianParams(1.0, 9.0, 1.3)


def _brute_sum(params, dx, n_lo, n_hi):
    """Plain-Python information sum, independent of the implementation."""
    total = 0.0
    for n in range(n_lo, n_hi):
        x = dx * n
        f = params.amplitude * math.exp(-((x - params.mu) ** 2) / (2 * params.sigma**2))
        total += f * f * (params.mu - x) ** 4
    return total


def test_bound_matches_brute_force_summation():
    q = CrlbQuery(LONG_TAIL, GRID_DX, 0, 900, noise_power=1.0)
    expected = 1.0 * LONG_TAIL.sigma**6 / _brute_sum(LONG_TAIL, GRID_DX, 0, 900)
    got = crlb_sigma(q)
    assert got > 0
    assert got == pytest.approx(expected, rel=1e-12)


def test_bound_linear_in_noise_power():
    lo = crlb_sigma(CrlbQuery(LONG_TAIL, GRID_DX, 0, 900, noise_power=0.5))
    hi = crlb_sigma(CrlbQuery(LONG_TAIL, GRID_DX, 0, 900, noise_power=1.0))
    assert hi == pytest.approx(2.0 * lo, rel=1e-12)


def test_bounds_compose_over_index_union():
    """Information is additive, so reciprocals of the bounds add up."""
    full = crlb_sigma(CrlbQuery(LONG_TAIL, GRID_DX, 0, GRID_N, noise_power=2.0))
    beta = crlb_sigma(CrlbQuery(LONG_TAIL, GRID_DX, 0, 900, noise_power=2.0))
    alpha = crlb_sigma(CrlbQuery(LONG_TAIL, GRID_DX, 900, GRID_N, noise_power=2.0))
    assert 1.0 / full == pytest.approx(1.0 / beta + 1.0 / alpha, rel=1e-12)


def test_amplitude_scaling_divides_bound():
    base = crlb_sigma(CrlbQuery(LONG_TAIL, GRID_DX, 0, 900, noise_power=1.0))
    big = GaussianParams(3.0, 9.0, 1.3)
    scaled = crlb_sigma(CrlbQuery(big, GRID_DX, 0, 900, noise_power=1.0))
    assert scaled == pytest.approx(base / 9.0, rel=1e-12)


def test_ratio_equals_bound_quotient():
    rngs = np.random.default_rng(29)
    for _ in range(100):
        params = GaussianParams(
            float(rngs.uniform(0.5, 2.0)),
            float(rngs.uniform(2.0, 8.0)),
            float(rngs.uniform(0.5, 2.0)),
        )
        n_total = int(rngs.integers(200, 1200))
        n_hat = int(rngs.integers(50, n_total - 50))
        for noise_power in (0.3, 1.0, 4.2):
            beta = crlb_sigma(CrlbQuery(params, GRID_DX, 0, n_hat, noise_power))
            alpha = crlb_sigma(CrlbQuery(params, GRID_DX, n_hat, n_total, noise_power))
            ratio = crlb_ratio(params, GRID_DX, n_hat, n_total)
            assert ratio == pytest.approx(beta / alpha, rel=1e-12)


def test_ratio_symmetric_case_is_one():
    symmetric = GaussianParams(1.0, 5.0, 1.0)
    # grid [0, 10] with the peak exactly on sample 500
    ratio = crlb_ratio(symmetric, GRID_DX, 500, GRID_N)
    # the right side also contains the zero-information peak sample, so the
    # split is one sample short of an exact mirror
    assert ratio == pytest.approx(1.0, abs=1e-9)


def test_ratio_long_tail_below_one():
    assert crlb_ratio(LONG_TAIL, GRID_DX, 900, GRID_N) < 1.0


def test_optimal_rho_symmetric_is_half():
    symmetric = GaussianParams(1.0, 5.0, 1.0)
    rho = optimal_rho_oracle(symmetric, GRID_DX, 500, GRID_N)
    assert rho == pytest.approx(0.5, abs=1e-3)


def test_optimal_rho_strictly_interior():
    # splits near the peak so both sides carry information representable
    # in double precision (a split many sigma out rounds rho to 0 or 1)
    rngs = np.random.default_rng(31)
    for _ in range(50):
        params = GaussianParams(
            float(rngs.uniform(0.5, 2.0)),
            float(rngs.uniform(2.0, 8.0)),
            float(rngs.uniform(0.5, 2.0)),
        )
        n_total = GRID_N
        offset = float(rngs.uniform(-params.sigma, params.sigma))
        n_hat = int(round((params.mu + offset) / GRID_DX))
        n_hat = min(max(n_hat, 1), n_total - 1)
        rho = optimal_rho_oracle(params, GRID_DX, n_hat, n_total)
        assert 0.0 < rho < 1.0


def test_optimal_rho_attains_full_range_bound():
    """Plugging the optimal weight into the combined-variance expression
    must land exactly on the all-samples bound."""
    rngs = np.random.default_rng(37)
    for _ in range(100):
        params = GaussianParams(
            float(rngs.uniform(0.5, 2.0)),
            float(rngs.uniform(2.0, 8.0)),
            float(rngs.uniform(0.5, 2.0)),
        )
        n_total = int(rngs.integers(200, 1200))
        n_hat = int(rngs.integers(50, n_total - 50))
        noise_power = float(rngs.uniform(0.1, 5.0))
        beta = crlb_sigma(CrlbQuery(params, GRID_DX, 0, n_hat, noise_power))
        alpha = crlb_sigma(CrlbQuery(params, GRID_DX, n_hat, n_total, noise_power))
        full = crlb_sigma(CrlbQuery(params, GRID_DX, 0, n_total, noise_power))
        rho = optimal_rho_oracle(params, GRID_DX, n_hat, n_total)
        combined = rho**2 * alpha + (1.0 - rho) ** 2 * beta
        assert combined == pytest.approx(full, rel=1e-10)


def test_optimal_rho_minimizes_over_dense_sweep():
    params = GaussianParams(1.0, 8.5, 1.2)
    n_hat, n_total = 850, GRID_N
    beta = crlb_sigma(CrlbQuery(params, GRID_DX, 0, n_hat, 1.0))
    alpha = crlb_sigma(CrlbQuery(params, GRID_DX, n_hat, n_total, 1.0))
    rho_star = optimal_rho_oracle(params, GRID_DX, n_hat, n_total)
    star = rho_star**2 * alpha + (1 - rho_star) ** 2 * beta
    for rho in np.linspace(0.0, 1.0, 2001):
        assert star <= rho**2 * alpha + (1 - rho) ** 2 * beta + 1e-15


def test_rho_estimate_approaches_oracle_with_snr():
    """The sample-based weight converges to the oracle as noise vanishes;
    the squared-sample bias decays with the noise power."""
    means = {}
    for snr_db in (40.0, 60.0, 80.0):
        diffs = []
        for t in range(200):
            seed = 100_000 + t
            u = np.random.default_rng(seed).uniform(size=2)
            truth = GaussianParams(1.0, 8.0 + float(u[0]), 1.0 + 0.3 * float(u[1]))
            sig = sample_gaussian(truth, GRID_DX, GRID_N, NoiseSpec(snr_db, seed))
            n_hat = int(round(truth.mu / GRID_DX))
            mu_grid = n_hat * GRID_DX
            rho_hat, = rho_from_samples(SignalBlock.of(sig), [mu_grid])
            rho_star = optimal_rho_oracle(truth, GRID_DX, n_hat, GRID_N)
            diffs.append(abs(rho_hat - rho_star))
        means[snr_db] = float(np.mean(diffs))
    assert means[60.0] < means[40.0]
    assert means[60.0] < 0.01
    assert means[80.0] < 0.01


def test_degenerate_ranges_raise():
    with pytest.raises(InvalidGridError):
        crlb_ratio(LONG_TAIL, GRID_DX, 0, GRID_N)
    with pytest.raises(InvalidGridError):
        optimal_rho_oracle(LONG_TAIL, GRID_DX, GRID_N, GRID_N)
    far = GaussianParams(1.0, 1000.0, 0.01)  # no information anywhere on the grid
    with pytest.raises(DegenerateFisherError):
        crlb_sigma(CrlbQuery(far, GRID_DX, 0, 10, noise_power=1.0))
