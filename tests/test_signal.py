"""Tests for the Gaussian model, sampling, log transform and signal CSV."""

import math

import numpy as np
import pytest

from gaussfit import (
    GaussianParams,
    InvalidClampError,
    InvalidGridError,
    InvalidParamsError,
    InvalidWidthError,
    LogPolyCoeffs,
    NoiseSpec,
    ParseError,
    SampledSignal,
    coeffs_from_params,
    default_clamp_floor,
    eval_gaussian,
    log_transform,
    params_from_coeffs,
    read_signal_csv,
    sample_gaussian,
    write_signal_csv,
)

# standard protocol grid: x in [0, 10] sampled every 0.01
GRID_DX = 0.01
GRID_N = 1001

LONG_TAIL = GaussianParams(amplitude=1.0, mu=9.0, sigma=1.3)


def test_eval_peak_equals_amplitude():
    assert eval_gaussian(LONG_TAIL, 9.0) == 1.0


def test_eval_one_sigma_offset():
    assert eval_gaussian(LONG_TAIL, 10.3) == pytest.approx(math.exp(-0.5), rel=1e-12)


def test_eval_far_tail():
    # direct evaluation of the model formula as the oracle
    expected = math.exp(-(0.0 - 9.0) ** 2 / (2.0 * 1.3**2))
    assert expected == pytest.approx(3.91157e-11, rel=1e-4)
    assert eval_gaussian(LONG_TAIL, 0.0) == pytest.approx(expected, rel=1e-12)


def test_eval_symmetric_about_mu():
    rngs = np.random.default_rng(5)
    for t in rngs.uniform(0, 6, size=50):
        left = eval_gaussian(LONG_TAIL, 9.0 - t)
        right = eval_gaussian(LONG_TAIL, 9.0 + t)
        assert left == pytest.approx(right, rel=1e-12)


def test_params_validation():
    with pytest.raises(InvalidParamsError):
        GaussianParams(0.0, 1.0, 1.0)
    with pytest.raises(InvalidParamsError):
        GaussianParams(1.0, math.inf, 1.0)
    with pytest.raises(InvalidParamsError):
        GaussianParams(1.0, 0.0, -2.0)


def test_coeffs_unit_case():
    c = coeffs_from_params(GaussianParams(1.0, 0.0, 1.0))
    assert (c.a, c.b, c.c) == (0.0, 0.0, -0.5)


def test_coeffs_long_tail_case():
    c = coeffs_from_params(LONG_TAIL)
    # algebra done independently: c = -1/(2*1.69), b = 9/1.69, a = -81/(2*1.69)
    assert c.c == pytest.approx(-1.0 / 3.38, rel=1e-12)
    assert c.b == pytest.approx(9.0 / 1.69, rel=1e-12)
    assert c.a == pytest.approx(-81.0 / 3.38, rel=1e-12)
    assert c.b == pytest.approx(5.32544, rel=1e-5)
    assert c.a == pytest.approx(-23.9645, rel=1e-5)


def test_params_from_coeffs_unit_case():
    p = params_from_coeffs(LogPolyCoeffs(0.0, 0.0, -0.5))
    assert (p.amplitude, p.mu, p.sigma) == (1.0, 0.0, 1.0)


def test_round_trip_both_ways():
    # ranges keep |a| = |ln A - mu^2/(2 sigma^2)| moderate; the subtraction
    # inside the map caps the achievable round-trip accuracy
    rngs = np.random.default_rng(11)
    for _ in range(200):
        p = GaussianParams(
            amplitude=float(rngs.uniform(0.01, 50.0)),
            mu=float(rngs.uniform(-10.0, 10.0)),
            sigma=float(rngs.uniform(0.3, 10.0)),
        )
        q = params_from_coeffs(coeffs_from_params(p))
        assert q.amplitude == pytest.approx(p.amplitude, rel=1e-12)
        assert q.mu == pytest.approx(p.mu, rel=1e-12, abs=1e-12)
        assert q.sigma == pytest.approx(p.sigma, rel=1e-12)
        c = LogPolyCoeffs(
            float(rngs.uniform(-5, 5)), float(rngs.uniform(-5, 5)),
            float(rngs.uniform(-3, -0.1)),
        )
        c2 = coeffs_from_params(params_from_coeffs(c))
        assert c2.a == pytest.approx(c.a, rel=1e-12, abs=1e-12)
        assert c2.b == pytest.approx(c.b, rel=1e-12, abs=1e-12)
        assert c2.c == pytest.approx(c.c, rel=1e-12)


def test_nonnegative_curvature_rejected():
    with pytest.raises(InvalidWidthError):
        params_from_coeffs(LogPolyCoeffs(0.0, 1.0, 0.1))
    with pytest.raises(InvalidWidthError):
        params_from_coeffs(LogPolyCoeffs(0.0, 1.0, 0.0))


def test_sample_noiseless_grid_values():
    sig = sample_gaussian(LONG_TAIL, GRID_DX, GRID_N)
    assert sig.samples[900] == 1.0
    assert sig.samples[0] == pytest.approx(3.91157e-11, rel=1e-4)
    assert sig.noise_power is None
    assert sig.x0 == 0.0


def test_sample_grid_validation():
    with pytest.raises(InvalidGridError):
        sample_gaussian(LONG_TAIL, 0.0, 100)
    with pytest.raises(InvalidGridError):
        sample_gaussian(LONG_TAIL, 0.01, 2)
    with pytest.raises(InvalidGridError):
        SampledSignal(delta_x=0.01, samples=[1.0, 2.0])
    with pytest.raises(InvalidGridError):
        SampledSignal(delta_x=0.01, samples=[1.0, 2.0, math.nan])


def test_sample_noise_deterministic():
    spec = NoiseSpec(snr_db=12.0, seed=99)
    a = sample_gaussian(LONG_TAIL, GRID_DX, GRID_N, spec)
    b = sample_gaussian(LONG_TAIL, GRID_DX, GRID_N, spec)
    assert np.array_equal(a.samples, b.samples)
    c = sample_gaussian(LONG_TAIL, GRID_DX, GRID_N, NoiseSpec(12.0, 100))
    assert not np.array_equal(a.samples, c.samples)
    assert a.noise_power == pytest.approx(10 ** (-1.2), rel=1e-12)


def test_sample_noise_is_zero_mean():
    """Monte Carlo: mean of y - f over 1e6 draws at 0 dB, within 4 SE."""
    n = 1_000_000
    sig = sample_gaussian(LONG_TAIL, GRID_DX, n, NoiseSpec(snr_db=0.0, seed=31))
    clean = eval_gaussian(LONG_TAIL, sig.grid)
    resid = sig.samples - clean
    se = 1.0 / math.sqrt(n)  # noise std is 1 at 0 dB with unit amplitude
    assert abs(resid.mean()) < 4 * se


def test_log_transform_matches_quadratic_exactly():
    sig = sample_gaussian(LONG_TAIL, GRID_DX, GRID_N)
    floor = 1e-12  # below the smallest noiseless sample
    logs = log_transform(sig, floor)
    c = coeffs_from_params(LONG_TAIL)
    x = sig.grid
    poly = c.a + c.b * x + c.c * x * x
    assert np.max(np.abs(logs - poly)) < 1e-12


def test_log_transform_clamps_zero_and_negative():
    sig = SampledSignal(delta_x=1.0, samples=[0.0, -0.3, 2.0])
    logs = log_transform(sig, 1e-4)
    assert logs[0] == math.log(1e-4)
    assert logs[1] == math.log(1e-4)
    assert logs[2] == math.log(2.0)


def test_log_transform_rejects_bad_floor():
    sig = SampledSignal(delta_x=1.0, samples=[1.0, 2.0, 3.0])
    for bad in (0.0, -1.0, math.nan):
        with pytest.raises(InvalidClampError):
            log_transform(sig, bad)


def test_default_clamp_floor_policy():
    sig = SampledSignal(delta_x=1.0, samples=[0.5, 4.0, 1.0])
    assert default_clamp_floor(sig) == pytest.approx(4e-6, rel=1e-12)
    flat = SampledSignal(delta_x=1.0, samples=[0.0, -1.0, -2.0])
    with pytest.raises(InvalidClampError):
        default_clamp_floor(flat)


def test_signal_csv_round_trip(tmp_path):
    sig = sample_gaussian(LONG_TAIL, GRID_DX, 50, NoiseSpec(6.0, 3))
    path = tmp_path / "sig.csv"
    write_signal_csv(sig, path)
    back = read_signal_csv(path)
    assert np.array_equal(back.samples, sig.samples)
    assert back.delta_x == pytest.approx(sig.delta_x, rel=1e-12)
    assert back.x0 == sig.x0


def test_signal_csv_preserves_origin(tmp_path):
    sig = SampledSignal(delta_x=0.5, samples=[1.0, 2.0, 1.5], x0=-3.0)
    path = tmp_path / "sig.csv"
    write_signal_csv(sig, path)
    back = read_signal_csv(path)
    assert back.x0 == -3.0


def test_signal_csv_errors(tmp_path):
    path = tmp_path / "bad.csv"

    path.write_text("a,b\n1,2\n2,3\n3,4\n")
    with pytest.raises(ParseError) as err:
        read_signal_csv(path)
    assert err.value.line == 1

    path.write_text("x,y\n0,1\n1,2\n")
    with pytest.raises(ParseError):
        read_signal_csv(path)

    path.write_text("x,y\n0,1\n1,2\n2.5,3\n")
    with pytest.raises(ParseError) as err:
        read_signal_csv(path)
    assert err.value.line == 4

    path.write_text("x,y\n0,1\n1,oops\n2,3\n")
    with pytest.raises(ParseError) as err:
        read_signal_csv(path)
    assert err.value.line == 3

    # a blank line before the bad row: the error names the file line
    path.write_text("x,y\n0,1\n\n1,2\n2,3\n3.5,4\n")
    with pytest.raises(ParseError) as err:
        read_signal_csv(path)
    assert err.value.line == 6

    path.write_text("x,y\n\n1,1\n\n0,2\n1,3\n")
    with pytest.raises(ParseError, match="strictly increasing") as err:
        read_signal_csv(path)
    assert err.value.line == 5

    # a short row and a long row must not pair up into two columns
    path.write_text("x,y\n0,1\n1\n2,3,4\n3,4\n")
    with pytest.raises(ParseError, match="expected 2 columns, got 1") as err:
        read_signal_csv(path)
    assert err.value.line == 3

    path.write_text("x,y\n0,1\n1,2\n2,nan\n")
    with pytest.raises(ParseError, match="non-finite row") as err:
        read_signal_csv(path)
    assert err.value.line == 4


def test_signal_csv_cells_parse_like_float(tmp_path):
    """Cells convert as ``float`` converts them: underscores, non-ASCII
    digits and surrounding blanks are accepted; the samples come back as
    one contiguous array."""
    path = tmp_path / "sig.csv"
    path.write_text("X, Y \n0, 1_0\n1,٢\n2 ,3.5\n")
    sig = read_signal_csv(path)
    assert sig.samples.tolist() == [10.0, 2.0, 3.5]
    assert sig.samples.flags.c_contiguous
    assert (sig.x0, sig.delta_x) == (0.0, 1.0)
    path.write_text("x,y\n0,1\n1,2\n2.5,3\n")
    with pytest.raises(ParseError, match=r"step 1\.5 vs delta_x 1\.0"):
        read_signal_csv(path)
