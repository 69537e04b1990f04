"""Tests for the peak pickers, split-area width estimators and the
error-function lookup table."""

import math

import numpy as np
import pytest
import scipy.integrate
import scipy.special

from gaussfit import (
    DegenerateAreaError,
    DegenerateRhoError,
    ErfTable,
    GaussFitError,
    GaussianParams,
    InitConfig,
    InvalidAmplitudeError,
    InvalidGridError,
    InvalidWindowError,
    NoPeakError,
    NoiseSpec,
    ParseError,
    SampledSignal,
    SignalBlock,
    build_erf_table,
    combine_sigma,
    m3_initial_fit,
    naive_peak,
    partial_areas,
    read_erf_table_csv,
    refine_amplitude,
    rho_from_samples,
    sample_gaussian,
    sigma_area_m1,
    sigma_from_area,
    windowed_peak,
    write_erf_table_csv,
)

# standard protocol grid: x in [0, 10] sampled every 0.01
GRID_DX = 0.01
GRID_N = 1001

LONG_TAIL = GaussianParams(1.0, 9.0, 1.3)
SQ2PI = math.sqrt(2.0 * math.pi)


def _noiseless(params=LONG_TAIL):
    return sample_gaussian(params, GRID_DX, GRID_N)


def _one(signal):
    """``signal`` as a block of one row, the form every stage takes."""
    return SignalBlock.of(signal)


def _sigma_from_area(area, half_width, amplitude, table):
    """``(sigma, k_star)`` of a single side."""
    sigma, k_star = sigma_from_area(np.array([area]), np.array([half_width]),
                                    np.array([amplitude]), table)
    return float(sigma[0]), float(k_star[0])


# ---------------------------------------------------------------- peaks


def test_naive_peak_noiseless():
    peak, = naive_peak(_one(_noiseless()))
    assert peak.n_hat == 900
    assert peak.amplitude_hat == 1.0
    assert peak.mu_hat == pytest.approx(9.0, abs=1e-12)


def test_naive_peak_tie_breaks_low():
    sig = SampledSignal(delta_x=1.0, samples=[0.0, 0.0, 0.0, 0.0, 0.0, 3.0, 1.0, 3.0])
    assert naive_peak(_one(sig))[0].n_hat == 5


def test_naive_peak_requires_positive_sample():
    for samples in ([-1.0, -0.5, -2.0], [0.0, 0.0, 0.0]):
        peak, = naive_peak(_one(SampledSignal(delta_x=1.0, samples=samples)))
        assert isinstance(peak, NoPeakError)


def test_windowed_peak_noiseless():
    peak, = windowed_peak(_one(_noiseless()), 3)
    assert peak.mu_hat == pytest.approx(9.0, abs=1e-12)
    assert peak.amplitude_hat == 1.0


def test_windowed_peak_unit_window_degenerates_to_naive():
    sig = sample_gaussian(LONG_TAIL, GRID_DX, 400, NoiseSpec(10.0, 4))
    np_est, = naive_peak(_one(sig))
    w_est, = windowed_peak(_one(sig), 1)
    assert (w_est.n_hat, w_est.mu_hat, w_est.amplitude_hat) == (
        np_est.n_hat, np_est.mu_hat, np_est.amplitude_hat)


def test_windowed_peak_window_bounds():
    block = _one(_noiseless())
    with pytest.raises(InvalidWindowError):
        windowed_peak(block, GRID_N)
    with pytest.raises(InvalidWindowError):
        windowed_peak(block, 0)


# ------------------------------------------------------ full-sum width


def test_sigma_area_m1_complete_sampling():
    sig = _noiseless(GaussianParams(1.0, 5.0, 1.0))
    assert sigma_area_m1(_one(sig), [1.0])[0] == pytest.approx(1.0, rel=0.01)


def test_sigma_area_m1_long_tail_underestimates():
    """Cut the bell off mid-tail and the full-sum width comes out near
    1.013 although the true width is 1.3; finer spacing cannot fix it."""
    sig = _noiseless()
    est, = sigma_area_m1(_one(sig), [1.0])
    brute = sum(float(v) for v in sig.samples) * GRID_DX / SQ2PI
    assert est == pytest.approx(brute, rel=1e-12)
    assert abs(est - 1.013) < 0.005
    # closed form of the truncated integral, as a cross-check
    closed = (SQ2PI * 1.3 / 2.0) * (
        scipy.special.erf(9.0 / (1.3 * math.sqrt(2)))
        + scipy.special.erf(1.01 / (1.3 * math.sqrt(2)))
    ) / SQ2PI
    assert est == pytest.approx(closed, abs=0.005)


def test_sigma_area_m1_rejects_bad_amplitude():
    block = _one(_noiseless())
    with pytest.raises(InvalidAmplitudeError):
        sigma_area_m1(block, [0.0])
    with pytest.raises(InvalidAmplitudeError):
        sigma_area_m1(block, [-2.0])


# --------------------------------------------------------- split areas


def test_partial_areas_long_tail_values():
    sig = _noiseless()
    areas, = partial_areas(_one(sig), [900])
    brute_beta = sum(float(v) for v in sig.samples[:900]) * GRID_DX
    brute_alpha = sum(float(v) for v in sig.samples[900:]) * GRID_DX
    assert areas.s_beta == pytest.approx(brute_beta, rel=1e-12)
    assert areas.s_alpha == pytest.approx(brute_alpha, rel=1e-12)
    # closed forms of the underlying half integrals
    closed_beta = (SQ2PI * 1.3 / 2.0) * scipy.special.erf(9.0 / (1.3 * math.sqrt(2)))
    closed_alpha = (SQ2PI * 1.3 / 2.0) * scipy.special.erf(1.01 / (1.3 * math.sqrt(2)))
    assert areas.s_beta == pytest.approx(closed_beta, abs=0.01)
    assert areas.s_alpha == pytest.approx(closed_alpha, abs=0.01)


def test_partial_areas_empty_left_side():
    sig = _noiseless()
    areas, = partial_areas(_one(sig), [0])
    assert areas.s_beta == 0.0
    assert areas.s_alpha == pytest.approx(GRID_DX * float(np.sum(sig.samples)), rel=1e-12)


def test_partial_areas_partition_identity():
    rngs = np.random.default_rng(23)
    for _ in range(50):
        n = int(rngs.integers(3, 300))
        sig = SampledSignal(delta_x=float(rngs.uniform(0.01, 1.0)),
                            samples=rngs.normal(0.0, 2.0, n))
        split = int(rngs.integers(0, n))
        areas, = partial_areas(_one(sig), [split])
        total = sig.delta_x * float(np.sum(sig.samples))
        assert areas.s_beta + areas.s_alpha == pytest.approx(total, rel=1e-12, abs=1e-12)


def test_partial_areas_index_bounds():
    with pytest.raises(InvalidGridError):
        partial_areas(_one(_noiseless()), [GRID_N])


# ----------------------------------------------------------- erf table


def test_erf_table_matches_quadrature_oracle(erf_table):
    """Independent oracle: scipy's adaptive quadrature per entry."""
    idx = np.arange(0, 991, 37)  # spot-check a spread of entries
    for j in idx:
        z = float(erf_table.k[j]) / math.sqrt(2.0)
        val, _ = scipy.integrate.quad(lambda t: math.exp(-t * t), 0.0, z)
        val *= 2.0 / math.sqrt(math.pi)
        assert abs(float(erf_table.values[j]) - min(val, 1.0)) < 1e-9


def test_erf_table_against_library_erf(erf_table):
    exact = np.minimum(scipy.special.erf(erf_table.k / math.sqrt(2.0)), 1.0)
    assert float(np.max(np.abs(erf_table.values - exact))) < 1e-9


def test_erf_table_first_entry_small_positive(erf_table):
    assert erf_table.values[0] == pytest.approx(0.0797, abs=2e-4)
    assert erf_table.values[0] > 0


def test_erf_table_classic_value():
    single = build_erf_table(math.sqrt(2.0), 0.01, 1)
    assert float(single.values[0]) == pytest.approx(0.8427008, abs=1e-6)


def test_erf_table_monotone(erf_table):
    diffs = np.diff(erf_table.values)
    assert np.all(diffs >= 0)
    # strictly increasing until double precision saturates the tail
    unsaturated = erf_table.values < 1.0 - 1e-12
    assert np.all(diffs[unsaturated[:-1]] > 0)
    assert np.all(erf_table.values > 0)
    assert np.all(erf_table.values <= 1.0)


def test_erf_table_grid_validation():
    with pytest.raises(InvalidGridError):
        build_erf_table(-0.1, 0.01, 10)
    with pytest.raises(InvalidGridError):
        build_erf_table(0.1, 0.0, 10)
    with pytest.raises(InvalidGridError):
        build_erf_table(0.1, 0.01, 0)
    with pytest.raises(InvalidGridError):
        ErfTable(k=np.array([0.2, 0.1]), values=np.array([0.1, 0.2]))


def test_erf_table_csv_round_trip_is_bit_exact(tmp_path, erf_table):
    path = tmp_path / "erf.csv"
    write_erf_table_csv(erf_table, path)
    back = read_erf_table_csv(path)
    assert np.array_equal(back.k, erf_table.k)
    assert np.array_equal(back.values, erf_table.values)


def test_erf_table_csv_errors(tmp_path):
    path = tmp_path / "erf.csv"
    path.write_text("K,ERF_K_OVER_SQRT2\n0.1,0.0797\n")  # header case is ignored
    assert read_erf_table_csv(path).k_count == 1
    cases = [
        ("k,erf\n0.1,0.0797\n", 1),                       # bad header
        ("k,erf_k_over_sqrt2\n0.1,0.0797\n0.2,0.15,9\n", 3),  # three columns
        ("k,erf_k_over_sqrt2\n0.1,oops\n", 2),             # non-numeric
        ("k,erf_k_over_sqrt2\n0.1,0.0797\n\ninf,1.0\n", 4),  # non-finite
    ]
    for text, line in cases:
        path.write_text(text)
        with pytest.raises(ParseError) as err:
            read_erf_table_csv(path)
        assert err.value.line == line, text


# ----------------------------------------------------- width from area


def test_sigma_from_area_left_side_case(erf_table):
    sigma, k_star = _sigma_from_area(1.6293, 9.0, 1.0, erf_table)
    assert k_star == pytest.approx(6.92, abs=1e-9)
    assert sigma == pytest.approx(9.0 / 6.92, rel=1e-9)
    assert sigma == pytest.approx(1.3006, abs=5e-4)


def test_sigma_from_area_scan_is_global(erf_table):
    """Re-scan the objective by brute force; the search must agree."""
    area, half_w, amp = 0.9182668901670858, 1.01, 1.0
    sigma, k_star = _sigma_from_area(area, half_w, amp, erf_table)
    best = None
    for kj, vj in zip(erf_table.k, erf_table.values):
        pred = SQ2PI * amp * half_w / (2.0 * float(kj)) * float(vj)
        obj = (area - pred) ** 2
        if best is None or obj < best[0]:
            best = (obj, float(kj))
    assert k_star == best[1]
    assert sigma == half_w / best[1]


def test_sigma_from_area_saturated_regime(erf_table):
    # true k = half_width / sigma = 8: the erf factor is already 1 there,
    # so the estimate reduces to 2 S / (sqrt(2 pi) A) within grid rounding
    sigma_true = 1.0
    area = SQ2PI * sigma_true / 2.0
    sigma, k_star = _sigma_from_area(area, 8.0, 1.0, erf_table)
    assert sigma == pytest.approx(2.0 * area / SQ2PI, abs=2e-3)


def test_sigma_from_area_degenerate_inputs(erf_table):
    with pytest.raises(DegenerateAreaError):
        _sigma_from_area(0.0, 9.0, 1.0, erf_table)
    with pytest.raises(DegenerateAreaError):
        _sigma_from_area(-1.0, 9.0, 1.0, erf_table)
    with pytest.raises(DegenerateAreaError):
        _sigma_from_area(1.0, 0.0, 1.0, erf_table)
    with pytest.raises(InvalidAmplitudeError):
        _sigma_from_area(1.0, 9.0, 0.0, erf_table)


# ------------------------------------------------- combination weight


def test_rho_symmetric_complete_sampling():
    sig = _noiseless(GaussianParams(1.0, 5.0, 1.0))
    assert rho_from_samples(_one(sig), [5.0])[0] == pytest.approx(0.5, abs=1e-3)


def test_rho_long_tail_prefers_left_side():
    sig = _noiseless()
    rho, = rho_from_samples(_one(sig), [9.0])
    assert 0.0 < rho < 0.5
    # brute-force recomputation with plain Python sums
    num = den = 0.0
    for n, y in enumerate(sig.samples):
        lever = float(y) ** 2 * (9.0 - 0.01 * n) ** 4
        den += lever
        if n >= 900:
            num += lever
    assert rho == pytest.approx(num / den, rel=1e-9)


def test_rho_zero_signal_degenerate():
    rho, = rho_from_samples(_one(SampledSignal(delta_x=1.0, samples=[0.0, 0.0, 0.0])), [1.0])
    assert isinstance(rho, DegenerateRhoError)


def test_rho_always_clipped():
    rngs = np.random.default_rng(41)
    for _ in range(50):
        n = int(rngs.integers(3, 200))
        sig = SampledSignal(delta_x=0.1, samples=rngs.normal(0, 1, n))
        rho, = rho_from_samples(_one(sig), [float(rngs.uniform(-5, 25))])
        if isinstance(rho, DegenerateRhoError):
            continue
        assert 0.0 <= rho <= 1.0


def test_combine_sigma_endpoints_and_fixed_point():
    assert combine_sigma(2.0, 3.0, 0.0) == 3.0
    assert combine_sigma(2.0, 3.0, 1.0) == 2.0
    assert combine_sigma(1.7, 1.7, 0.42) == pytest.approx(1.7, rel=1e-15)
    with pytest.raises(DegenerateRhoError):
        combine_sigma(2.0, 3.0, 1.5)
    with pytest.raises(GaussFitError):
        combine_sigma(-1.0, 3.0, 0.5)


# --------------------------------------------------- amplitude refine


def test_refine_amplitude_exact_for_true_template():
    sig = _noiseless()
    assert refine_amplitude(_one(sig), [9.0], [1.3])[0] == pytest.approx(1.0, rel=1e-12)


def test_refine_amplitude_linear_in_samples():
    sig = _noiseless()
    doubled = SampledSignal(delta_x=GRID_DX, samples=2.0 * sig.samples)
    one, = refine_amplitude(_one(sig), [9.0], [1.25])
    two, = refine_amplitude(_one(doubled), [9.0], [1.25])
    assert two == pytest.approx(2.0 * one, rel=1e-12)


def test_refine_amplitude_matches_scalar_minimizer():
    """Independent oracle: golden-section search on the residual."""
    sig = sample_gaussian(LONG_TAIL, GRID_DX, GRID_N, NoiseSpec(10.0, 63))
    mu_hat, sigma_hat = 8.97, 1.21
    a_direct, = refine_amplitude(_one(sig), [mu_hat], [sigma_hat])

    x = sig.grid
    g = np.exp(-((x - mu_hat) ** 2) / (2.0 * sigma_hat**2))

    def objective(a):
        return float(np.sum((a * g - sig.samples) ** 2))

    lo, hi = 0.0, 10.0
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    c = hi - phi * (hi - lo)
    d = lo + phi * (hi - lo)
    for _ in range(200):
        if objective(c) < objective(d):
            hi, d = d, c
            c = hi - phi * (hi - lo)
        else:
            lo, c = c, d
            d = lo + phi * (hi - lo)
    a_golden = 0.5 * (lo + hi)
    assert a_direct == pytest.approx(a_golden, rel=1e-6)


def test_refine_amplitude_local_optimality():
    sig = sample_gaussian(LONG_TAIL, GRID_DX, GRID_N, NoiseSpec(14.0, 2))
    a_star, = refine_amplitude(_one(sig), [9.0], [1.3])
    x = sig.grid
    g = np.exp(-((x - 9.0) ** 2) / (2.0 * 1.3**2))

    def objective(a):
        return float(np.sum((a * g - sig.samples) ** 2))

    base = objective(a_star)
    assert objective(a_star * (1 + 1e-3)) >= base
    assert objective(a_star * (1 - 1e-3)) >= base


def test_refine_amplitude_rejects_bad_width():
    amplitude, = refine_amplitude(_one(_noiseless()), [9.0], [0.0])
    assert isinstance(amplitude, GaussFitError)


# ------------------------------------------------------- full pipeline


def test_m3_noiseless_long_tail(erf_table):
    fit = m3_initial_fit(_noiseless(), InitConfig(), erf_table)
    assert fit.status == "converged"
    assert abs(fit.params.mu - 9.0) <= GRID_DX
    assert fit.params.sigma == pytest.approx(1.3, rel=0.005)
    assert fit.params.amplitude == pytest.approx(1.0, rel=1e-3)
    for key in ("s_beta", "s_alpha", "k_star_beta", "k_star_alpha", "rho"):
        assert key in fit.diagnostics


def test_m3_scale_equivariance(erf_table):
    base = _noiseless()
    fit1 = m3_initial_fit(base, InitConfig(), erf_table)
    for kappa in (0.25, 40.0):
        scaled = SampledSignal(delta_x=GRID_DX, samples=kappa * base.samples)
        fitk = m3_initial_fit(scaled, InitConfig(), erf_table)
        assert fitk.params.mu == fit1.params.mu
        assert fitk.params.sigma == pytest.approx(fit1.params.sigma, rel=1e-12)
        assert fitk.params.amplitude == pytest.approx(
            kappa * fit1.params.amplitude, rel=1e-12)


def test_m3_arbitrary_origin(erf_table):
    base = _noiseless()
    fit0 = m3_initial_fit(base, InitConfig(), erf_table)
    moved = SampledSignal(delta_x=GRID_DX, samples=base.samples, x0=4.0)
    fitx = m3_initial_fit(moved, InitConfig(), erf_table)
    assert fitx.params.mu == pytest.approx(fit0.params.mu + 4.0, abs=1e-9)
    assert fitx.params.sigma == fit0.params.sigma
    assert fitx.params.amplitude == pytest.approx(fit0.params.amplitude, rel=1e-12)


def test_m3_peak_on_edge_falls_back_one_sided(erf_table):
    """Peak in the very first samples leaves no left-side area; the width
    must come from the right side alone with the fallback flagged."""
    ramp = GaussianParams(1.0, 0.0, 1.0)
    sig = sample_gaussian(ramp, GRID_DX, 500)
    fit = m3_initial_fit(sig, InitConfig(window_l=1), erf_table)
    assert fit.status == "degenerate-fallback"
    assert fit.diagnostics["fallback"] == "alpha-only"
    assert fit.diagnostics["rho"] == 1.0
    assert fit.params.sigma == pytest.approx(1.0, rel=0.02)


def test_m3_all_noise_never_crashes(erf_table):
    rngs = np.random.default_rng(8)
    outcomes = {"ok": 0, "typed": 0}
    for _ in range(100):
        sig = SampledSignal(delta_x=0.01, samples=rngs.normal(0.0, 1.0, 200))
        try:
            fit = m3_initial_fit(sig, InitConfig(), erf_table)
            assert fit.params.sigma > 0
            outcomes["ok"] += 1
        except GaussFitError:
            outcomes["typed"] += 1
    assert outcomes["ok"] + outcomes["typed"] == 100
