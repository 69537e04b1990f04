"""Tests for the M1..M5 pipeline dispatch."""

import numpy as np
import pytest

from gaussfit import (
    GaussFitError,
    GaussianParams,
    InvalidParamsError,
    InvalidWindowError,
    NoiseSpec,
    NoPeakError,
    SampledSignal,
    UnknownMethodError,
    eval_gaussian,
    run_method,
    sample_gaussian,
    stage_one,
    start_weights,
    wls_trace,
)
from gaussfit.methods import MethodSpec
from gaussfit.results import DEGENERATE_FALLBACK

# standard protocol grid: x in [0, 10] sampled every 0.01
GRID_DX = 0.01
GRID_N = 1001

NEAR_COMPLETE = GaussianParams(1.0, 6.0, 1.3)
LONG_TAIL = GaussianParams(1.0, 9.0, 1.3)


def _iterate_from(init, sig, iters):
    """Trace started from the Gaussian of ``init``: the M2/M4 stage 2."""
    return wls_trace(sig, eval_gaussian(init, sig.grid), iters)


def test_every_method_recovers_near_complete_noiseless(erf_table):
    """With the bell nearly inside the window all five pipelines land
    within 1 percent of the truth (the full-sum width of M1 keeps a small
    truncation bias, well under its 5 percent book value here)."""
    sig = sample_gaussian(NEAR_COMPLETE, GRID_DX, GRID_N)
    for mid in ("M1", "M2", "M3", "M4", "M5"):
        fit = run_method(MethodSpec(mid), sig, erf_table)
        assert fit.method == mid
        assert fit.params.amplitude == pytest.approx(1.0, rel=0.01), mid
        assert fit.params.mu == pytest.approx(6.0, rel=0.01), mid
        assert fit.params.sigma == pytest.approx(1.3, rel=0.01), mid
    m1_sigma = run_method(MethodSpec("M1"), sig, erf_table).params.sigma
    assert m1_sigma == pytest.approx(1.3, rel=0.05)


def test_unknown_method_rejected():
    with pytest.raises(UnknownMethodError):
        MethodSpec("M9")


def test_iteration_count_preconditions():
    with pytest.raises(GaussFitError):
        MethodSpec("M2", stage2_iters=0)
    with pytest.raises(GaussFitError):
        MethodSpec("M5", m5_iters=0)


def test_run_method_deterministic(erf_table):
    sig = sample_gaussian(LONG_TAIL, GRID_DX, GRID_N, NoiseSpec(12.0, 5150))
    for mid in ("M1", "M2", "M3", "M4", "M5"):
        a = run_method(MethodSpec(mid), sig, erf_table)
        b = run_method(MethodSpec(mid), sig, erf_table)
        assert a.params == b.params, mid
        assert a.status == b.status, mid


def test_two_stage_exact_from_true_init():
    sig = sample_gaussian(LONG_TAIL, GRID_DX, GRID_N)
    trace = _iterate_from(LONG_TAIL, sig, 1)
    fit = trace[-1]
    assert len(trace) == 1
    assert fit.params.amplitude == pytest.approx(1.0, rel=1e-6)
    assert fit.params.mu == pytest.approx(9.0, rel=1e-6)
    assert fit.params.sigma == pytest.approx(1.3, rel=1e-6)


def test_two_stage_init_amplitude_scale_invariant():
    """Scaling the starting weights uniformly cannot move the solution."""
    sig = sample_gaussian(LONG_TAIL, GRID_DX, GRID_N, NoiseSpec(16.0, 21))
    base = _iterate_from(GaussianParams(1.0, 8.9, 1.2), sig, 2)[-1]
    scaled = _iterate_from(GaussianParams(7.25, 8.9, 1.2), sig, 2)[-1]
    assert scaled.coeffs.a == pytest.approx(base.coeffs.a, rel=1e-12)
    assert scaled.coeffs.b == pytest.approx(base.coeffs.b, rel=1e-12)
    assert scaled.coeffs.c == pytest.approx(base.coeffs.c, rel=1e-12)


def test_two_stage_zero_iterations_rejected(erf_table):
    sig = sample_gaussian(LONG_TAIL, GRID_DX, GRID_N)
    spec = MethodSpec("M2")
    w0, _, _ = start_weights(spec, sig, stage_one(spec, sig, erf_table))
    with pytest.raises(GaussFitError):
        wls_trace(sig, w0, 0)


def test_m2_m4_match_manual_two_stage(erf_table):
    """The dispatcher is exactly stage-1 init plus the shared solver."""
    sig = sample_gaussian(LONG_TAIL, GRID_DX, GRID_N, NoiseSpec(12.0, 7777))
    from gaussfit import SignalBlock, m3_initial_fit, naive_peak, sigma_area_m1
    from gaussfit.initfit import InitConfig

    m4 = run_method(MethodSpec("M4"), sig, erf_table)
    init = m3_initial_fit(sig, InitConfig(), erf_table).params
    manual = _iterate_from(init, sig, 2)[-1]
    assert m4.params == manual.params

    m2 = run_method(MethodSpec("M2"), sig, erf_table)
    block = SignalBlock.of(sig)
    peak, = naive_peak(block)
    m1_params = GaussianParams(
        peak.amplitude_hat, peak.mu_hat, sigma_area_m1(block, [peak.amplitude_hat])[0])
    manual2 = _iterate_from(m1_params, sig, 2)[-1]
    assert m2.params == manual2.params


def test_stage1_failure_falls_back_to_sample_weights(erf_table):
    """A stage-1 width estimate <= 0 (sample sum dominated by negative
    noise) must not kill M2: it restarts from the clamped samples and
    flags the fallback.  Output is then bit-identical to M5 at the same
    iteration count."""
    x = GRID_DX * np.arange(401)
    bell = np.exp(-((x - 2.0) ** 2) / (2.0 * 0.25**2))
    y = np.where(np.abs(x - 2.0) <= 0.75, bell, -0.8)
    sig = SampledSignal(delta_x=GRID_DX, samples=y)
    assert float(np.sum(y)) < 0  # guarantees the M1 width estimate fails

    m2 = run_method(MethodSpec("M2", stage2_iters=2), sig, erf_table)
    assert m2.status == DEGENERATE_FALLBACK
    assert "stage1_error" in m2.diagnostics

    floor = float(np.max(y)) * 1e-6
    from gaussfit import log_transform

    w0 = np.exp(log_transform(sig, floor))
    direct = wls_trace(sig, w0, 2)[-1]
    assert m2.params == direct.params

    spec = MethodSpec("M2")
    start, status, diagnostics = start_weights(spec, sig, stage_one(spec, sig, erf_table))
    assert status == DEGENERATE_FALLBACK
    assert diagnostics == m2.diagnostics
    assert np.array_equal(start, w0)


def test_two_stage_weights_match_init_gaussian():
    sig = sample_gaussian(LONG_TAIL, GRID_DX, 200, NoiseSpec(20.0, 77))
    init = GaussianParams(2.0, 1.5, 0.7)
    w = eval_gaussian(init, sig.grid)
    assert w[150] == pytest.approx(2.0, rel=1e-12)  # peak weight is the init height
    assert np.all(w > 0)


def test_methods_mini_fuzz(erf_table):
    """Short random signals: typed errors or finite results, never a crash."""
    rngs = np.random.default_rng(99)
    ok = typed = 0
    for _ in range(200):
        n = int(rngs.integers(3, 30))
        scale = 10.0 ** rngs.integers(-3, 3)
        y = rngs.normal(0.0, scale, n)
        kind = rngs.integers(0, 4)
        if kind == 1:
            y = -np.abs(y)
        elif kind == 2:
            y = np.zeros(n)
        elif kind == 3:
            y = np.abs(y)
        sig = SampledSignal(delta_x=float(rngs.uniform(0.01, 1.0)), samples=y)
        for mid in ("M1", "M2", "M3", "M4", "M5"):
            try:
                fit = run_method(MethodSpec(mid, stage2_iters=2, m5_iters=3), sig,
                                 erf_table)
                assert np.isfinite(fit.params.amplitude)
                assert np.isfinite(fit.params.mu)
                assert np.isfinite(fit.params.sigma)
                ok += 1
            except GaussFitError:
                typed += 1
    assert ok > 0 and typed > 0


def test_stage_one_errors_carry_stage_labels(erf_table):
    """M1 and M3 errors name the stage that failed: no positive sample, a
    sample sum too negative for a width, a window longer than the signal."""
    cases = [
        ("M1", [-1.0, -0.5, -2.0, -0.25], NoPeakError, "naive_peak"),
        ("M3", [-1.0, -0.5, -2.0, -0.25], NoPeakError, "windowed_peak"),
        ("M1", [-3.0, 1.0, -3.0, -1.0], InvalidParamsError, "sigma_area_m1"),
        ("M3", [0.5, 1.0, 0.5], InvalidWindowError, "windowed_peak"),
    ]
    for mid, samples, error, stage in cases:
        sig = SampledSignal(delta_x=0.1, samples=samples)
        with pytest.raises(error) as err:
            run_method(MethodSpec(mid), sig, erf_table)
        assert err.value.stage == stage, (mid, samples)
    # M4 falls back to the samples and reports why stage 1 failed
    short = SampledSignal(delta_x=0.1, samples=[0.5, 1.0, 0.5])
    m4 = run_method(MethodSpec("M4"), short, erf_table)
    assert "[stage: windowed_peak]" in m4.diagnostics["stage1_error"]
