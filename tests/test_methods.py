"""Tests for the M1..M5 pipeline dispatch."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gaussfit import (
    GaussFitError,
    GaussianParams,
    InvalidAmplitudeError,
    InvalidClampError,
    InvalidParamsError,
    InvalidWindowError,
    NoiseSpec,
    NoPeakError,
    SampledSignal,
    SignalBlock,
    UnknownMethodError,
    build_erf_table,
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
    with pytest.raises(UnknownMethodError, match=r"'M9'; valid: M1, M2, M3, M4, M5$"):
        MethodSpec("M9")


@pytest.mark.parametrize("floor", [0.0, -1.0, float("nan"), float("inf")])
def test_clamp_floor_is_checked_at_construction(floor):
    for mid in ("M1", "M2", "M3", "M4", "M5"):
        with pytest.raises(InvalidClampError, match="clamp floor must be finite and > 0"):
            MethodSpec(mid, clamp_floor=floor)
        assert MethodSpec(mid, clamp_floor=1e-300).clamp_floor == 1e-300


def test_iteration_count_preconditions():
    assert [MethodSpec(mid).iters for mid in ("M2", "M4", "M5")] == [2, 2, 12]
    assert MethodSpec("M4", iters=3).iters == 3
    # M1 and M3 do not iterate, but a count below 1 is refused for them too
    for mid in ("M1", "M2", "M3", "M4", "M5"):
        with pytest.raises(GaussFitError, match=r"^iters must be >= 1, got 0$"):
            MethodSpec(mid, iters=0)
    with pytest.raises(InvalidWindowError, match="window_l must be >= 1, got 0"):
        MethodSpec("M3", window_l=0)


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
    stage1, = stage_one(spec, SignalBlock.of(sig), erf_table)
    w0, _, _ = start_weights(spec, sig, stage1)
    with pytest.raises(GaussFitError):
        wls_trace(sig, w0, 0)


def test_m2_m4_match_manual_two_stage(erf_table):
    """The dispatcher is exactly stage-1 init plus the shared solver."""
    sig = sample_gaussian(LONG_TAIL, GRID_DX, GRID_N, NoiseSpec(12.0, 7777))
    from gaussfit import m3_initial_fit, naive_peak, sigma_area_m1

    m4 = run_method(MethodSpec("M4"), sig, erf_table)
    init = m3_initial_fit(sig, 3, erf_table).params
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

    m2 = run_method(MethodSpec("M2", iters=2), sig, erf_table)
    assert m2.status == DEGENERATE_FALLBACK
    assert "stage1_error" in m2.diagnostics

    floor = float(np.max(y)) * 1e-6
    from gaussfit import log_transform

    w0 = np.exp(log_transform(sig, floor))
    direct = wls_trace(sig, w0, 2)[-1]
    assert m2.params == direct.params

    spec = MethodSpec("M2")
    stage1, = stage_one(spec, SignalBlock.of(sig), erf_table)
    start, status, diagnostics = start_weights(spec, sig, stage1)
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
                fit = run_method(MethodSpec(mid, iters=3 if mid == "M5" else 2), sig,
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


_TABLE = build_erf_table(0.1, 0.01, 991)  # module level: hypothesis runs many examples


@st.composite
def _scaled_signals(draw, k_max):
    """A noisy bell on a random grid, a window length and ``k`` of ``2**k``
    in ``[-k_max, k_max]``, where scaling the samples by ``2**k`` is exact."""
    n = draw(st.integers(20, 1500))
    dx = 10.0 ** draw(st.floats(-3.0, 0.0))
    x0 = draw(st.floats(-100.0, 100.0))
    amplitude = 10.0 ** draw(st.floats(-3.0, 3.0))
    snr_db = draw(st.floats(0.0, 40.0))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    center = draw(st.floats(-0.2, 1.2)) * (n - 1)
    width = draw(st.floats(0.05, 0.5)) * n
    clean = amplitude * np.exp(-0.5 * ((np.arange(n) - center) / width) ** 2)
    y = clean + amplitude * 10.0 ** (-snr_db / 20.0) * gen.standard_normal(n)
    k = draw(st.integers(-k_max, k_max))
    assume((np.ldexp(y * 2.0**k, -k) == y).all())
    return (SampledSignal(dx, y, x0), draw(st.integers(1, 11)), k)


def _outcome(spec, sig):
    try:
        return run_method(spec, sig, _TABLE)
    except GaussFitError as err:
        return err


@pytest.mark.parametrize("mid", ["M1", "M3"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_m1_m3_amplitude_equivariant_under_powers_of_two(mid, data):
    """Scaling the samples by ``2**k`` scales every sum, area, ratio and
    template product of M1 and M3 exactly, so the fit scales exactly: the
    amplitude and the split areas by ``2**k``, everything else unchanged;
    or both raise the same error class at the same stage.  M4 then starts
    from the scaled M3 fit, not from the samples."""
    sig, window_l, k = data.draw(_scaled_signals(1000))
    scale = 2.0**k
    spec = MethodSpec(mid, window_l=window_l)
    base = _outcome(spec, sig)
    moved = SampledSignal(sig.delta_x, sig.samples * scale, sig.x0)
    scaled = _outcome(spec, moved)
    if isinstance(base, GaussFitError):
        assert (type(scaled), scaled.stage) == (type(base), base.stage)
        return
    assert not isinstance(scaled, GaussFitError), scaled
    assert scaled.params == GaussianParams(base.params.amplitude * scale, base.params.mu,
                                           base.params.sigma)
    assert scaled.status == base.status
    want = {key: value * scale if key in ("s_beta", "s_alpha") else value
            for key, value in base.diagnostics.items()}
    assert list(scaled.diagnostics.items()) == list(want.items())
    if mid == "M3":
        m4 = _outcome(MethodSpec("M4", window_l=window_l), moved)
        if isinstance(m4, GaussFitError):
            assert m4.stage == "wls_trace"
        else:
            assert (m4.status, m4.diagnostics) == (scaled.status, scaled.diagnostics)


@pytest.mark.parametrize("k", [-1020, -1000, 1000, 1017, 1020])
def test_m1_fits_the_standard_bell_at_any_peak(k):
    """M1 sums each row scaled by a power of two, so its full sum does not
    overflow near the top of the float range (it did from k = 1017): the
    width is the unit-peak width bit for bit, and the amplitude scales."""
    unit = sample_gaussian(LONG_TAIL, GRID_DX, GRID_N)
    moved = SampledSignal(unit.delta_x, unit.samples * 2.0**k, unit.x0)
    base = run_method(MethodSpec("M1"), unit, _TABLE)
    fit = run_method(MethodSpec("M1"), moved, _TABLE)
    assert fit.params.sigma == base.params.sigma
    assert fit.params.amplitude == base.params.amplitude * 2.0**k
    assert fit.params.mu == base.params.mu


def test_m3_amplitude_beyond_the_float_range_is_a_typed_error():
    """M3 fits a row scaled by a power of two; an amplitude that overflows
    when scaled back is a typed error of the amplitude stage."""
    sig = SampledSignal(1.0, [1.0, 1.79e308, 1.79e308, 1.79e308, 1.0])
    with pytest.raises(InvalidAmplitudeError, match="overflows") as err:
        run_method(MethodSpec("M3"), sig, _TABLE)
    assert err.value.stage == "refine_amplitude"


def _protocol_signals():
    """The 120 standard-protocol trial signals of master seed 7 at 12 and
    at 30 dB, as signals of their own."""
    from gaussfit.bench import BenchConfig, _trial_blocks

    config = BenchConfig(trials=120, master_seed=7)
    return [SampledSignal(block.delta_x, block.samples[i], block.x0)
            for snr_db in (12.0, 30.0)
            for block, _, _ in _trial_blocks(config, 0, snr_db)
            for i in range(len(block))]


def _gap(base, moved, mu):
    """The largest relative gap between ``moved`` and ``base`` in A and
    sigma, and between ``moved``'s mu and ``mu``; two errors of one class
    have none."""
    if isinstance(base, GaussFitError) or isinstance(moved, GaussFitError):
        return 0.0 if type(base) is type(moved) else np.inf
    a, b = base.params, moved.params
    return max(abs(b.amplitude / a.amplitude - 1.0), abs(b.sigma / a.sigma - 1.0),
               abs(b.mu - mu) / abs(mu))


# Ten times the largest gaps measured on these signals, or more.  M3 and M4
# are not mirror invariant: the split puts the peak sample into s_alpha,
# so reversing the samples moves it into s_beta.
_SHIFT_RTOL = {"M1": 2e-13, "M2": 4e-9, "M3": 2e-13, "M4": 4e-9, "M5": 4e-9}
_MIRROR_RTOL = {"M1": 5e-15, "M2": 1e-10, "M5": 2e-11}


@pytest.mark.parametrize("mid", ["M1", "M2", "M3", "M4", "M5"])
def test_fits_move_with_the_grid(mid):
    """Moving the grid to start at x0 moves mu by x0, and reversing the
    samples on the grid mirrored about 0 negates mu; A and sigma stay, up
    to the rounding the moved grid brings.  Errors stay the same class."""
    spec = MethodSpec(mid)
    for sig in _protocol_signals():
        base = _outcome(spec, sig)
        mu = base.params.mu if not isinstance(base, GaussFitError) else 1.0
        for x0 in (-100.0, 0.37, 1000.0):
            moved = _outcome(spec, SampledSignal(sig.delta_x, sig.samples, x0))
            assert _gap(base, moved, mu + x0) <= _SHIFT_RTOL[mid], (x0, base, moved)
        if mid in _MIRROR_RTOL:
            mirrored = SampledSignal(sig.delta_x, sig.samples[::-1].copy(), -sig.grid[-1])
            moved = _outcome(spec, mirrored)
            assert _gap(base, moved, -mu) <= _MIRROR_RTOL[mid], (base, moved)
