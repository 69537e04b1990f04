"""Tests for the weighted linear fit and the reweighting iteration."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaussfit import (
    GaussFitError,
    GaussianParams,
    InvalidWidthError,
    LogPolyCoeffs,
    NoiseSpec,
    SampledSignal,
    ShapeError,
    SignalBlock,
    SingularSystemError,
    coeffs_from_params,
    default_clamp_floor,
    eval_gaussian,
    log_transform,
    params_from_coeffs,
    run_method,
    sample_gaussian,
    weighted_ls_solve,
    weights_from_params,
    wls_trace,
    wls_traces,
)
from gaussfit.methods import MethodSpec

# standard protocol grid: x in [0, 10] sampled every 0.01
GRID_DX = 0.01
GRID_N = 1001

LONG_TAIL = GaussianParams(1.0, 9.0, 1.3)
TINY_FLOOR = 1e-12  # below every noiseless long-tail sample: clamp inactive


def _noiseless():
    return sample_gaussian(LONG_TAIL, GRID_DX, GRID_N)


def test_unit_weights_recover_noiseless_coeffs():
    sig = _noiseless()
    got = weighted_ls_solve(sig, np.ones(GRID_N), TINY_FLOOR)
    want = coeffs_from_params(LONG_TAIL)
    assert got.a == pytest.approx(want.a, rel=1e-6)
    assert got.b == pytest.approx(want.b, rel=1e-6)
    assert got.c == pytest.approx(want.c, rel=1e-6)


def test_constant_weight_scaling_changes_nothing():
    sig = _noiseless()
    base = weighted_ls_solve(sig, np.ones(GRID_N), TINY_FLOOR)
    for kappa in (0.125, 3.0, 1e6):
        scaled = weighted_ls_solve(sig, np.full(GRID_N, kappa), TINY_FLOOR)
        assert scaled.a == pytest.approx(base.a, rel=1e-12)
        assert scaled.b == pytest.approx(base.b, rel=1e-12)
        assert scaled.c == pytest.approx(base.c, rel=1e-12)


def test_two_positive_weights_is_singular():
    sig = _noiseless()
    w = np.zeros(GRID_N)
    w[100] = 1.0
    w[900] = 1.0
    with pytest.raises(SingularSystemError):
        weighted_ls_solve(sig, w, TINY_FLOOR)


def test_ls_fit_noiseless_near_complete_case():
    # mu=6 leaves every sample above the default clamp floor
    truth = GaussianParams(1.0, 6.0, 1.3)
    fit = wls_trace(sample_gaussian(truth, GRID_DX, GRID_N), np.ones(GRID_N), 1)[-1]
    assert fit.params.amplitude == pytest.approx(1.0, rel=1e-6)
    assert fit.params.mu == pytest.approx(6.0, rel=1e-6)
    assert fit.params.sigma == pytest.approx(1.3, rel=1e-6)


def test_ls_fit_unit_weights_equivalence():
    clean = sample_gaussian(LONG_TAIL, GRID_DX, GRID_N).samples
    bumps = 1.0 + 0.05 * np.sin(np.arange(GRID_N))  # positive, keeps LS sane
    sig = SampledSignal(delta_x=GRID_DX, samples=clean * bumps)
    fit = wls_trace(sig, np.ones(GRID_N), 1, TINY_FLOOR)[-1]
    direct = weighted_ls_solve(sig, np.ones(GRID_N), TINY_FLOOR)
    assert fit.coeffs == direct


def test_ls_degenerates_on_noisy_long_tail_while_m5_survives():
    """At 12 dB the clamped tail drives the unit-weight fit to an upward
    quadratic, so plain LS yields no width estimate at all while the
    reweighted iteration keeps working; where LS does produce one, it is
    worse than the 12-iteration result."""
    trials = 2000
    ls_sq = []
    m5_sq = []
    ls_failed = 0
    for t in range(trials):
        mu = 8.0 + (t % 100) / 99.0
        truth = GaussianParams(1.0, mu, 1.0 + 0.3 * ((t * 7) % 100) / 99.0)
        sig = sample_gaussian(truth, GRID_DX, GRID_N, NoiseSpec(12.0, 50_000 + t))
        try:
            params = params_from_coeffs(weighted_ls_solve(sig, np.ones(GRID_N)))
            ls_sq.append((params.sigma - truth.sigma) ** 2)
        except (InvalidWidthError, SingularSystemError):
            ls_failed += 1
        floor = float(np.max(sig.samples)) * 1e-6
        try:
            fit5 = wls_trace(sig, np.exp(log_transform(sig, floor)), 12)[-1]
        except GaussFitError:
            continue
        if fit5.params is not None:
            m5_sq.append((fit5.params.sigma - truth.sigma) ** 2)
    assert len(m5_sq) > trials * 0.9
    mse_m5 = float(np.mean(m5_sq))
    mse_ls = float(np.mean(ls_sq)) if ls_sq else math.inf
    assert ls_failed > trials * 0.9
    assert mse_ls > mse_m5


def test_weights_from_params_match_model_values():
    coeffs = coeffs_from_params(LONG_TAIL)
    x = _noiseless().grid
    w = weights_from_params(coeffs, x)
    assert np.array_equal(w, np.exp(coeffs.a + coeffs.b * x + coeffs.c * x * x))
    assert w[900] == pytest.approx(1.0, rel=1e-12)
    direct = eval_gaussian(LONG_TAIL, x)
    assert np.max(np.abs(w - direct)) < 1e-12


def test_weights_shift_in_a_scales_all():
    coeffs = coeffs_from_params(LONG_TAIL)
    x = np.linspace(0.0, 10.0, 101)
    base = weights_from_params(coeffs, x)
    from gaussfit import LogPolyCoeffs

    shifted = weights_from_params(
        LogPolyCoeffs(coeffs.a + math.log(2.5), coeffs.b, coeffs.c), x
    )
    assert np.allclose(shifted, 2.5 * base, rtol=1e-12)


def test_wls_one_iteration_exact_on_noiseless():
    sig = _noiseless()
    rngs = np.random.default_rng(3)
    w0 = rngs.uniform(0.1, 5.0, GRID_N)
    trace = wls_trace(sig, w0, 1, TINY_FLOOR)
    fit = trace[-1]
    assert len(trace) == 1
    assert fit.params.amplitude == pytest.approx(1.0, rel=1e-6)
    assert fit.params.mu == pytest.approx(9.0, rel=1e-6)
    assert fit.params.sigma == pytest.approx(1.3, rel=1e-6)


def test_wls_noiseless_trace_is_fixed_point():
    sig = _noiseless()
    trace = wls_trace(sig, np.ones(GRID_N), 5, TINY_FLOOR)
    first = trace[0].coeffs
    for step in trace[1:]:
        assert step.coeffs.a == pytest.approx(first.a, rel=1e-9)
        assert step.coeffs.b == pytest.approx(first.b, rel=1e-9)
        assert step.coeffs.c == pytest.approx(first.c, rel=1e-9)


def test_wls_trace_length_and_determinism():
    sig = sample_gaussian(LONG_TAIL, GRID_DX, GRID_N, NoiseSpec(12.0, 77))
    trace_a = wls_trace(sig, np.exp(log_transform(sig, 1e-6)), 12)
    trace_b = wls_trace(sig, np.exp(log_transform(sig, 1e-6)), 12)
    fit_a, fit_b = trace_a[-1], trace_b[-1]
    assert len(trace_a) == 12
    assert fit_a.params == fit_b.params
    assert all(sa.coeffs == sb.coeffs for sa, sb in zip(trace_a, trace_b))


def test_wls_zero_iterations_rejected():
    sig = _noiseless()
    with pytest.raises(GaussFitError):
        wls_trace(sig, np.ones(GRID_N), 0)


def test_wls_singular_carries_iteration_index():
    sig = _noiseless()
    w = np.zeros(GRID_N)
    w[3] = 1.0
    with pytest.raises(SingularSystemError) as err:
        wls_trace(sig, w, 2)
    assert err.value.iteration == 0
    assert err.value.stage == "wls_trace"


def test_scale_equivariance_of_coefficients():
    base = _noiseless()
    coeff0 = weighted_ls_solve(base, np.ones(GRID_N), 1e-30)
    for kappa in (0.5, 2.0, 7.5):
        scaled = SampledSignal(delta_x=GRID_DX, samples=kappa * base.samples)
        coeffk = weighted_ls_solve(scaled, np.ones(GRID_N), 1e-30)
        assert coeffk.a - coeff0.a == pytest.approx(math.log(kappa), abs=1e-9)
        assert coeffk.b == pytest.approx(coeff0.b, abs=1e-9)
        assert coeffk.c == pytest.approx(coeff0.c, abs=1e-9)


def test_arbitrary_origin_shifts_location_only():
    """Re-declaring the same samples on a shifted abscissa must shift the
    fitted location by exactly that offset and touch nothing else."""
    base = _noiseless()
    fit0 = wls_trace(base, np.ones(GRID_N), 1, TINY_FLOOR)[-1]
    for x0 in (5.0, -2.5, 1000.0):
        moved = SampledSignal(delta_x=GRID_DX, samples=base.samples, x0=x0)
        fitx = wls_trace(moved, np.ones(GRID_N), 1, TINY_FLOOR)[-1]
        assert fitx.params.mu - fit0.params.mu == pytest.approx(x0, abs=1e-7)
        assert fitx.params.sigma == pytest.approx(fit0.params.sigma, rel=1e-9)
        assert fitx.params.amplitude == pytest.approx(fit0.params.amplitude, rel=1e-7)


def test_normal_equation_gradient_vanishes():
    """The solution must zero the weighted residual gradient."""
    rngs = np.random.default_rng(17)
    for _ in range(25):
        n = int(rngs.integers(20, 200))
        dx = float(rngs.uniform(0.01, 0.5))
        sig = SampledSignal(delta_x=dx, samples=np.exp(rngs.normal(0.0, 1.0, n)))
        w = rngs.uniform(0.1, 2.0, n)
        coeffs = weighted_ls_solve(sig, w, 1e-30)
        x = sig.grid
        resid = np.log(sig.samples) - (coeffs.a + coeffs.b * x + coeffs.c * x * x)
        u = (w / w.max()) ** 2
        scale = float(np.sum(u)) * max(1.0, float(np.max(np.abs(resid))))
        for j in range(3):
            g = float(np.sum(u * resid * x**j))
            assert abs(g) <= 1e-8 * scale * max(1.0, float(np.max(x)) ** j)


def test_wls_m5_initialization_matches_method_dispatch(erf_table):
    """Seeding with the clamped samples and iterating 12 times is the M5
    pipeline; the dispatcher must produce bit-identical output."""
    sig = sample_gaussian(LONG_TAIL, GRID_DX, GRID_N, NoiseSpec(12.0, 123))
    floor = float(np.max(sig.samples)) * 1e-6
    w0 = np.exp(log_transform(sig, floor))
    fit = wls_trace(sig, w0, 12)[-1]
    via_dispatch = run_method(MethodSpec("M5", m5_iters=12), sig, erf_table)
    assert via_dispatch.params == fit.params


def test_wls_trace_exposes_recovery():
    """A mid-iteration upward quadratic is recorded with params=None and
    the iteration continues instead of giving up."""
    found = False
    for seed in range(40):
        sig = sample_gaussian(LONG_TAIL, GRID_DX, GRID_N, NoiseSpec(12.0, 9000 + seed))
        floor = float(np.max(sig.samples)) * 1e-6
        try:
            trace = wls_trace(sig, np.exp(log_transform(sig, floor)), 12)
        except GaussFitError:
            continue
        bad = [s for s in trace if s.params is None]
        if bad and trace[-1].params is not None:
            found = True
            break
    assert found, "expected at least one recovering trace in 40 noisy trials"

def _plain_solve3(mat, rhs):
    """Gaussian elimination with partial pivoting on lists, loop form."""
    a = [row[:] for row in mat]
    b = rhs[:]
    tol = 100.0 * np.finfo(np.float64).eps * max(abs(v) for row in a for v in row)
    if not math.isfinite(tol) or tol == 0.0:
        raise SingularSystemError("normal matrix is zero or non-finite")
    for col in range(3):
        p = max(range(col, 3), key=lambda r: abs(a[r][col]))
        if abs(a[p][col]) <= tol:
            raise SingularSystemError("pivot below tolerance")
        if p != col:
            a[col], a[p] = a[p], a[col]
            b[col], b[p] = b[p], b[col]
        for r in range(col + 1, 3):
            m = a[r][col] / a[col][col]
            for c in range(col, 3):
                a[r][c] -= m * a[col][c]
            b[r] -= m * b[col]
    out = [0.0, 0.0, 0.0]
    for r in (2, 1, 0):
        s = b[r] - sum(a[r][c] * out[c] for c in range(r + 1, 3))
        out[r] = s / a[r][r]
    return out


def _plain_solve(x, logs, w):
    """One weighted solve in its plain form: five np.sum, three np.dot and
    the list-based elimination, on the grid centered at its midpoint."""
    if np.count_nonzero(w > 0) < 3:
        raise SingularSystemError("fewer than 3 samples carry positive weight")
    wn = w / float(np.max(w))
    mid = 0.5 * (x[0] + x[-1])
    t = x - mid
    u = wn * wn
    ut = u * t
    ut2 = ut * t
    s0, s1, s2 = float(np.sum(u)), float(np.sum(ut)), float(np.sum(ut2))
    s3 = float(np.sum(ut2 * t))
    s4 = float(np.sum(ut2 * t * t))
    r = [float(np.dot(u, logs)), float(np.dot(ut, logs)), float(np.dot(ut2, logs))]
    ac, bc, cc = _plain_solve3([[s0, s1, s2], [s1, s2, s3], [s2, s3, s4]], r)
    return LogPolyCoeffs(ac - bc * mid + cc * mid * mid, bc - 2.0 * cc * mid, cc)


def _plain_trace(sig, w0, num_iters, floor):
    """Coefficients of every iterate and the index of the step that raised
    (None when all ``num_iters`` steps completed)."""
    logs = log_transform(sig, floor)
    x = sig.grid
    w = np.asarray(w0, dtype=np.float64)
    coeffs = []
    for i in range(num_iters):
        try:
            coeffs.append(_plain_solve(x, logs, w))
        except SingularSystemError:
            return coeffs, i
        c = coeffs[-1]
        with np.errstate(over="ignore", under="ignore"):
            w = np.exp(c.a + c.b * x + c.c * x * x)
        w[~np.isfinite(w)] = 0.0
    return coeffs, None


def _m5_start(sig):
    floor = float(np.max(sig.samples)) * 1e-6
    return np.exp(log_transform(sig, floor)), floor


def _assert_trace_equals_plain_oracle(sig, w0, num_iters, floor):
    """Equal coefficients at every iterate and an equal raised iteration
    index; ``w0`` is left as it was.  Returns that index (None: no raise)."""
    kept = np.array(w0, dtype=np.float64)
    want, raised = _plain_trace(sig, kept, num_iters, floor)
    if raised is None:
        got = [step.coeffs for step in wls_trace(sig, w0, num_iters, floor)]
    else:
        with pytest.raises(SingularSystemError) as err:
            wls_trace(sig, w0, num_iters, floor)
        assert err.value.iteration == raised
        got = [step.coeffs for step in err.value.completed]
    # repr tells -0.0 from 0.0 and matches NaN with NaN
    assert [repr((c.a, c.b, c.c)) for c in got] == [repr((c.a, c.b, c.c)) for c in want]
    assert np.array_equal(w0, kept)
    return raised


def test_trace_equals_plain_oracle_bit_for_bit():
    """The fused step keeps every floating-point operation of the plain
    formulation: equal coefficients at every iterate and an equal raised
    iteration index, including the M5 collapse trials of the standard
    protocol (seed 7, 12 dB)."""
    from gaussfit.bench import BenchConfig, _trial_blocks

    base = _noiseless()
    cases = [(base, np.ones(GRID_N), TINY_FLOOR)]
    for snr_db, seed in ((12.0, 77), (0.0, 78)):
        sig = sample_gaussian(LONG_TAIL, GRID_DX, GRID_N, NoiseSpec(snr_db, seed))
        cases.append((sig, *_m5_start(sig)))
    shifted = SampledSignal(delta_x=GRID_DX, samples=cases[1][0].samples, x0=-37.5)
    cases.append((shifted, *_m5_start(shifted)))
    config = BenchConfig(trials=80, master_seed=7)
    collapse = {2: 7, 15: 9, 44: 8, 74: 6}
    signals = [block.row(i) for block, _, _ in _trial_blocks(config, 0, 12.0)
               for i in range(len(block))]
    for trial in collapse:
        sig = signals[trial]
        cases.append((sig, *_m5_start(sig)))

    raised_at = [_assert_trace_equals_plain_oracle(sig, w0, 12, floor)
                 for sig, w0, floor in cases]
    # the 0 dB signal collapses too
    assert raised_at == [None, None, 5, None] + list(collapse.values())


def test_rebuilt_weights_overflowing_to_inf_are_zeroed():
    """Log samples on ``750 - 4 (x-5)^2``, capped at 709, fitted on the
    flanks below 700: the first iterate is that parabola, whose rebuilt
    weights overflow around the peak.  Those are zeroed and the trace runs
    on through all its steps."""
    x = 0.05 * np.arange(201)
    logs = 750.0 - 4.0 * (x - 5.0) ** 2
    sig = SampledSignal(delta_x=0.05, samples=np.exp(np.minimum(logs, 709.0)))
    w0 = (logs < 700.0).astype(np.float64)
    coeffs = wls_trace(sig, w0, 1, 1e-300)[0].coeffs
    with np.errstate(over="ignore"):
        w1 = weights_from_params(coeffs, sig.grid)
    assert np.isinf(w1[37:164]).all() and np.isfinite(np.delete(w1, range(37, 164))).all()
    assert _assert_trace_equals_plain_oracle(sig, w0, 12, 1e-300) is None


def test_rebuilt_weights_with_fewer_than_three_positive_raise():
    """The first iterate underflows at one end and overflows (zeroed) at
    the other, leaving two positive weights: the second step raises."""
    sig = SampledSignal(delta_x=1.0, samples=np.exp([-700.0, -700.0, 700.0, 700.0]))
    assert _assert_trace_equals_plain_oracle(sig, np.ones(4), 3, 1e-300) == 1
    with pytest.raises(SingularSystemError, match="fewer than 3") as err:
        wls_trace(sig, np.ones(4), 3, 1e-300)
    assert len(err.value.completed) == 1


@pytest.mark.parametrize("bad, message", [
    ([np.nan, -1.0], "finite"),
    ([np.inf, -1.0], "finite"),
    ([-np.inf, 1.0], "finite"),
    ([-1.0, 1.0], "non-negative"),
])
def test_weight_validation_order(bad, message):
    """Non-finite weights are reported before negative ones, and a wrong
    shape before either."""
    sig = _noiseless()
    w = np.ones(GRID_N)
    w[[7, 500]] = bad
    def block_entry(s, w):
        entry, = wls_traces(SignalBlock.of(s), [w], 2)
        if isinstance(entry, GaussFitError):
            raise entry

    for entry in (weighted_ls_solve, lambda s, w: wls_trace(s, w, 2), block_entry):
        with pytest.raises(GaussFitError, match=f"weights must be {message}"):
            entry(sig, w)
        with pytest.raises(ShapeError):
            entry(sig, w[1:])


@st.composite
def _traces(draw):
    """A noisy Gaussian on a random grid, sparse weights with zeros, and
    a floor and iteration count.  Half the amplitudes are 1e303 to 1e307,
    where rebuilt weights overflow."""
    n = draw(st.integers(3, 1200))
    dx = draw(st.floats(1e-3, 10.0))
    x0 = draw(st.floats(-1e3, 1e3))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    span = (n - 1) * dx
    mu = x0 + gen.uniform(-0.2, 1.2) * span
    sigma = gen.uniform(0.02, 1.0) * span
    x = x0 + dx * np.arange(n)
    scale = gen.uniform(-300, 307) if gen.random() < 0.5 else gen.uniform(303, 307)
    clean = 10.0 ** scale * np.exp(-0.5 * ((x - mu) / sigma) ** 2)
    peak = clean.max()
    noisy = clean + peak * 10.0 ** gen.uniform(-4, 0) * gen.standard_normal(n)
    sig = SampledSignal(delta_x=dx, samples=noisy, x0=x0)
    density = max(draw(st.floats(0.02, 1.0)), 3.0 / n)
    w0 = gen.uniform(0.0, 3.0, n) * (gen.random(n) < density)
    return sig, w0, draw(st.integers(1, 12)), peak * 10.0 ** gen.uniform(-12, -2)


@settings(max_examples=300, deadline=None)
@given(_traces())
def test_trace_equals_plain_oracle_property(case):
    _assert_trace_equals_plain_oracle(*case)


def _entry_key(entry):
    """A trace or an error in comparable form: every step by ``repr``; an
    error by class, message, iteration and completed steps."""
    if isinstance(entry, GaussFitError):
        completed = getattr(entry, "completed", [])
        return (type(entry), str(entry), entry.iteration, [repr(s) for s in completed])
    return [repr(step) for step in entry]


@st.composite
def _blocks(draw):
    """1-8 noisy Gaussians on one random grid with their starting weights,
    an iteration count and a floor (``None``: each row's default).  A row
    may start from dense, sparse, two or no positive weights, or from bad
    weights (a NaN, a negative entry, a wrong length); some rows have no
    positive sample, and half the amplitudes are 1e303 to 1e307, where
    rebuilt weights overflow."""
    n = draw(st.integers(3, 1200))
    dx = draw(st.floats(1e-3, 10.0))
    x0 = draw(st.floats(-1e3, 1e3))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = x0 + dx * np.arange(n)
    span = (n - 1) * dx
    samples, weights = [], []
    for _ in range(draw(st.integers(1, 8))):
        mu = x0 + gen.uniform(-0.2, 1.2) * span
        sigma = gen.uniform(0.02, 1.0) * span
        scale = gen.uniform(-300, 307) if gen.random() < 0.5 else gen.uniform(303, 307)
        clean = 10.0 ** scale * np.exp(-0.5 * ((x - mu) / sigma) ** 2)
        noisy = clean + clean.max() * 10.0 ** gen.uniform(-4, 0) * gen.standard_normal(n)
        kind = draw(st.sampled_from(["dense", "sparse", "sparse", "two", "zero", "nan",
                                     "negative", "short", "no_peak"]))
        w = gen.uniform(0.0, 3.0, n)
        if kind == "sparse":
            w *= gen.random(n) < max(gen.uniform(0.02, 1.0), 3.0 / n)
        elif kind in ("two", "zero"):
            w[gen.permutation(n)[(2 if kind == "two" else 0):]] = 0.0
        elif kind == "nan":
            w[gen.integers(n)] = np.nan
        elif kind == "negative":
            w[gen.integers(n)] = -1.0
        elif kind == "short":
            w = w[1:]
        elif kind == "no_peak":
            noisy = -np.abs(noisy)
        samples.append(noisy)
        weights.append(w)
    floor = None if draw(st.booleans()) else 10.0 ** gen.uniform(-300, 300)
    block = SignalBlock(delta_x=dx, samples=np.array(samples), x0=x0)
    return block, weights, draw(st.integers(1, 12)), floor


@settings(max_examples=150, deadline=None)
@given(_blocks())
def test_block_rows_equal_rows_alone_and_the_plain_oracle(case):
    """Every row of a block traced at once equals the row traced alone by
    ``repr``, errors included, and the plain formulation; rows that raise
    or start from bad weights do not disturb the others."""
    block, weights, num_iters, floor = case
    kept = [np.array(w) for w in weights]
    entries = wls_traces(block, weights, num_iters, floor)
    assert len(entries) == len(block)
    for i, entry in enumerate(entries):
        sig = SampledSignal(block.delta_x, block.samples[i].copy(), block.x0)
        try:
            alone = wls_trace(sig, weights[i], num_iters, floor)
        except GaussFitError as err:
            alone = err
        assert _entry_key(entry) == _entry_key(alone)
        if isinstance(entry, GaussFitError) and not isinstance(entry, SingularSystemError):
            continue
        plain_floor = default_clamp_floor(sig) if floor is None else floor
        want, raised = _plain_trace(sig, weights[i], num_iters, plain_floor)
        steps = entry.completed if raised is not None else entry
        assert raised == getattr(entry, "iteration", None)
        if raised == 0:
            assert str(entry).startswith("fewer than 3") == (
                np.count_nonzero(weights[i] > 0) < 3)
        assert [repr((s.coeffs.a, s.coeffs.b, s.coeffs.c)) for s in steps] == [
            repr((c.a, c.b, c.c)) for c in want]
    assert all(np.array_equal(w, k, equal_nan=True) for w, k in zip(weights, kept))


def test_single_solve_equals_plain_oracle_bit_for_bit():
    """Random sparse weights on random grids, including rank-deficient
    draws: the same coefficients or the same rejection."""
    rngs = np.random.default_rng(29)
    outcomes = set()
    for _ in range(200):
        n = int(rngs.integers(3, 60))
        sig = SampledSignal(delta_x=float(rngs.uniform(0.01, 2.0)),
                            samples=np.exp(rngs.normal(0.0, 2.0, n)),
                            x0=float(rngs.uniform(-50.0, 50.0)))
        w = rngs.uniform(0.0, 3.0, n) * (rngs.random(n) < 0.3)
        try:
            want = _plain_solve(sig.grid, log_transform(sig, 1e-30), w)
        except SingularSystemError:
            with pytest.raises(SingularSystemError):
                weighted_ls_solve(sig, w, 1e-30)
            outcomes.add("singular")
            continue
        got = weighted_ls_solve(sig, w, 1e-30)
        assert (got.a, got.b, got.c) == (want.a, want.b, want.c)
        outcomes.add("solved")
    assert outcomes == {"singular", "solved"}


def test_elimination_equals_plain_oracle_on_ties():
    """Small-integer Hankel systems make pivot ties, zero and negative
    entries common: the unrolled elimination must pick the same pivots and
    keep the signs of zeros (the right side includes -0.0)."""
    from gaussfit.linfit import _solve_normal

    rngs = np.random.default_rng(31)
    outcomes = set()
    for _ in range(3000):
        s0, s1, s2, s3, s4 = (float(v) for v in rngs.integers(-3, 4, 5))
        rhs = [float(v) or float(rngs.choice([0.0, -0.0]))
               for v in rngs.integers(-2, 3, 3)]
        try:
            want = _plain_solve3([[s0, s1, s2], [s1, s2, s3], [s2, s3, s4]], rhs)
        except SingularSystemError:
            with pytest.raises(SingularSystemError):
                _solve_normal(s0, s1, s2, s3, s4, *rhs)
            outcomes.add("singular")
            continue
        got = _solve_normal(s0, s1, s2, s3, s4, *rhs)
        assert [repr(v) for v in got] == [repr(v) for v in want]
        outcomes.add("solved")
    assert outcomes == {"singular", "solved"}
