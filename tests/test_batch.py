"""The block forms of synthesis, M1 and M3 against the scalar code they
replaced, kept here as plain oracles.

Every row of a block must equal the oracle run on that row alone, and the
same row run as a block of one, bit for bit: parameters, status,
diagnostics (values, types and order), and for a failing row the error
class, stage and message.
"""

import math
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaussfit import (
    METHOD_IDS,
    BenchConfig,
    DegenerateAreaError,
    DegenerateRhoError,
    GaussFitError,
    GaussianParams,
    InvalidParamsError,
    InvalidWidthError,
    InvalidWindowError,
    MethodSpec,
    NoiseSpec,
    NoPeakError,
    SampledSignal,
    SignalBlock,
    bench,
    build_erf_table,
    initfit,
    m3_initial_fit,
    methods,
    naive_peak,
    partial_areas,
    refine_amplitude,
    rho_from_samples,
    rng,
    run_bench_iters,
    run_bench_snr,
    run_method,
    sample_gaussian,
    sigma_area_m1,
    sigma_from_area,
    stage_one,
    windowed_peak,
)
from gaussfit.results import CONVERGED, DEGENERATE_FALLBACK, FitResult

SQ2PI = math.sqrt(2.0 * math.pi)
MASK = (1 << 64) - 1
_TABLE = build_erf_table(0.1, 0.01, 991)  # module level: hypothesis runs many examples


# ------------------------------------------------------------- oracles


def _oracle_uniforms(seed, count):
    idx = np.arange(1, count + 1, dtype=np.uint64)
    with np.errstate(over="ignore"):
        z = np.uint64(int(seed) & MASK) + idx * np.uint64(0x9E3779B97F4A7C15)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        z = z ^ (z >> np.uint64(31))
    return ((z >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0 ** -53


def _oracle_normals(seed, count):
    pairs = (count + 1) // 2
    u = _oracle_uniforms(seed, 2 * pairs)
    r = np.sqrt(-2.0 * np.log(u[0::2]))
    theta = 2.0 * np.pi * u[1::2]
    out = np.empty(2 * pairs)
    out[0::2] = r * np.cos(theta)
    out[1::2] = r * np.sin(theta)
    return out[:count]


def _oracle_sample(params, delta_x, n, noise):
    z = (delta_x * np.arange(n) - params.mu) / params.sigma
    y = params.amplitude * np.exp(-0.5 * z * z)
    if noise is not None:
        power = noise.noise_power_for(params.amplitude)
        y = y + math.sqrt(power) * _oracle_normals(noise.seed, n)
    return SampledSignal(delta_x=delta_x, samples=y, x0=0.0)


def _oracle_trial(config, sweep_idx, trial_idx, snr_db):
    seed = rng.mix_seed(config.master_seed, sweep_idx, trial_idx)
    u = _oracle_uniforms(rng.mix_seed(seed, bench._PARAMS_TAG), 2)
    truth = GaussianParams(
        amplitude=bench._A_TRUE,
        mu=bench._MU_LOW + (bench._MU_HIGH - bench._MU_LOW) * float(u[0]),
        sigma=bench._SIGMA_LOW + (bench._SIGMA_HIGH - bench._SIGMA_LOW) * float(u[1]),
    )
    noise = NoiseSpec(snr_db=snr_db, seed=rng.mix_seed(seed, bench._NOISE_TAG))
    return _oracle_sample(truth, bench._DELTA_X, bench._N_SAMPLES, noise), truth, seed


def _oracle_m1(sig):
    y = sig.samples
    n_hat = int(np.argmax(y))
    a_hat = float(y[n_hat])
    if a_hat <= 0:
        raise NoPeakError("all samples are non-positive", stage="naive_peak")
    sigma = float(np.sum(y)) * sig.delta_x / (a_hat * SQ2PI)
    try:
        params = GaussianParams(a_hat, sig.x0 + n_hat * sig.delta_x, sigma)
    except InvalidParamsError as err:
        raise InvalidParamsError(str(err), stage="sigma_area_m1") from None
    return FitResult(params=params, method="M1", iterations_run=0,
                     diagnostics={"n_hat": n_hat})


def _oracle_m3(sig, window, table):
    y, dx, n = sig.samples, sig.delta_x, len(sig)
    if not 1 <= window <= n - 1:
        raise InvalidWindowError(f"window_l must be in [1, {n - 1}], got {window}",
                                 stage="windowed_peak")
    averages = np.convolve(y, np.full(window, 1.0 / window), mode="valid")
    center = int(np.argmax(averages)) + window // 2
    mu_hat, height = sig.x0 + center * dx, float(y[center])
    if height <= 0:
        raise NoPeakError("windowed peak height is non-positive", stage="windowed_peak")
    n_hat = min(max(int(round((mu_hat - sig.x0) / dx)), 0), n - 1)
    s_beta = dx * float(np.sum(y[:n_hat]))
    s_alpha = dx * float(np.sum(y[n_hat:]))
    diagnostics = {"n_hat": n_hat, "s_beta": s_beta, "s_alpha": s_alpha}
    widths = {}
    for side, area, half in (("beta", s_beta, n_hat * dx), ("alpha", s_alpha, (n - n_hat) * dx)):
        if not (math.isfinite(area) and area > 0 and math.isfinite(half) and half > 0):
            continue
        predicted = (SQ2PI * height * half) / (2.0 * table.k) * table.values
        k_star = float(table.k[int(np.argmin((area - predicted) ** 2))])
        widths[side] = half / k_star
        diagnostics[f"k_star_{side}"] = k_star
        diagnostics[f"boundary_{side}"] = k_star in (float(table.k[0]), float(table.k[-1]))
    status = CONVERGED
    if not widths:
        raise DegenerateAreaError("no usable area on either side of the peak",
                                  stage="sigma_from_area")
    if "beta" not in widths:
        rho, sigma, status = 1.0, widths["alpha"], DEGENERATE_FALLBACK
        diagnostics["fallback"] = "alpha-only"
    elif "alpha" not in widths:
        rho, sigma, status = 0.0, widths["beta"], DEGENERATE_FALLBACK
        diagnostics["fallback"] = "beta-only"
    else:
        z2 = (mu_hat - sig.grid) ** 2
        contrib = y * y * (z2 * z2)
        denom = float(np.sum(contrib))
        if not math.isfinite(denom) or denom <= 0:
            raise DegenerateRhoError(f"weight denominator is {denom!r}",
                                     stage="rho_from_samples")
        rho = min(max(float(np.sum(contrib[n_hat:])) / denom, 0.0), 1.0)
        sigma = rho * widths["alpha"] + (1.0 - rho) * widths["beta"]
    diagnostics["rho"] = rho
    if not (math.isfinite(sigma) and sigma > 0):
        raise InvalidWidthError(f"sigma must be > 0, got {sigma!r}")
    z = (sig.grid - mu_hat) / sigma
    with np.errstate(under="ignore"):
        g = np.exp(-0.5 * z * z)
    gg = float(np.dot(g, g))
    if not math.isfinite(gg) or gg <= 0:
        raise DegenerateAreaError("amplitude template vanishes on the grid")
    amplitude = float(np.dot(g, y)) / gg
    if not (math.isfinite(amplitude) and amplitude > 0):
        raise NoPeakError(f"refined amplitude is not positive: {amplitude!r}",
                          stage="refine_amplitude")
    return FitResult(params=GaussianParams(amplitude, mu_hat, sigma), method="M3",
                     iterations_run=0, status=status, diagnostics=diagnostics)


# ------------------------------------------------------------- helpers


def _outcome(fn, *args):
    try:
        return fn(*args)
    except GaussFitError as err:
        return err


def _key(outcome):
    """Everything observable about a stage-1 outcome, bit for bit."""
    if isinstance(outcome, GaussFitError):
        return type(outcome), outcome.stage, str(outcome)
    items = list(outcome.diagnostics.items())
    return (repr(outcome.params), outcome.coeffs, outcome.method, outcome.status,
            outcome.iterations_run, repr(items), [type(v) for _, v in items])


def _keys(outcomes):
    """Stage outcomes in a comparable form: an error by its key."""
    return [_key(o) if isinstance(o, GaussFitError) else o for o in outcomes]


def _kind(outcome):
    if isinstance(outcome, GaussFitError):
        return type(outcome).__name__
    return outcome.status


def _alone(sig):
    """``sig`` as a signal of its own, not a row of a block."""
    return SampledSignal(sig.delta_x, sig.samples.copy(), sig.x0)


def _blocks(config, snr_db, chunk, monkeypatch):
    monkeypatch.setattr(bench, "_CHUNK", chunk)
    return list(bench._trial_blocks(config, 0, snr_db))


# ------------------------------------------------------------- synthesis


@pytest.mark.parametrize("count", [1, 2, 1001, 1002])
def test_stream_rows_equal_scalar_oracle(count):
    seeds = [rng.mix_seed(5, j) for j in range(9)]
    normals = rng.normals(seeds, count)
    uniforms = rng.uniforms(seeds, count)
    assert normals.shape == uniforms.shape == (9, count)
    for seed, z, u in zip(seeds, normals, uniforms):
        assert z.tobytes() == _oracle_normals(seed, count).tobytes()
        assert z.tobytes() == rng.normals(seed, count).tobytes()
        assert u.tobytes() == _oracle_uniforms(seed, count).tobytes()


@pytest.mark.parametrize("chunk", [1, 3, 8])
@pytest.mark.parametrize("snr_db", [-10.0, 12.0])
def test_trial_blocks_equal_scalar_synthesis(chunk, snr_db, monkeypatch):
    """13 trials: chunks of 3 and 8 leave a partial chunk at the end."""
    config = BenchConfig(trials=13, master_seed=29)
    blocks = _blocks(config, snr_db, chunk, monkeypatch)
    assert [len(block) for block, _, _ in blocks] == (
        [chunk] * (13 // chunk) + ([13 % chunk] if 13 % chunk else []))
    rows = [(block.row(i), truth, seed)
            for block, truths, seeds in blocks
            for i, (truth, seed) in enumerate(zip(truths, seeds))]
    for t, (sig, truth, seed) in enumerate(rows):
        want, want_truth, want_seed = _oracle_trial(config, 0, t, snr_db)
        assert (seed, truth) == (want_seed, want_truth)
        assert sig.samples.tobytes() == want.samples.tobytes()
        assert (sig.delta_x, sig.x0) == (want.delta_x, want.x0)


def test_sample_gaussian_is_a_block_of_one():
    truths = [GaussianParams(1.0, 8.3, 1.1), GaussianParams(2.5, 3.0, 0.4)]
    noises = [NoiseSpec(12.0, 3), NoiseSpec(-5.0, 4)]
    block = sample_gaussian(truths, 0.01, 1001, noises)
    assert isinstance(block, SignalBlock)
    for i, (truth, noise) in enumerate(zip(truths, noises)):
        alone = sample_gaussian(truth, 0.01, 1001, noise)
        assert block.row(i).samples.tobytes() == alone.samples.tobytes()
        assert alone.samples.tobytes() == _oracle_sample(
            truth, 0.01, 1001, noise).samples.tobytes()
    clean = sample_gaussian(truths, 0.01, 1001)
    assert clean.row(1).samples.tobytes() == sample_gaussian(
        truths[1], 0.01, 1001).samples.tobytes()


# ------------------------------------------------------------- stage 1


@pytest.mark.parametrize("snr_db", [-10.0, -3.0])
@pytest.mark.parametrize("window_l", [1, 2, 3, 5, 8, 11])
def test_stage_one_rows_equal_scalar_oracles(snr_db, window_l, erf_table,
                                             monkeypatch):
    config = BenchConfig(trials=13, master_seed=3)
    m1 = MethodSpec("M1")
    for chunk in (1, 3, 8):
        for block, _, _ in _blocks(config, snr_db, chunk, monkeypatch):
            got_m1 = stage_one(m1, block, erf_table)
            got_m3 = initfit._m3_initial_fit_block(block, window_l, erf_table)
            got_m4 = stage_one(MethodSpec("M4", window_l=window_l), block, erf_table)
            assert [_key(g) for g in got_m4] == [_key(g) for g in got_m3]
            for i in range(len(block)):
                sig = block.row(i)
                assert _key(got_m1[i]) == _key(_outcome(_oracle_m1, sig))
                assert _key(got_m3[i]) == _key(_outcome(_oracle_m3, sig, window_l,
                                                        erf_table))
                alone = _alone(sig)
                assert _key(got_m1[i]) == _key(_outcome(run_method, m1, alone, erf_table))
                assert _key(got_m3[i]) == _key(_outcome(m3_initial_fit, alone, window_l,
                                                        erf_table))


def test_rows_share_their_block_stage_one(erf_table):
    """Rows of a block read one split-area fit: M3 and M4 with an equal
    ``window_l`` get the outcome :func:`m3_initial_fit` gives the row;
    another ``window_l`` runs its own."""
    block = sample_gaussian([GaussianParams(1.0, 8.0 + 0.1 * j, 1.2) for j in range(5)],
                            0.01, 1001, [NoiseSpec(6.0, j) for j in range(5)])
    row = block.row(3)
    m3 = stage_one(MethodSpec("M3"), block, erf_table)
    assert stage_one(MethodSpec("M4"), block, erf_table)[3] is m3[3]
    assert m3_initial_fit(row, 3, erf_table) is m3[3]
    other = stage_one(MethodSpec("M4", window_l=5), block, erf_table)[3]
    assert other is not m3[3]
    assert _key(other) == _key(m3_initial_fit(_alone(row), 5, erf_table))
    assert stage_one(MethodSpec("M5"), block, erf_table) == [None] * len(block)


def test_a_new_table_gets_its_own_split_area_fit():
    """A block remembers its split-area fits per table.  Python may give a
    table built after another was freed the freed table's id, and a row
    fitted again with the new table must still get the new table's fit."""
    block = sample_gaussian([GaussianParams(1.0, 8.0 + 0.3 * j, 1.2) for j in range(3)],
                            0.01, 1001, [NoiseSpec(12.0, j) for j in range(3)])
    row = block.row(0)
    m3_initial_fit(row, 3, build_erf_table(0.1, 0.01, 991))  # freed at once
    for _ in range(50):
        small = build_erf_table(1.0, 0.5, 5)
        assert _key(m3_initial_fit(row, 3, small)) == _key(
            m3_initial_fit(_alone(row), 3, small))


def test_stage_functions_take_a_block(erf_table, monkeypatch):
    """Each stage given a block returns every row's result, equal to the
    row given as a block of one; a row's error takes its place in the
    list."""
    config = BenchConfig(trials=8, master_seed=3)
    (block, _, _), = _blocks(config, -3.0, 8, monkeypatch)
    samples = block.samples.copy()
    samples[2] = 0.0  # no positive sample and no weight: no peak, no rho
    block = SignalBlock(delta_x=block.delta_x, samples=samples, x0=1.5)
    alone = [SignalBlock.of(_alone(block.row(i))) for i in range(len(block))]
    peaks = naive_peak(block)
    assert _keys(peaks) == _keys([naive_peak(one)[0] for one in alone])
    assert type(peaks[2]) is NoPeakError
    amplitudes = [0.5 + 0.1 * i for i in range(len(block))]
    assert sigma_area_m1(block, amplitudes) == [
        sigma_area_m1(one, [a])[0] for one, a in zip(alone, amplitudes)]
    for window_l in (1, 4, 11):
        assert windowed_peak(block, window_l) == [windowed_peak(one, window_l)[0]
                                                  for one in alone]
    n_hats = [0, 10, 500, 999, 1000, 7, 3, 640]
    assert partial_areas(block, n_hats) == [partial_areas(one, [n])[0]
                                            for one, n in zip(alone, n_hats)]
    areas, half_widths = np.array([0.5, 1.0, 2.5]), np.array([1.0, 3.0, 9.0])
    heights = np.array([1.0, 0.7, 1.3])
    sigmas, k_stars = sigma_from_area(areas, half_widths, heights, erf_table)
    assert list(zip(sigmas.tolist(), k_stars.tolist())) == [
        tuple(v.item() for v in sigma_from_area(areas[i:i + 1], half_widths[i:i + 1],
                                                heights[i:i + 1], erf_table))
        for i in range(3)]
    with pytest.raises(DegenerateAreaError):
        sigma_from_area(np.array([1.0, -1.0]), np.array([1.0, 1.0]),
                        np.array([1.0, 1.0]), erf_table)
    mus = [8.0 + 0.1 * i for i in range(len(block))]
    rhos = rho_from_samples(block, mus)
    assert _keys(rhos) == _keys([rho_from_samples(one, [mu])[0]
                                 for one, mu in zip(alone, mus)])
    assert type(rhos[2]) is DegenerateRhoError
    widths = [1.0 + 0.05 * i for i in range(len(block))]
    widths[5] = float("nan")
    got = refine_amplitude(block, mus, widths)
    assert _keys(got) == _keys([refine_amplitude(one, [mu], [w])[0]
                                for one, mu, w in zip(alone, mus, widths)])
    assert type(got[5]) is InvalidWidthError


def test_error_and_fallback_rows_equal_scalar_oracle(erf_table, monkeypatch):
    """Low-SNR trials of the standard protocol reach the converged, both
    one-sided fallback and both no-peak outcomes of the split-area fit, and
    trial 1893 of seed 3 at -10 dB (1 in 2000) has no usable area on either
    side, like a hand-made row whose sides both sum below zero.  Every such
    row of an 8-row block equals the oracle."""
    config = BenchConfig(trials=400, master_seed=3)
    blocks = [block for snr_db in (-10.0, -3.0)
              for block, _, _ in _blocks(config, snr_db, 8, monkeypatch)]
    rare = _blocks(BenchConfig(trials=1896, master_seed=3), -10.0, 8, monkeypatch)
    blocks.append(rare[1893 // 8][0])
    no_area = [-5.0, -5.0, 1.0, 2.0, 1.0, -5.0, -5.0]
    blocks.append(SignalBlock(delta_x=0.5, samples=np.array([
        no_area, [0.1, 0.5, 1.0, 2.0, 1.0, 0.5, 0.1], no_area[::-1]])))
    kinds = set()
    for block in blocks:
        for i, got in enumerate(initfit._m3_initial_fit_block(block, 3, erf_table)):
            assert _key(got) == _key(_outcome(_oracle_m3, block.row(i), 3, erf_table))
            if isinstance(got, GaussFitError):
                kinds.add(f"{type(got).__name__}/{got.stage}")
            else:
                kinds.add(got.diagnostics.get("fallback", got.status))
    assert kinds == {CONVERGED, "alpha-only", "beta-only", "NoPeakError/windowed_peak",
                     "NoPeakError/refine_amplitude", "DegenerateAreaError/sigma_from_area"}


def test_window_error_fills_every_row(erf_table):
    block = SignalBlock(delta_x=1.0, samples=np.ones((4, 3)))
    outcomes = initfit._m3_initial_fit_block(block, 3, erf_table)
    assert len(outcomes) == 4
    for got in outcomes:
        assert _key(got) == _key(_outcome(_oracle_m3, block.row(0), 3, erf_table))
        assert got.stage == "windowed_peak"


def test_m1_error_rows(erf_table):
    """A row without a positive sample and a row whose sum is not positive
    fail on their own; the others in the block are unaffected."""
    samples = np.array([[-1.0, -2.0, -0.5, -3.0],
                        [0.5, -2.0, -1.0, 0.1],
                        [0.2, 1.0, 0.4, 0.1]])
    block = SignalBlock(delta_x=0.5, samples=samples, x0=-1.0)
    got = stage_one(MethodSpec("M1"), block, erf_table)
    assert [_kind(g) for g in got] == ["NoPeakError", "InvalidParamsError", CONVERGED]
    for i, g in enumerate(got):
        assert _key(g) == _key(_outcome(_oracle_m1, block.row(i)))
    assert [g.stage for g in got[:2]] == ["naive_peak", "sigma_area_m1"]


def test_block_traces_equal_run_method_alone(erf_table, monkeypatch):
    """Every row of a block trace, started from the block's stage 1 and
    ended by the final-iterate rule, equals :func:`run_method` on that row
    as a signal of its own, for M2, M4 and M5: results, stage-1 fallbacks
    and errors alike, including rank-deficient steps and final iterates
    that are no Gaussian, which end a row without disturbing the others."""
    kinds = set()
    for snr_db in (-10.0, 0.0, 12.0):
        for block, _, _ in _blocks(BenchConfig(trials=40, master_seed=13), snr_db, 8,
                                   monkeypatch):
            for mid in ("M2", "M4", "M5"):
                spec = MethodSpec(mid)
                traces = methods.trace_block(spec, block, stage_one(spec, block, erf_table),
                                             spec.iters)
                for i, (trace, status, diagnostics) in enumerate(traces):
                    got = trace if isinstance(trace, GaussFitError) else (
                        methods._reweighted_fit(spec, trace, status, diagnostics))
                    alone = _outcome(run_method, spec, _alone(block.row(i)), erf_table)
                    assert _key(got) == _key(alone), (snr_db, mid, i)
                    kinds.add((mid, _kind(got)))
    assert {("M2", "SingularSystemError"), ("M5", "SingularSystemError"),
            ("M5", "InvalidWidthError"), ("M4", DEGENERATE_FALLBACK),
            ("M4", CONVERGED)} <= kinds


# ------------------------------------------------------------- bench


def _report_bytes(report):
    return [repr(row) for row in report.rows]


@pytest.mark.parametrize("mode", ["snr", "iters"])
def test_reports_do_not_depend_on_chunk_size(mode, erf_table, monkeypatch):
    config = BenchConfig(trials=13, master_seed=11, snr_start_db=-10.0,
                         snr_step_db=7.0, snr_stop_db=-3.0, stage2_iters=2,
                         m5_iters=3, fixed_snr_db=-3.0, iter_sweep=(1, 3))
    run = run_bench_snr if mode == "snr" else run_bench_iters
    reports = []
    for chunk in (1, 3, 8):
        monkeypatch.setattr(bench, "_CHUNK", chunk)
        reports.append(_report_bytes(run(config, erf_table)))
    assert reports[0] == reports[1] == reports[2]


@pytest.mark.parametrize("snr_db", [12.0, 0.0])
def test_snr_cells_equal_run_method_on_each_trial_alone(snr_db, erf_table):
    """Every ``bench snr`` cell equals one fed by :func:`run_method` on each
    trial's signal alone, an error counting as degenerate with no estimate:
    the harness scores M2, M4 and M5 from block traces, not fits, and must
    keep the library's final-iterate rule.  At 0 dB the trials include
    rank-deficient steps, non-Gaussian final iterates and a fallback."""
    config = BenchConfig(trials=40, master_seed=13, snr_start_db=snr_db,
                         snr_stop_db=snr_db)
    report = run_bench_snr(config, erf_table)
    cells = {mid: bench._CellAccumulator() for mid in config.methods}
    for t in range(config.trials):
        sig, truth, _ = _oracle_trial(config, 0, t, snr_db)
        for mid, cell in cells.items():
            try:
                fit = run_method(config.method_spec(mid), sig, erf_table)
            except GaussFitError:
                cell.record(None, truth, False)
            else:
                cell.record(fit.params, truth, fit.status == CONVERGED)
    for mid, cell in cells.items():
        got = [report.cell(mid, snr_db, name) for name in bench.PARAM_NAMES]
        assert repr([row.mse for row in got]) == repr(cell.mse()), mid
        assert {row.degenerate for row in got} == {cell.degenerate}, mid
        if snr_db == 0.0 and mid != "M1":
            assert cell.degenerate > 0, mid


@pytest.mark.parametrize("timing", [False, True])
def test_stage_one_runs_once_per_chunk_and_timing_charges_its_share(timing, erf_table,
                                                                     monkeypatch):
    """M2 and M4 reuse the chunk's M1 and M3 outcomes, and with timing each
    method is charged its own time plus its per-row share of the batched
    stage it uses; M2, M4 and M5 trace a chunk in one block call, whose
    time is shared by its rows.  A fake clock advances only inside the
    hooks."""
    clock = [0.0]
    monkeypatch.setattr(bench, "time", types.SimpleNamespace(perf_counter=lambda: clock[0]))
    calls = []

    def counted(name, fn, cost):
        def hook(block, *args):
            calls.append(name)
            clock[0] += cost * len(block)
            return fn(block, *args)
        return hook

    def trace(spec, block, stage1, num_iters):
        clock[0] += 100.0 * len(block)
        return methods.trace_block(spec, block, stage1, num_iters)

    monkeypatch.setattr(methods, "_m1_block", counted("M1", methods._m1_block, 1.0))
    monkeypatch.setattr(initfit, "_m3_initial_fit_block",
                        counted("M3", initfit._m3_initial_fit_block, 10.0))
    monkeypatch.setattr(bench, "trace_block", trace)
    config = BenchConfig(trials=13, master_seed=7, snr_start_db=12.0, snr_stop_db=12.0,
                         m5_iters=2, timing=timing)
    report = run_bench_snr(config, erf_table)
    assert calls == ["M1", "M3"] * 2  # chunks of 8 and 5 trials
    if timing:
        times = {m: report.mean_time_us(m, 12.0) for m in ("M1", "M2", "M3", "M4", "M5")}
        assert times == {"M1": 1e6, "M2": 101e6, "M3": 10e6, "M4": 110e6, "M5": 100e6}
    # M2 alone still runs and is charged the M1 stage 1
    calls.clear()
    report = run_bench_snr(BenchConfig(trials=13, master_seed=7, snr_start_db=12.0,
                                       snr_stop_db=12.0, methods=("M2",), timing=timing),
                           erf_table)
    assert calls == ["M1"] * 2
    assert report.mean_time_us("M2", 12.0) == (101e6 if timing else 0.0)


def test_a_methods_cells_do_not_depend_on_the_other_methods(erf_table):
    """Stage 1 runs for M2 and M4 whether or not M1 and M3 are reported,
    and in any method order."""
    def rows(methods):
        config = BenchConfig(trials=13, master_seed=7, snr_start_db=0.0, snr_step_db=6.0,
                             snr_stop_db=12.0, methods=methods)
        report = run_bench_snr(config, erf_table)
        return {mid: [repr(row) for row in report.rows if row.method == mid]
                for mid in ("M2", "M4")}
    want = rows(("M4", "M2"))
    assert rows(("M2", "M4")) == want
    assert rows(METHOD_IDS) == want


# ------------------------------------------------------------- property


@st.composite
def _blocks_of_signals(draw):
    n = draw(st.integers(3, 1200))
    rows = draw(st.integers(1, 6))
    x0 = draw(st.floats(-1e3, 1e3))
    dx = draw(st.floats(1e-3, 10.0))
    seed = draw(st.integers(0, 2**32 - 1))
    gen = np.random.default_rng(seed)
    samples = np.empty((rows, n))
    for r in range(rows):
        amplitude = draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** gen.uniform(-3, 3)
        center = gen.uniform(-0.2, 1.2) * (n - 1)
        width = gen.uniform(0.05, 0.5) * n
        clean = amplitude * np.exp(-0.5 * ((np.arange(n) - center) / width) ** 2)
        snr_db = draw(st.floats(-10.0, 40.0))
        samples[r] = clean + abs(amplitude) * 10.0 ** (-snr_db / 20.0) * gen.standard_normal(n)
    window_l = draw(st.integers(1, min(11, n - 1)))
    return SignalBlock(delta_x=dx, samples=samples, x0=x0), window_l


@settings(max_examples=150, deadline=None)
@given(_blocks_of_signals())
def test_block_rows_equal_blocks_of_one(case):
    block, window_l = case
    table = _TABLE
    m1 = stage_one(MethodSpec("M1"), block, table)
    m3 = initfit._m3_initial_fit_block(block, window_l, table)
    for i in range(len(block)):
        alone = _alone(block.row(i))
        assert _key(m1[i]) == _key(stage_one(MethodSpec("M1"), SignalBlock.of(alone), table)[0])
        assert _key(m3[i]) == _key(_outcome(m3_initial_fit, alone, window_l, table))
        assert _key(m3[i]) == _key(_outcome(_oracle_m3, alone, window_l, table))
