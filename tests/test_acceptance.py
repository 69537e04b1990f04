"""Acceptance suite: one test per exit criterion, each printing a
PASS/FAIL line (run with ``pytest -s`` to see them live).

Monte Carlo criteria run at master seed 7 and two additional seeds.
"""

import math
import os
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest
import scipy.integrate

from gaussfit import (
    BenchConfig,
    CrlbQuery,
    GaussFitError,
    GaussianParams,
    NoiseSpec,
    SampledSignal,
    SignalBlock,
    build_erf_table,
    crlb_ratio,
    crlb_sigma,
    m3_initial_fit,
    optimal_rho_oracle,
    rho_from_samples,
    run_bench_iters,
    run_bench_snr,
    run_method,
    sample_gaussian,
    sigma_area_m1,
    wls_trace,
)
from gaussfit.methods import MethodSpec
from gaussfit.results import CONVERGED

# standard protocol grid: x in [0, 10] sampled every 0.01
GRID_DX = 0.01
GRID_N = 1001

LONG_TAIL = GaussianParams(1.0, 9.0, 1.3)
SEEDS = (7, 19, 137)
PARAMS = ("A", "mu", "sigma")
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _report(num, ok, detail):
    print(f"\n[criterion {num:2d}] {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


# ---------------------------------------------------------------------
# expensive shared runs


@pytest.fixture(scope="module")
def snr12_reports(erf_table):
    """2000-trial runs at 12 dB for every seed; seed 7 also measures time."""
    reports = {}
    elapsed = {}
    for seed in SEEDS:
        cfg = BenchConfig(
            trials=2000,
            master_seed=seed,
            snr_start_db=12.0,
            snr_step_db=0.5,
            snr_stop_db=12.0,
            timing=(seed == SEEDS[0]),
        )
        t0 = time.perf_counter()
        reports[seed] = run_bench_snr(cfg, erf_table)
        elapsed[seed] = time.perf_counter() - t0
    return reports, elapsed


@pytest.fixture(scope="module")
def iter_reports(erf_table):
    """2000-trial iteration sweeps (2 and 12) at 12 dB for every seed."""
    reports = {}
    elapsed = {}
    for seed in SEEDS:
        cfg = BenchConfig(
            trials=2000,
            master_seed=seed,
            methods=("M4", "M5"),
            iter_sweep=(2, 12),
            fixed_snr_db=12.0,
        )
        t0 = time.perf_counter()
        reports[seed] = run_bench_iters(cfg, erf_table)
        elapsed[seed] = time.perf_counter() - t0
    return reports, elapsed


# ---------------------------------------------------------------------
# criterion 1: noiseless exactness


def test_criterion_1_noiseless_exactness(erf_table):
    t0 = time.perf_counter()
    sig = sample_gaussian(LONG_TAIL, GRID_DX, GRID_N)

    # plain LS (one unit-weight step); the floor is set below the smallest
    # noiseless sample so the log transform is exact (the default
    # data-driven floor would clamp the far tail of this 7-sigma-deep signal)
    fit_ls = wls_trace(sig, np.ones(GRID_N), 1, clamp_floor=1e-12)[-1]
    ls_ok = (
        abs(fit_ls.params.amplitude - 1.0) <= 1e-6
        and abs(fit_ls.params.mu - 9.0) <= 9e-6
        and abs(fit_ls.params.sigma - 1.3) <= 1.3e-6
    )

    fit_m5 = run_method(MethodSpec("M5", iters=1), sig, erf_table)
    m5_ok = (
        abs(fit_m5.params.amplitude - 1.0) <= 1e-6
        and abs(fit_m5.params.mu - 9.0) <= 9e-6
        and abs(fit_m5.params.sigma - 1.3) <= 1.3e-6
    )

    fit_m3 = run_method(MethodSpec("M3"), sig, erf_table)
    m3_ok = (
        abs(fit_m3.params.mu - 9.0) <= GRID_DX
        and abs(fit_m3.params.sigma - 1.3) / 1.3 <= 0.005
        and abs(fit_m3.params.amplitude - 1.0) <= 0.001
    )

    runtime = time.perf_counter() - t0
    ok = ls_ok and m5_ok and m3_ok and runtime < 1.0
    assert _report(
        1, ok,
        f"LS rel err sigma {abs(fit_ls.params.sigma - 1.3) / 1.3:.2e}, "
        f"M5(1) rel err sigma {abs(fit_m5.params.sigma - 1.3) / 1.3:.2e}, "
        f"M3 sigma {fit_m3.params.sigma:.6f}, runtime {runtime:.3f}s",
    )


# ---------------------------------------------------------------------
# criterion 2: erf table against an independent quadrature oracle


def test_criterion_2_erf_table_oracle(erf_table):
    t0 = time.perf_counter()
    scale = 2.0 / math.sqrt(math.pi)
    worst = 0.0
    for kj, vj in zip(erf_table.k, erf_table.values):
        q, _ = scipy.integrate.quad(lambda t: math.exp(-t * t), 0.0,
                                    float(kj) / math.sqrt(2.0))
        worst = max(worst, abs(float(vj) - min(scale * q, 1.0)))
    single = build_erf_table(math.sqrt(2.0), 0.01, 1)
    classic_err = abs(float(single.values[0]) - 0.8427008)
    runtime = time.perf_counter() - t0
    ok = worst <= 1e-6 and classic_err <= 1e-6 and runtime < 5.0
    assert _report(
        2, ok,
        f"max |table - quadrature| {worst:.2e}, erf(1) err {classic_err:.2e}, "
        f"runtime {runtime:.2f}s",
    )


# ---------------------------------------------------------------------
# criterion 3: long-tail bias of the full-sum width estimate


def test_criterion_3_full_sum_width_bias(erf_table):
    sig = sample_gaussian(LONG_TAIL, GRID_DX, GRID_N)
    est_m1, = sigma_area_m1(SignalBlock.of(sig), [1.0])
    fit_m3 = m3_initial_fit(sig, 3, erf_table)
    m1_ok = abs(est_m1 - 1.013) <= 0.005
    m3_ok = abs(fit_m3.params.sigma - 1.3) / 1.3 <= 0.005
    ok = m1_ok and m3_ok
    assert _report(
        3, ok,
        f"full-sum estimate {est_m1:.4f} (true 1.3), "
        f"split-area estimate {fit_m3.params.sigma:.4f}",
    )


# ---------------------------------------------------------------------
# criterion 4: bound identities


def test_criterion_4_crlb_identities():
    worst_ratio = 0.0
    worst_plug = 0.0
    for seed in SEEDS:
        rngs = np.random.default_rng(seed)
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
            ratio = crlb_ratio(params, GRID_DX, n_hat, n_total)
            worst_ratio = max(worst_ratio, abs(ratio - beta / alpha) / (beta / alpha))
            rho = optimal_rho_oracle(params, GRID_DX, n_hat, n_total)
            combined = rho**2 * alpha + (1 - rho) ** 2 * beta
            worst_plug = max(worst_plug, abs(combined - full) / full)
    rho_sym = optimal_rho_oracle(GaussianParams(1.0, 5.0, 1.0), GRID_DX, 500, GRID_N)
    ok = worst_ratio <= 1e-12 and worst_plug <= 1e-10 and abs(rho_sym - 0.5) <= 1e-3
    assert _report(
        4, ok,
        f"ratio identity {worst_ratio:.2e}, optimal-weight identity "
        f"{worst_plug:.2e}, symmetric weight {rho_sym:.6f}",
    )


# ---------------------------------------------------------------------
# criterion 5: sample-based combination weight at 40 dB


def test_criterion_5_rho_agreement_at_40db():
    """Requires mean |oracle - sample estimate| < 0.01 at 40 dB.

    This does not hold for the estimator as defined: the squared noisy
    samples carry an additive noise_power bias that the (mu - x)^4 lever
    amplifies over the long tail, leaving a gap near 0.08 at 40 dB (the
    0.01 level is reached above roughly 55 dB; the decay with SNR is
    covered by the crlb unit tests).  Kept at its stated threshold, so
    this criterion fails; see the test output for the measured values.
    """
    means = {}
    for seed in SEEDS:
        diffs = []
        for t in range(200):
            u = np.random.default_rng(seed * 1_000_003 + t).uniform(size=2)
            truth = GaussianParams(1.0, 8.0 + float(u[0]), 1.0 + 0.3 * float(u[1]))
            sig = sample_gaussian(truth, GRID_DX, GRID_N,
                                  NoiseSpec(40.0, seed * 31 + t))
            n_hat = int(round(truth.mu / GRID_DX))
            rho_hat, = rho_from_samples(SignalBlock.of(sig), [n_hat * GRID_DX])
            rho_star = optimal_rho_oracle(truth, GRID_DX, n_hat, GRID_N)
            diffs.append(abs(rho_hat - rho_star))
        means[seed] = float(np.mean(diffs))
    ok = all(m < 0.01 for m in means.values())
    detail = ", ".join(f"seed {s}: mean gap {m:.4f}" for s, m in means.items())
    _report(5, ok, detail + " (threshold 0.01)")
    assert ok, (
        "sample-weight agreement at 40 dB is limited by the noise-power "
        f"bias in the squared samples: {detail}; the threshold is only "
        "reachable above roughly 55 dB"
    )


# ---------------------------------------------------------------------
# criterion 6: MSE ordering at 12 dB, 2000 trials


def test_criterion_6_mse_ordering(snr12_reports):
    reports, elapsed = snr12_reports
    failures = []
    for seed, report in reports.items():
        mse = {(m, p): report.mse(m, 12.0, p) for m in ("M1", "M2", "M3", "M4", "M5")
               for p in PARAMS}
        if not mse[("M3", "sigma")] < mse[("M1", "sigma")]:
            failures.append(f"seed {seed}: M3 sigma !< M1")
        if not mse[("M3", "A")] < mse[("M1", "A")]:
            failures.append(f"seed {seed}: M3 A !< M1")
        if not mse[("M3", "mu")] <= mse[("M1", "mu")]:
            failures.append(f"seed {seed}: M3 mu !<= M1")
        for p in PARAMS:
            if not mse[("M4", p)] <= mse[("M2", p)]:
                failures.append(f"seed {seed}: M4 {p} !<= M2")
            if not mse[("M4", p)] <= 1.1 * mse[("M5", p)]:
                failures.append(f"seed {seed}: M4 {p} !<= 1.1*M5")
    runtime_ok = all(dt < 120.0 for dt in elapsed.values())
    if not runtime_ok:
        failures.append(f"runtime {max(elapsed.values()):.1f}s >= 120s")
    r7 = reports[SEEDS[0]]
    detail = (
        f"sigma MSE at seed 7: M1 {r7.mse('M1', 12.0, 'sigma'):.3e}, "
        f"M3 {r7.mse('M3', 12.0, 'sigma'):.3e}, M5 {r7.mse('M5', 12.0, 'sigma'):.3e}, "
        f"M4 {r7.mse('M4', 12.0, 'sigma'):.3e}; "
        f"runtime/seed {max(elapsed.values()):.1f}s"
    )
    ok = not failures
    assert _report(6, ok, detail if ok else "; ".join(failures))


# ---------------------------------------------------------------------
# criterion 7: convergence of the two-stage pipeline


def test_criterion_7_iteration_convergence(iter_reports):
    reports, elapsed = iter_reports
    failures = []
    for seed, report in reports.items():
        for p in PARAMS:
            at2 = report.mse("M4", 2.0, p)
            at12 = report.mse("M4", 12.0, p)
            if not at2 <= 1.05 * at12:
                failures.append(f"seed {seed}: M4 {p} at 2 iters !<= 1.05x at 12")
        if not report.mse("M5", 12.0, "sigma") >= report.mse("M4", 2.0, "sigma"):
            failures.append(f"seed {seed}: M5(12) sigma !>= M4(2)")
    runtime_ok = all(dt < 180.0 for dt in elapsed.values())
    if not runtime_ok:
        failures.append(f"runtime {max(elapsed.values()):.1f}s >= 180s")
    r7 = reports[SEEDS[0]]
    detail = (
        f"seed 7 sigma MSE: M4@2 {r7.mse('M4', 2.0, 'sigma'):.3e}, "
        f"M4@12 {r7.mse('M4', 12.0, 'sigma'):.3e}, "
        f"M5@12 {r7.mse('M5', 12.0, 'sigma'):.3e}; "
        f"runtime/seed {max(elapsed.values()):.1f}s"
    )
    ok = not failures
    assert _report(7, ok, detail if ok else "; ".join(failures))


# ---------------------------------------------------------------------
# criterion 8: determinism


def _run_cli(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run([sys.executable, "-m", "gaussfit", *args],
                          capture_output=True, text=True, env=env)


def test_criterion_8_determinism(tmp_path, erf_table):
    args = ("bench", "snr", "--trials", "50", "--seed", "7", "--snr=12:0.5:12")
    out1, out2 = tmp_path / "d1.csv", tmp_path / "d2.csv"
    res1 = _run_cli(*args, "--out", str(out1))
    res2 = _run_cli(*args, "--out", str(out2))
    bytes_ok = (res1.returncode == 0 and res2.returncode == 0
                and out1.read_bytes() == out2.read_bytes())

    cfg = dict(trials=100, master_seed=7, snr_start_db=12.0, snr_step_db=0.5,
               snr_stop_db=12.5, methods=("M1", "M3", "M5"))
    serial = run_bench_snr(BenchConfig(**cfg, workers=1), erf_table)
    parallel = run_bench_snr(BenchConfig(**cfg, workers=2), erf_table)
    parallel_ok = serial.rows == parallel.rows

    ok = bytes_ok and parallel_ok
    assert _report(
        8, ok,
        f"repeated CLI runs byte-identical: {bytes_ok}, "
        f"parallel MSE identical to single-threaded: {parallel_ok}",
    )


# ---------------------------------------------------------------------
# criterion 9: relative timing


def test_criterion_9_relative_timing(snr12_reports):
    reports, _ = snr12_reports
    report = reports[SEEDS[0]]  # the timed run
    times = {m: report.mean_time_us(m, 12.0) for m in ("M1", "M3", "M4", "M5")}
    order = ("M1", "M3", "M4", "M5")
    hard_failures = []
    flagged = []
    for fast, slow in zip(order, order[1:]):
        if times[fast] < times[slow]:
            continue
        inversion = (times[fast] - times[slow]) / times[slow]
        if inversion < 0.10:
            flagged.append(f"{fast} vs {slow} inverted by {inversion:.1%}")
        else:
            hard_failures.append(f"{fast} vs {slow} inverted by {inversion:.1%}")
    for msg in flagged:
        warnings.warn(f"timing ordering inverted within tolerance: {msg}")
    detail = ", ".join(f"{m} {times[m]:.0f}us" for m in order)
    if flagged:
        detail += "; FLAGGED: " + "; ".join(flagged)
    ok = not hard_failures
    assert _report(9, ok, detail if ok else detail + "; " + "; ".join(hard_failures))


# ---------------------------------------------------------------------
# criterion 10: robustness fuzz


def test_criterion_10_robustness_fuzz(erf_table):
    t0 = time.perf_counter()
    rngs = np.random.default_rng(7)
    total = 10_000
    specs = [MethodSpec(m) for m in ("M1", "M2", "M3", "M4", "M5")]
    outcomes = {"result": 0, "typed_error": 0}
    for i in range(total):
        n = int(rngs.integers(3, 40))
        kind = i % 5
        scale = 10.0 ** rngs.integers(-3, 4)
        if kind == 0:
            y = rngs.normal(0.0, scale, n)
        elif kind == 1:
            y = -np.abs(rngs.normal(0.0, scale, n))  # all non-positive
        elif kind == 2:
            y = np.zeros(n)
        elif kind == 3:
            y = np.abs(rngs.normal(0.0, scale, n))
        else:
            x = np.arange(n) * 0.1
            center = float(rngs.uniform(0, n * 0.1))
            y = scale * np.exp(-((x - center) ** 2) / (2 * 0.3**2))
            y += rngs.normal(0.0, scale * 0.2, n)
        sig = SampledSignal(delta_x=0.1, samples=y)
        for spec in specs:
            try:
                fit = run_method(spec, sig, erf_table)
                assert math.isfinite(fit.params.amplitude)
                assert math.isfinite(fit.params.mu)
                assert math.isfinite(fit.params.sigma)
                if fit.status == CONVERGED:
                    assert fit.params.amplitude > 0 and fit.params.sigma > 0
                outcomes["result"] += 1
            except GaussFitError:
                outcomes["typed_error"] += 1
    runtime = time.perf_counter() - t0
    ok = outcomes["result"] + outcomes["typed_error"] == total * len(specs)
    assert _report(
        10, ok,
        f"{outcomes['result']} finite results, {outcomes['typed_error']} typed "
        f"errors over {total} signals x {len(specs)} methods, "
        f"runtime {runtime:.1f}s",
    )
