"""Tests of the benchmark itself.  Run: python3 -m pytest -q perfbench/selftest.py"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

HEADER = "method,sweep,param,mse,trials,degenerate,mean_time_us,seed\n"


def make_report(cells: dict[str, tuple[float, float, float]], degenerate=None,
                sweep="12") -> bytes:
    """A hand-made snr report: method -> (A, mu, sigma) MSEs at one sweep point."""
    lines = [HEADER]
    for method, mses in cells.items():
        deg = (degenerate or {}).get(method, 0)
        for param, mse in zip(checks.PARAMS, mses):
            lines.append(f"{method},{sweep},{param},{mse!r},100,{deg},0,7\n")
    return "".join(lines).encode()


GOOD_SNR12 = {
    "M1": (0.39, 0.13, 0.26),
    "M2": (0.0032, 0.037, 0.083),
    "M3": (0.009, 0.081, 0.068),
    "M4": (0.0009, 0.0026, 0.059),
    "M5": (0.88, 0.28, 0.071),
}


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(workloads, "MC_TRIALS", 100)
    monkeypatch.setattr(workloads, "INIT_TRIALS", 10)
    monkeypatch.setattr(workloads, "CORPUS_FILES", 25)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)


def run_once(capsys, workload, trace=0):
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace)])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    return code, result


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_every_workload_passes_its_checks_at_a_tiny_size(tiny, capsys, workload):
    code, result = run_once(capsys, workload)
    assert code == 0 and result["correct"] is True
    assert result["attempted"] >= 1 and 0 <= result["failed"] < result["attempted"]
    assert set(result["metrics"]) == {"setup_s", "trials_per_s", "fits_per_s",
                                      "fit_ms.p50", "fit_ms.p99", "peak_rss_mib"}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_accounts_for_its_time_and_restores_the_program(tiny, capsys):
    import gaussfit.cli
    original = gaussfit.cli.main
    code, result = run_once(capsys, "mc_init", trace=1)
    assert code == 0 and result["correct"] is True
    metrics = {k: m["value"] for k, m in result["metrics"].items()}
    overhead = metrics["trace.overhead"]
    assert abs(metrics["trace.self_time_share"] - 1.0) <= max(overhead - 1.0, 0.01)
    assert metrics["initfit.m3_initial_fit.calls"] == 1.0
    assert metrics["linfit.wls_trace.calls"] == 0.0
    assert gaussfit.cli.main is original


def test_a_missing_function_leaves_its_metrics_out():
    tracer = tracing.Tracer()
    main = tracer._wrap("cli.main", lambda: None)
    main()
    metrics = tracing.layer_metrics(tracer, trials=1, invocations=1,
                                    traced_s=1.0, overhead=1.0)
    assert "cli.self_us_per_call" in metrics
    assert "linfit.wls_trace.calls" not in metrics
    assert "methods.M5.us" not in metrics


def test_snr12_check_rejects_swapped_m1_and_m3_rows():
    checks.check_snr12(checks.read_report(make_report(GOOD_SNR12)))
    swapped = dict(GOOD_SNR12, M1=GOOD_SNR12["M3"], M3=GOOD_SNR12["M1"])
    with pytest.raises(checks.CheckFailed):
        checks.check_snr12(checks.read_report(make_report(swapped)))


def test_init_check_rejects_swapped_m1_and_m3_rows():
    good = {m: GOOD_SNR12[m] for m in ("M1", "M3")}
    checks.check_init(checks.read_report(make_report(good)))
    swapped = {"M1": good["M3"], "M3": good["M1"]}
    with pytest.raises(checks.CheckFailed):
        checks.check_init(checks.read_report(make_report(swapped)))


def test_iters_check_rejects_a_slower_converging_m4():
    lines = [HEADER]
    for k in (2, 12):
        for method, mses in (("M4", (0.001, 0.003, 0.06)), ("M5", (0.9, 0.3, 0.07))):
            for param, mse in zip(checks.PARAMS, mses):
                if method == "M4" and k == 2:
                    mse *= 1.2
                lines.append(f"{method},{k},{param},{mse!r},100,0,0,7\n")
    with pytest.raises(checks.CheckFailed):
        checks.check_iters12(checks.read_report("".join(lines).encode()))


def test_fit_check_rejects_a_sigma_off_by_20_percent():
    truth = {"method": "M4", "A": 2.5, "mu": 3.0, "sigma": 0.5, "snr_db": 30.0,
             "x_first": 0.0, "x_last": 4.0}

    def payload(sigma):
        return json.dumps({"A": 2.5, "mu": 3.0, "sigma": sigma, "method": "M4"}).encode()

    checks.check_fit(payload(0.5), truth)
    with pytest.raises(checks.CheckFailed):
        checks.check_fit(payload(0.6), truth)
    with pytest.raises(checks.CheckFailed):
        checks.check_fit(payload(float("nan")), truth)
    with pytest.raises(checks.CheckFailed):
        checks.check_fit(b"{not json", truth)


def test_m1_sigma_is_held_to_the_truncated_area_width():
    truth = {"method": "M1", "A": 1.0, "mu": 9.0, "sigma": 1.3, "snr_db": 30.0,
             "x_first": 0.0, "x_last": 10.0}
    frac = checks.window_fraction(9.0, 1.3, 0.0, 10.0)
    assert 0.77 < frac < 0.79

    def payload(sigma):
        return json.dumps({"A": 1.0, "mu": 9.0, "sigma": sigma, "method": "M1"}).encode()

    checks.check_fit(payload(1.3 * frac), truth)
    with pytest.raises(checks.CheckFailed):
        checks.check_fit(payload(1.3), truth)


def test_failed_operations_are_the_degenerate_entries():
    report = make_report(GOOD_SNR12, degenerate={"M2": 1, "M5": 41})
    assert checks.failed_ops(checks.read_report(report)) == 42
    lines = [HEADER]
    for k, deg in ((1, 7), (12, 3)):
        for param in checks.PARAMS:
            lines.append(f"M5,{k},{param},0.1,100,{deg},0,7\n")
    cells = checks.read_report("".join(lines).encode())
    assert checks.failed_ops(cells, sweep=12.0) == 3
    assert checks.failed_ops(cells) == 10
