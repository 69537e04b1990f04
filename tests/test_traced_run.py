"""The traced benchmark run reports every per-layer metric it declares.

Each per-layer metric of ``BENCHMARK.json`` is keyed on a public function
of the package, so renaming or deleting one drops its metric from the
traced result.  ``mc_init`` runs only the stage-1 methods, ``mc_snr12``
all five through the reweighting kernel, and ``mc_iters12`` the iteration
sweep, whose cells the harness scores trace point by trace point.  Stage 1
runs once per trial and family, so ``mc_snr12`` fits the split area once
per trial for M3 and M4 together.  ``fit_files`` runs one ``gaussfit fit``
per corpus file, each method on a fifth of them, so it is the workload on
which the per-call metrics of the reweighting kernel read non-zero.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _reject(constant):
    raise ValueError(f"non-finite JSON number {constant}")


def _check_traced_run(workload):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1], parse_constant=_reject)
    assert result["correct"] is True
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def test_traced_run_reports_every_declared_per_layer_metric():
    _check_traced_run("mc_init")


def test_traced_run_through_the_reweighting_kernel_is_well_formed():
    metrics = _check_traced_run("mc_snr12")
    # M3 and M4 share one split-area fit per trial
    assert metrics["initfit.m3_initial_fit.calls"] == 1.0


def test_traced_run_of_the_iteration_sweep_is_well_formed():
    _check_traced_run("mc_iters12")


def test_traced_run_of_single_fits_counts_kernel_and_method_calls():
    metrics = _check_traced_run("fit_files")
    # M2, M4 and M5 each run one trace per fit
    assert metrics["linfit.wls_trace.calls"] == 0.6
    for mid in ("M1", "M2", "M3", "M4", "M5"):
        assert metrics[f"methods.{mid}.calls"] == 0.2
