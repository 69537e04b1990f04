"""The traced benchmark run reports every per-layer metric it declares.

Each per-layer metric of ``BENCHMARK.json`` is keyed on a public function
of the package, so renaming or deleting one drops its metric from the
traced result.  ``mc_init`` runs only the stage-1 methods, ``mc_snr12``
all five through the reweighting kernel, and ``mc_iters12`` the iteration
sweep, whose cells the harness scores trace point by trace point.
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


def test_traced_run_reports_every_declared_per_layer_metric():
    _check_traced_run("mc_init")


def test_traced_run_through_the_reweighting_kernel_is_well_formed():
    _check_traced_run("mc_snr12")


def test_traced_run_of_the_iteration_sweep_is_well_formed():
    _check_traced_run("mc_iters12")
