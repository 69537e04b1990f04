"""The traced benchmark run reports every per-layer metric it declares.

Each per-layer metric of ``BENCHMARK.json`` is keyed on a public function
of the package, so renaming or deleting one drops its metric from the
traced result.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _reject(constant):
    raise ValueError(f"non-finite JSON number {constant}")


def test_traced_run_reports_every_declared_per_layer_metric():
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mc_init", "--seed", "3",
         "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1], parse_constant=_reject)
    assert result["correct"] is True
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
