"""The benchmark's own tests pass against this checkout.

``perfbench/selftest.py`` is not collected with the package tests.  It
checks the benchmark's checks, one traced ``initfit.m3_initial_fit`` call
per ``mc_init`` trial and every workload at a tiny size, so it runs here
in a subprocess of its own.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_selftest_passes():
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "perfbench/selftest.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
