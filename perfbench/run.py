"""gaussfit benchmark: one workload per run, end-to-end or traced.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload mc_snr12 --seed 1 --seconds 25 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones, timed with tracing off; with
``--trace 1`` they are the per-layer ones of a traced run, see README.md.
Exit codes: 0 when every check passed, 1 when a check failed, 2 when the
program cannot be found or imported.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPEATS = 7
SETUP_CODE = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import gaussfit\n"
    "gaussfit.build_erf_table(0.1, 0.01, 991)\n"
    "print(repr(time.perf_counter() - t0))\n"
)


def setup_seconds() -> float:
    """Median over fresh processes of ``import gaussfit`` plus the default erf table."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def repeat(step, seconds: float) -> list:
    """Run ``step`` once, then again while another run still ends within ``seconds``."""
    results = []
    start = last = time.perf_counter()
    while True:
        results.append(step())
        now = time.perf_counter()
        if now + (now - last) - start > seconds:
            return results
        last = now


def busy_seconds(rounds) -> float:
    """Time spent inside the program's invocations."""
    return sum(sum(r.latencies_s) for r in rounds)


def end_to_end(rounds, setup_s: float) -> dict:
    busy = busy_seconds(rounds)
    # milliseconds per fit, one value per CLI invocation
    per_fit_ms = [1e3 * s / r.fits_per_call for r in rounds for s in r.latencies_s]
    p99 = (statistics.quantiles(per_fit_ms, n=100)[98] if len(per_fit_ms) > 1
           else per_fit_ms[0])
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (setup_s, "s"),
        "trials_per_s": (sum(r.trials for r in rounds) / busy, "trials/s"),
        "fits_per_s": (sum(r.attempted for r in rounds) / busy, "fits/s"),
        "fit_ms.p50": (statistics.median(per_fit_ms), "ms"),
        "fit_ms.p99": (p99, "ms"),
        "peak_rss_mib": (peak_kib / 1024.0, "MiB"),
    }


def traced(workload, seconds: float, spans_path: Path) -> tuple[list, dict]:
    """Untraced and traced rounds in turn; per-layer metrics of the traced ones.

    Alternating lets both kinds of round meet the same machine conditions,
    so the ratio of their times is the tracing overhead.
    """
    from tracing import Tracer, layer_metrics

    tracer = Tracer()

    def pair():
        plain = workload.round()
        with tracer:
            return plain, workload.round()

    plain, traced_rounds = (list(side) for side in zip(*repeat(pair, seconds)))
    tracer.write(spans_path)
    overhead = busy_seconds(traced_rounds) / busy_seconds(plain)
    metrics = layer_metrics(tracer, sum(r.trials for r in traced_rounds),
                            sum(len(r.latencies_s) for r in traced_rounds),
                            busy_seconds(traced_rounds), overhead)
    return plain + traced_rounds, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True,
                        help="seed of the mc_init trials")
    parser.add_argument("--seconds", type=float, required=True,
                        help="measure whole rounds for at most this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--input-seed", type=int, default=None,
                        help="seed of the fixed inputs of mc_snr12, mc_iters12 and"
                             " fit_files (default 7; 19 checks a claim)")
    args = parser.parse_args(argv)

    if not (SRC / "gaussfit" / "__init__.py").is_file():
        print(f"perfbench: no gaussfit package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    try:
        import gaussfit.cli as cli
    except ImportError as err:
        print(f"perfbench: cannot import gaussfit: {err}", file=sys.stderr)
        return 2
    from checks import CheckFailed
    from workloads import FIXED_INPUT_SEED, WORKLOADS, noiseless_checks

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}")
    input_seed = FIXED_INPUT_SEED if args.input_seed is None else args.input_seed

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_dir)
    rounds, correct = [], True
    try:
        setup_s = 0.0 if args.trace else setup_seconds()
        workload = WORKLOADS[args.workload](cli, workdir, args.seed, input_seed)
        try:
            noiseless_checks(cli, workdir)
            workload.prepare()
            if args.trace:
                rounds, metrics = traced(workload, args.seconds,
                                         out_dir / f"spans-{args.workload}.npz")
            else:
                rounds = repeat(workload.round, args.seconds)
                metrics = end_to_end(rounds, setup_s)
            per_round = [sum(r.latencies_s) for r in rounds]
            print(f"perfbench: {len(rounds)} rounds, {sum(per_round):.3f} s in gaussfit,"
                  f" round {min(per_round):.3f}-{max(per_round):.3f} s", file=sys.stderr)
        except CheckFailed as err:
            print(f"perfbench: check failed: {err}", file=sys.stderr)
            correct, metrics = False, {}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "correct": correct,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
