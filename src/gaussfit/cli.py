"""Command line interface.

Subcommands:

* ``fit``       fit one signal CSV with a chosen method, emit JSON
* ``bench snr``   MSE-versus-SNR Monte Carlo sweep, emit CSV
* ``bench iters`` MSE-versus-iteration-count sweep at fixed SNR, emit CSV
* ``erftable``  build and persist the error-function lookup table

Exit codes: 0 success, 2 argument/input parse error, 3 fit failure
(``fit`` only).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from .bench import BenchConfig, run_bench_iters, run_bench_snr, write_report_csv
from .errors import GaussFitError, ParseError
from .initfit import (
    InitConfig,
    build_erf_table,
    default_erf_table,
    read_erf_table_csv,
    write_erf_table_csv,
)
from .methods import METHOD_IDS, MethodSpec, run_method
from .signal import read_signal_csv

_EXIT_USAGE = 2
_EXIT_FIT = 3


def _parse_range(text: str, what: str) -> tuple[float, float, float]:
    """Parse ``start:step:stop`` (write ``--flag=-10:0.5:20`` for negatives)."""
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"{what} must look like start:step:stop")
    try:
        start, step, stop = (float(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"non-numeric {what}: {text!r}") from None
    if step <= 0 or stop < start:
        raise argparse.ArgumentTypeError(f"{what} must be increasing: {text!r}")
    return start, step, stop


def _parse_iter_sweep(text: str) -> range:
    """Parse ``start:step:stop`` of whole iteration counts."""
    bounds = _parse_range(text, "--iter-sweep")
    if not all(v.is_integer() for v in bounds):
        raise argparse.ArgumentTypeError(f"--iter-sweep must be whole numbers: {text!r}")
    start, step, stop = (int(v) for v in bounds)
    return range(start, stop + 1, step)


def _parse_methods(text: str) -> tuple[str, ...]:
    methods = tuple(m.strip() for m in text.split(",") if m.strip())
    for m in methods:
        if m not in METHOD_IDS:
            raise argparse.ArgumentTypeError(
                f"unknown method {m!r}; valid: {', '.join(METHOD_IDS)}"
            )
    if not methods:
        raise argparse.ArgumentTypeError("no methods given")
    return methods


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by later calls."""
    parser = argparse.ArgumentParser(
        prog="gaussfit",
        description="Log-domain Gaussian fitting and its Monte Carlo benchmark.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", help="fit one x,y CSV and write the result as JSON")
    fit.add_argument("--input", required=True, help="signal CSV with header x,y")
    fit.add_argument("--method", required=True, choices=METHOD_IDS)
    fit.add_argument("--iters", type=int, default=None,
                     help="iteration count for the reweighted stage "
                          "(stage 2 of M2/M4, default 2; all of M5, default 12)")
    fit.add_argument("--window-l", type=int, default=3,
                     help="moving-average window length for the M3/M4 peak pick"
                          " (default 3)")
    fit.add_argument("--clamp-floor", type=float, default=None,
                     help="log clamp floor; default max(y) * 1e-6")
    fit.add_argument("--erf-table", default=None,
                     help="lookup-table CSV to load instead of building one")
    fit.add_argument("--output", required=True, help="output JSON path ('-' = stdout)")

    bench = sub.add_parser("bench", help="Monte Carlo MSE benchmarks")
    bench_sub = bench.add_subparsers(dest="bench_mode", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--trials", type=int, default=2000,
                        help="Monte Carlo trials per sweep point (default 2000)")
    common.add_argument("--seed", type=int, default=7,
                        help="master seed; reports are byte-reproducible for a"
                             " fixed seed (default 7)")
    common.add_argument("--methods", type=_parse_methods,
                        default=METHOD_IDS,
                        help="comma-separated subset of M1..M5 (default all)")
    common.add_argument("--stage2-iters", type=int, default=2,
                        help="stage-2 iterations for M2/M4 (default 2)")
    common.add_argument("--m5-iters", type=int, default=12,
                        help="iterations for M5 (default 12)")
    common.add_argument("--timing", action="store_true",
                        help="measure per-method wall time; off by default so"
                             " repeated runs are byte-identical")
    common.add_argument("--workers", type=int, default=1,
                        help="worker processes over sweep points (default 1)")
    common.add_argument("--out", required=True, help="output CSV path")

    snr = bench_sub.add_parser("snr", parents=[common],
                               help="MSE versus SNR (default sweep -10:0.5:20 dB)")
    snr.add_argument("--snr", type=lambda s: _parse_range(s, "--snr"),
                     default=(-10.0, 0.5, 20.0), metavar="START:STEP:STOP",
                     help="SNR sweep in dB; write --snr=-10:0.5:20 (default)")

    iters = bench_sub.add_parser("iters", parents=[common],
                                 help="MSE versus iteration count at fixed SNR")
    iters.add_argument("--snr-db", type=float, default=12.0,
                       help="fixed SNR in dB (default 12)")
    iters.add_argument("--iter-sweep", type=_parse_iter_sweep,
                       default=range(1, 13), metavar="START:STEP:STOP",
                       help="iteration sweep (default 1:1:12)")

    erf = sub.add_parser("erftable", help="build the error-function lookup table")
    erf.add_argument("--kmin", type=float, default=0.1, help="first k (default 0.1)")
    erf.add_argument("--kstep", type=float, default=0.01, help="k spacing (default 0.01)")
    erf.add_argument("--kmax", type=float, default=10.0, help="last k (default 10)")
    erf.add_argument("--out", required=True, help="output CSV path")
    return parser


def _cmd_fit(args) -> int:
    try:
        signal = read_signal_csv(args.input)
    except (OSError, ParseError) as err:
        print(f"gaussfit: cannot read {args.input}: {err}", file=sys.stderr)
        return _EXIT_USAGE
    try:
        if args.clamp_floor is not None and not (
            math.isfinite(args.clamp_floor) and args.clamp_floor > 0
        ):
            raise GaussFitError(f"--clamp-floor must be > 0, got {args.clamp_floor}")
        init = InitConfig(window_l=args.window_l)
        kwargs = {"init": init, "clamp_floor": args.clamp_floor}
        if args.iters is not None:
            kwargs["stage2_iters"] = args.iters
            kwargs["m5_iters"] = args.iters
        spec = MethodSpec(method_id=args.method, **kwargs)
        table = (default_erf_table() if args.erf_table is None
                 else read_erf_table_csv(args.erf_table))
    except (OSError, GaussFitError) as err:
        print(f"gaussfit: {err}", file=sys.stderr)
        return _EXIT_USAGE
    try:
        result = run_method(spec, signal, table)
    except GaussFitError as err:
        print(f"gaussfit: fit failed: {err}", file=sys.stderr)
        return _EXIT_FIT
    payload = {
        "A": result.params.amplitude,
        "mu": result.params.mu,
        "sigma": result.params.sigma,
        "method": result.method,
        "iterations_run": result.iterations_run,
        "status": result.status,
    }
    for key, value in sorted(result.diagnostics.items()):
        payload[f"diagnostics.{key}"] = value
    text = json.dumps(payload, indent=2) + "\n"
    try:
        if args.output == "-":
            sys.stdout.write(text)
        else:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
    except OSError as err:
        print(f"gaussfit: cannot write {args.output}: {err}", file=sys.stderr)
        return _EXIT_USAGE
    return 0


def _bench_config(args, mode: str) -> BenchConfig:
    kwargs = dict(
        trials=args.trials,
        master_seed=args.seed,
        methods=tuple(args.methods),
        stage2_iters=args.stage2_iters,
        m5_iters=args.m5_iters,
        timing=args.timing,
        workers=args.workers,
    )
    if mode == "snr":
        start, step, stop = args.snr
        kwargs.update(snr_start_db=start, snr_step_db=step, snr_stop_db=stop)
    else:
        kwargs.update(iter_sweep=tuple(args.iter_sweep), fixed_snr_db=args.snr_db)
    return BenchConfig(**kwargs)


def _cmd_bench(args) -> int:
    try:
        config = _bench_config(args, args.bench_mode)
    except GaussFitError as err:
        print(f"gaussfit: {err}", file=sys.stderr)
        return _EXIT_USAGE
    if args.bench_mode == "snr":
        report = run_bench_snr(config)
    else:
        report = run_bench_iters(config)
    try:
        write_report_csv(report, args.out)
    except OSError as err:
        print(f"gaussfit: cannot write {args.out}: {err}", file=sys.stderr)
        return _EXIT_USAGE
    return 0


def _cmd_erftable(args) -> int:
    if args.kstep <= 0 or args.kmax < args.kmin or args.kmin <= 0:
        print("gaussfit: k grid must be positive and increasing", file=sys.stderr)
        return _EXIT_USAGE
    count = int((args.kmax - args.kmin) / args.kstep + 1e-9) + 1
    table = build_erf_table(args.kmin, args.kstep, count)
    try:
        write_erf_table_csv(table, args.out)
    except OSError as err:
        print(f"gaussfit: cannot write {args.out}: {err}", file=sys.stderr)
        return _EXIT_USAGE
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "fit":
        return _cmd_fit(args)
    if args.command == "bench":
        return _cmd_bench(args)
    return _cmd_erftable(args)


if __name__ == "__main__":
    sys.exit(main())
