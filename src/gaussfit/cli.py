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
from .errors import GaussFitError, InvalidGridError, ParseError
from .initfit import (
    build_erf_table,
    default_erf_table,
    read_erf_table_csv,
    write_erf_table_csv,
)
from .methods import METHOD_IDS, MethodSpec, run_method
from .signal import _write_in_place, read_signal_csv

_EXIT_USAGE = 2
_EXIT_FIT = 3

# indent=2 forces the pure-Python encoder; with these separators the C
# encoder puts each member of a flat object on its own line, as indent=2 does
_FLAT_JSON = json.JSONEncoder(allow_nan=False, separators=(",\n  ", ": "))


def _parse_range(text: str, what: str) -> tuple[float, float, float]:
    """Parse ``start:step:stop`` (write ``--flag=-10:0.5:20`` for negatives)."""
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"{what} must look like start:step:stop")
    try:
        start, step, stop = (float(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"non-numeric {what}: {text!r}") from None
    if not (0 < step < math.inf and -math.inf < start <= stop < math.inf):
        raise argparse.ArgumentTypeError(f"{what} must be finite and increasing: {text!r}")
    return start, step, stop


def _parse_iter_sweep(text: str) -> range:
    """Parse ``start:step:stop`` of whole iteration counts."""
    bounds = _parse_range(text, "--iter-sweep")
    if not all(v.is_integer() for v in bounds):
        raise argparse.ArgumentTypeError(f"--iter-sweep must be whole numbers: {text!r}")
    start, step, stop = (int(v) for v in bounds)
    return range(start, stop + 1, step)


def _parse_methods(text: str) -> tuple[str, ...]:
    """Split a comma-separated method list; ``BenchConfig`` checks the ids."""
    return tuple(m.strip() for m in text.split(",") if m.strip())


@functools.cache
def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The argument parser and its subcommands' parsers by name, built on
    first use and shared by later calls."""
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
    common.add_argument("--stage2-iters", type=int, default=None,
                        help="stage-2 iterations for M2/M4 (default 2)")
    common.add_argument("--m5-iters", type=int, default=None,
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
    return parser, sub.choices


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """``parse_args`` of the whole tree, which hands everything after a
    subcommand's name to that subcommand's parser; doing that directly
    halves the parse."""
    parser, commands = _build_parser()
    if not argv or argv[0] not in commands:
        return parser.parse_args(argv)
    args, extras = commands[argv[0]].parse_known_args(argv[1:])
    if extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    args.command = argv[0]
    return args


def _flat_json(payload: dict) -> str:
    """``json.dumps(payload, indent=2, allow_nan=False) + "\\n"`` of a
    non-empty object whose values are all scalars."""
    return "{\n  " + _FLAT_JSON.encode(payload)[1:-1] + "\n}\n"


def _cmd_fit(args) -> int:
    try:
        signal = read_signal_csv(args.input)
    except (OSError, ParseError) as err:
        print(f"gaussfit: cannot read {args.input}: {err}", file=sys.stderr)
        return _EXIT_USAGE
    try:
        spec = MethodSpec(args.method, iters=args.iters, window_l=args.window_l,
                          clamp_floor=args.clamp_floor)
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
        # a split area beyond the float range has no JSON number
        finite = not isinstance(value, float) or math.isfinite(value)
        payload[f"diagnostics.{key}"] = value if finite else None
    text = _flat_json(payload)
    try:
        if args.output == "-":
            sys.stdout.write(text)
        else:
            _write_in_place(args.output, text)
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
    if not (0 < args.kstep < math.inf and 0 < args.kmin <= args.kmax < math.inf):
        print("gaussfit: k grid must be finite, positive and increasing", file=sys.stderr)
        return _EXIT_USAGE
    steps = (args.kmax - args.kmin) / args.kstep
    if not math.isfinite(steps):
        print("gaussfit: k grid must have a finite number of points", file=sys.stderr)
        return _EXIT_USAGE
    try:
        table = build_erf_table(args.kmin, args.kstep, int(steps + 1e-9) + 1)
    except InvalidGridError as err:
        print(f"gaussfit: {err}", file=sys.stderr)
        return _EXIT_USAGE
    try:
        write_erf_table_csv(table, args.out)
    except OSError as err:
        print(f"gaussfit: cannot write {args.out}: {err}", file=sys.stderr)
        return _EXIT_USAGE
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    if args.command == "fit":
        return _cmd_fit(args)
    if args.command == "bench":
        return _cmd_bench(args)
    return _cmd_erftable(args)


if __name__ == "__main__":
    sys.exit(main())
