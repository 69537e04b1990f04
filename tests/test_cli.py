"""End-to-end tests of the command line interface (subprocess level)."""

import ast
import contextlib
import io
import json
import math
import os
import re
import stat
import subprocess
import sys
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaussfit import GaussianParams, sample_gaussian, write_signal_csv

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _run(*args, **extra_env):
    env = dict(os.environ, **extra_env)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "gaussfit", *args],
        capture_output=True,
        text=True,
        env=env,
    )


@pytest.fixture(scope="module")
def noiseless_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "long_tail.csv"
    sig = sample_gaussian(GaussianParams(1.0, 9.0, 1.3), 0.01, 1001)
    write_signal_csv(sig, path)
    return path


@pytest.fixture(scope="module")
def small_table_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "erf.csv"
    res = _run("erftable", "--kmin", "0.1", "--kstep", "0.01", "--kmax", "10",
               "--out", str(path))
    assert res.returncode == 0, res.stderr
    return path


def test_help_exits_zero():
    assert _run("--help").returncode == 0
    assert _run("bench", "snr", "--help").returncode == 0


# What argparse printed and returned for these command lines when ``main``
# parsed every call through the whole parser tree.  ``main`` now hands a
# known subcommand's arguments to that subcommand's parser alone, and must
# print and return the same.
_USAGE = "usage: gaussfit [-h] {fit,bench,erftable} ...\n"
_FIT_USAGE = (
    "usage: gaussfit fit [-h] --input INPUT --method {M1,M2,M3,M4,M5}\n"
    "                    [--iters ITERS] [--window-l WINDOW_L]\n"
    "                    [--clamp-floor CLAMP_FLOOR] [--erf-table ERF_TABLE]\n"
    "                    --output OUTPUT\n"
)
_DISPATCH = {
    "no_arguments": ([], 2, "", _USAGE + "gaussfit: error: the following arguments are"
                     " required: command\n"),
    "unknown_command": (["nope"], 2, "", _USAGE + "gaussfit: error: argument command:"
                        " invalid choice: 'nope' (choose from 'fit', 'bench', 'erftable')\n"),
    "help": (["--help"], 0, _USAGE + (
        "\n"
        "Log-domain Gaussian fitting and its Monte Carlo benchmark.\n"
        "\n"
        "positional arguments:\n"
        "  {fit,bench,erftable}\n"
        "    fit                 fit one x,y CSV and write the result as JSON\n"
        "    bench               Monte Carlo MSE benchmarks\n"
        "    erftable            build the error-function lookup table\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"), ""),
    "double_dash": (["--", "fit", "--input", "x", "--method", "M1", "--output", "-"], 2, "",
                    _USAGE + "gaussfit: error: argument command: invalid choice: '--'"
                    " (choose from 'fit', 'bench', 'erftable')\n"),
    "fit_no_options": (["fit"], 2, "", _FIT_USAGE + "gaussfit fit: error: the following"
                       " arguments are required: --input, --method, --output\n"),
    "fit_stray": (["fit", "--input", "x", "--method", "M1", "--output", "-", "stray"], 2, "",
                  _USAGE + "gaussfit: error: unrecognized arguments: stray\n"),
    "fit_abbreviation": (["fit", "--inp", "x", "--method", "M1", "--output", "-"], 2, "",
                         "gaussfit: cannot read x: [Errno 2] No such file or directory:"
                         " 'x'\n"),
    "bench_no_mode": (["bench"], 2, "", "usage: gaussfit bench [-h] {snr,iters} ...\n"
                      "gaussfit bench: error: the following arguments are required:"
                      " bench_mode\n"),
    "bench_stray": (["bench", "snr", "--out", "x", "stray"], 2, "",
                    _USAGE + "gaussfit: error: unrecognized arguments: stray\n"),
    "erftable_missing_value": (
        ["erftable", "--kmin"], 2, "",
        "usage: gaussfit erftable [-h] [--kmin KMIN] [--kstep KSTEP] [--kmax KMAX]\n"
        "                         --out OUT\n"
        "gaussfit erftable: error: argument --kmin: expected one argument\n"),
}


@pytest.mark.parametrize("argv, code, out, err", list(_DISPATCH.values()), ids=list(_DISPATCH))
def test_dispatch_prints_and_returns_what_the_whole_tree_did(argv, code, out, err, tmp_path,
                                                            monkeypatch, capsys):
    from gaussfit import cli

    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to the terminal width
    monkeypatch.chdir(tmp_path)
    try:
        got = cli.main(argv)
    except SystemExit as exc:
        got = exc.code
    assert (got, *capsys.readouterr()) == (code, out, err)
    assert not os.listdir(tmp_path)


def test_erftable_output(tmp_path):
    out = tmp_path / "t.csv"
    res = _run("erftable", "--kmin", "0.1", "--kstep", "0.1", "--kmax", "1.0",
               "--out", str(out))
    assert res.returncode == 0, res.stderr
    lines = out.read_text().splitlines()
    assert lines[0] == "k,erf_k_over_sqrt2"
    assert len(lines) == 11
    k, v = (float(c) for c in lines[-1].split(","))
    assert k == 1.0
    assert v == pytest.approx(math.erf(1.0 / math.sqrt(2.0)), abs=1e-9)


def test_fit_m3_json(noiseless_csv, tmp_path):
    out = tmp_path / "fit.json"
    res = _run("fit", "--input", str(noiseless_csv), "--method", "M3",
               "--output", str(out))
    assert res.returncode == 0, res.stderr
    payload = json.loads(out.read_text())
    assert payload["method"] == "M3"
    assert payload["status"] == "converged"
    assert payload["A"] == pytest.approx(1.0, rel=1e-3)
    assert payload["mu"] == pytest.approx(9.0, abs=0.01)
    assert payload["sigma"] == pytest.approx(1.3, rel=0.005)
    assert "diagnostics.rho" in payload
    assert "diagnostics.k_star_beta" in payload


def test_fit_m5_with_explicit_floor(noiseless_csv, tmp_path):
    out = tmp_path / "fit5.json"
    res = _run("fit", "--input", str(noiseless_csv), "--method", "M5",
               "--iters", "1", "--clamp-floor", "1e-12", "--output", str(out))
    assert res.returncode == 0, res.stderr
    payload = json.loads(out.read_text())
    assert payload["iterations_run"] == 1
    assert payload["A"] == pytest.approx(1.0, rel=1e-6)
    assert payload["mu"] == pytest.approx(9.0, rel=1e-6)
    assert payload["sigma"] == pytest.approx(1.3, rel=1e-6)


def test_fit_with_loaded_table(noiseless_csv, small_table_csv, tmp_path):
    out = tmp_path / "fit_tab.json"
    res = _run("fit", "--input", str(noiseless_csv), "--method", "M4",
               "--erf-table", str(small_table_csv), "--output", str(out))
    assert res.returncode == 0, res.stderr
    payload = json.loads(out.read_text())
    assert payload["sigma"] == pytest.approx(1.3, rel=1e-3)
    # the two-stage result keeps its stage-1 diagnostics
    assert "diagnostics.rho" in payload
    assert "diagnostics.s_beta" in payload


def test_fit_stdout_output(noiseless_csv):
    res = _run("fit", "--input", str(noiseless_csv), "--method", "M1",
               "--output", "-")
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload["method"] == "M1"


def test_fit_missing_input_is_usage_error(tmp_path):
    res = _run("fit", "--input", str(tmp_path / "nope.csv"), "--method", "M1",
               "--output", "-")
    assert res.returncode == 2
    assert "cannot read" in res.stderr


def test_fit_malformed_csv_is_usage_error(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("x,y\n0,1\n1,2\n2.5,3\n")
    res = _run("fit", "--input", str(bad), "--method", "M1", "--output", "-")
    assert res.returncode == 2


def test_fit_input_not_utf8_is_usage_error(tmp_path):
    bad = tmp_path / "bad.csv"
    for text in (b"x,y\n0,1\n1,\xff\n2,3\n", b"x,y\r0,1\r1,\xff\r2,3\r"):
        bad.write_bytes(text)
        res = _run("fit", "--input", str(bad), "--method", "M1", "--output", "-")
        assert res.returncode == 2
        assert "cannot read" in res.stderr
        assert "(line 3)" in res.stderr
        assert "Traceback" not in res.stderr


def test_fit_erf_table_not_utf8_is_usage_error(noiseless_csv, tmp_path):
    table = tmp_path / "erf.csv"
    table.write_bytes(b"k,erf_k_over_sqrt2\n0.1,0.0797\n\xff0.2,0.159\n")
    res = _run("fit", "--input", str(noiseless_csv), "--method", "M3",
               "--erf-table", str(table), "--output", "-")
    assert res.returncode == 2
    assert "(line 3)" in res.stderr
    assert "Traceback" not in res.stderr


def test_fit_failure_exit_code(tmp_path):
    flat = tmp_path / "flat.csv"
    flat.write_text("x,y\n" + "".join(f"{i * 0.1:.1f},0.0\n" for i in range(10)))
    res = _run("fit", "--input", str(flat), "--method", "M1", "--output", "-")
    assert res.returncode == 3
    assert "fit failed" in res.stderr
    assert "[stage: naive_peak]" in res.stderr
    short = tmp_path / "short.csv"
    short.write_text("x,y\n0,0.5\n1,1.0\n2,0.5\n")
    res = _run("fit", "--input", str(short), "--method", "M3", "--output", "-")
    assert res.returncode == 3
    assert "[stage: windowed_peak]" in res.stderr


def test_fit_twice_in_one_process(noiseless_csv, tmp_path):
    """The parser and the default table are built once per process; a
    second call must write the same bytes, and nothing may alter the
    shared table."""
    from gaussfit import cli, default_erf_table

    outs = [tmp_path / "first.json", tmp_path / "second.json"]
    for out in outs:
        code = cli.main(["fit", "--input", str(noiseless_csv), "--method", "M4",
                         "--output", str(out)])
        assert code == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()
    table = default_erf_table()
    assert not table.k.flags.writeable
    assert not table.values.flags.writeable


def test_fit_output_does_not_depend_on_csv_route(noiseless_csv, tmp_path):
    """A plain CSV (read by numpy's C parser) and the same rows with CRLF
    endings and a blank line (read by ``float``) fit to the same bytes."""
    from gaussfit import cli

    lines = noiseless_csv.read_text().splitlines()
    other = tmp_path / "crlf.csv"
    other.write_bytes("\r\n".join(lines[:500] + [""] + lines[500:]).encode() + b"\r\n")
    outs = [tmp_path / "plain.json", tmp_path / "crlf.json"]
    for path, out in zip((noiseless_csv, other), outs):
        assert cli.main(["fit", "--input", str(path), "--method", "M5",
                         "--output", str(out)]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()


@pytest.fixture(scope="module")
def fresh_fit_bytes(noiseless_csv, tmp_path_factory):
    """What an M4 fit writes to a path that did not exist."""
    from gaussfit import cli

    out = tmp_path_factory.mktemp("fresh") / "fit.json"
    assert cli.main(["fit", "--input", str(noiseless_csv), "--method", "M4",
                     "--output", str(out)]) == 0
    return out.read_bytes()


@pytest.mark.parametrize("old", [b"{}", b"x" * 10_000], ids=["shorter", "longer"])
def test_fit_overwrites_an_existing_output_in_place(noiseless_csv, fresh_fit_bytes,
                                                    tmp_path, old):
    """An existing output, shorter or longer than the new text, ends up
    holding exactly what a fresh path gets, in the same file."""
    from gaussfit import cli

    out = tmp_path / "fit.json"
    out.write_bytes(old)
    inode = out.stat().st_ino
    assert cli.main(["fit", "--input", str(noiseless_csv), "--method", "M4",
                     "--output", str(out)]) == 0
    assert out.read_bytes() == fresh_fit_bytes
    assert out.stat().st_ino == inode


def test_fit_output_is_opened_without_truncation(noiseless_csv, tmp_path):
    """The output is opened without ``O_TRUNC``: truncating to zero before
    the write is what the in-place overwrite avoids."""
    from gaussfit import cli

    calls, real_open = [], os.open

    def recording_open(path, flags, *args):
        calls.append(flags)
        return real_open(path, flags, *args)

    out = tmp_path / "fit.json"
    with mock.patch.object(os, "open", recording_open):
        assert cli.main(["fit", "--input", str(noiseless_csv), "--method", "M1",
                         "--output", str(out)]) == 0
    assert len(calls) == 1
    assert calls[0] & os.O_TRUNC == 0
    assert calls[0] & os.O_WRONLY and calls[0] & os.O_CREAT


def test_fit_output_to_devnull(noiseless_csv):
    """A file that is not regular is written and never truncated."""
    from gaussfit import cli

    assert cli.main(["fit", "--input", str(noiseless_csv), "--method", "M1",
                     "--output", os.devnull]) == 0


def test_fit_output_to_a_directory_is_usage_error(noiseless_csv, tmp_path, capsys):
    from gaussfit import cli

    assert cli.main(["fit", "--input", str(noiseless_csv), "--method", "M1",
                     "--output", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith(f"gaussfit: cannot write {tmp_path}: ")


@pytest.mark.parametrize("argv", [
    ["erftable", "--kmin", "0.1", "--kstep", "0.1", "--kmax", "1.0"],
    ["bench", "snr", "--snr=12:1:12", "--trials", "3", "--methods", "M1,M4"],
], ids=["erftable", "bench"])
@pytest.mark.parametrize("old", [b"{}", b"x" * 100_000], ids=["shorter", "longer"])
def test_out_overwrites_an_existing_file_in_place(argv, old, tmp_path):
    """``bench --out`` and ``erftable --out`` write over an existing file as
    ``fit --output`` does: same bytes as a fresh path, same inode."""
    from gaussfit import cli

    fresh, out = tmp_path / "fresh.csv", tmp_path / "out.csv"
    assert cli.main([*argv, "--out", str(fresh)]) == 0
    out.write_bytes(old)
    inode = out.stat().st_ino
    assert cli.main([*argv, "--out", str(out)]) == 0
    assert out.read_bytes() == fresh.read_bytes()
    assert out.stat().st_ino == inode


@pytest.mark.parametrize("old, cuts", [(None, []), (b"abc", []), (b"123456", []),
                                       (b"x" * 100, [6])],
                         ids=["new", "shorter", "equal", "longer"])
def test_in_place_writer_cuts_only_a_longer_regular_file(old, cuts, tmp_path):
    from gaussfit import signal

    path = tmp_path / "out.txt"
    if old is not None:
        path.write_bytes(old)
    with mock.patch.object(os, "ftruncate", wraps=os.ftruncate) as cut:
        signal._write_in_place(path, "hello\n")
    assert [call.args[1] for call in cut.call_args_list] == cuts
    assert path.read_bytes() == b"hello\n"


def test_in_place_writer_never_cuts_devnull():
    """Not even when its size reads larger than the text, as a FIFO's
    does on some systems while it holds unread data."""
    from gaussfit import signal

    real_fstat = os.fstat

    def sized_fstat(fd):
        info = list(real_fstat(fd))
        info[stat.ST_SIZE] = 1 << 20
        return os.stat_result(info)

    with (mock.patch.object(os, "ftruncate") as cut,
          mock.patch.object(os, "fstat", sized_fstat)):
        signal._write_in_place(os.devnull, "hello\n")
    cut.assert_not_called()


def test_in_place_writer_resumes_a_short_write(tmp_path):
    """``os.write`` may write only part of its buffer; the rest follows."""
    from gaussfit import signal

    real_write = os.write
    path = tmp_path / "out.txt"
    with mock.patch.object(os, "write", lambda fd, data: real_write(fd, data[:2])):
        signal._write_in_place(path, "hello, world\n")
    assert path.read_bytes() == b"hello, world\n"


def test_bench_snr_deterministic_bytes(tmp_path):
    args = ("bench", "snr", "--trials", "3", "--seed", "7",
            "--methods", "M1,M3", "--snr=12:0.5:12.5")
    out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    res1 = _run(*args, "--out", str(out1))
    res2 = _run(*args, "--out", str(out2))
    assert res1.returncode == 0, res1.stderr
    assert res2.returncode == 0, res2.stderr
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().splitlines()
    assert len(lines) == 1 + 2 * 2 * 3


# numpy's AVX-512 kernels, turned off to run at the AVX2 level
_AVX512_DISPATCH = ("X86_V4", "AVX512_ICL", "AVX512_SPR")


def test_bench_snr_agrees_across_simd_dispatch_levels(tmp_path):
    """Across numpy's SIMD levels ``exp`` and ``log`` differ in the last
    bits, so report bytes do too; the degenerate counts agree and every
    MSE agrees to 1e-9 relative."""
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

    if "X86_V4" not in __cpu_dispatch__ or not __cpu_features__.get("X86_V4"):
        pytest.skip("numpy runs no X86_V4 kernels here to turn off")
    disabled = " ".join(f for f in _AVX512_DISPATCH if f in __cpu_dispatch__)
    args = ("bench", "snr", "--trials", "200", "--seed", "7", "--snr=12:1:12")
    reports = []
    for name, extra_env in (("v4", {}), ("v3", {"NPY_DISABLE_CPU_FEATURES": disabled})):
        out = tmp_path / f"{name}.csv"
        res = _run(*args, "--out", str(out), **extra_env)
        assert res.returncode == 0, res.stderr
        reports.append([line.split(",") for line in out.read_text().splitlines()[1:]])
    full, reduced = reports
    assert len(full) == len(reduced) == 15
    for a, b in zip(full, reduced):
        mse_a, mse_b = float(a.pop(3)), float(b.pop(3))
        assert a == b  # method, sweep, param, trials, degenerate, time, seed
        assert mse_b == pytest.approx(mse_a, rel=1e-9, abs=0)


def test_bench_iters_runs(tmp_path):
    out = tmp_path / "it.csv"
    res = _run("bench", "iters", "--trials", "2", "--seed", "3",
               "--methods", "M4", "--iter-sweep", "1:1:3", "--snr-db", "12",
               "--out", str(out))
    assert res.returncode == 0, res.stderr
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + 3 * 3
    assert lines[1].split(",")[1] == "1"


def test_bench_iters_rejects_fractional_sweep(tmp_path):
    """Rounding 1:0.5:3 to whole counts would repeat the point k=2."""
    out = tmp_path / "it.csv"
    res = _run("bench", "iters", "--trials", "2", "--methods", "M5",
               "--iter-sweep", "1:0.5:3", "--out", str(out))
    assert res.returncode == 2
    assert "whole numbers" in res.stderr
    assert not out.exists()


def test_bench_rejects_unknown_method(tmp_path):
    res = _run("bench", "snr", "--trials", "1", "--methods", "M9",
               "--out", str(tmp_path / "x.csv"))
    assert (res.returncode, res.stdout) == (2, "")
    assert res.stderr == "gaussfit: unknown method id 'M9'; valid: M1, M2, M3, M4, M5\n"
    assert not (tmp_path / "x.csv").exists()


def test_bench_rejects_an_empty_method_list(tmp_path):
    res = _run("bench", "snr", "--trials", "1", "--methods", " , ",
               "--out", str(tmp_path / "x.csv"))
    assert (res.returncode, res.stderr) == (2, "gaussfit: at least one method required\n")


def test_negative_snr_range_with_equals_form(tmp_path):
    out = tmp_path / "neg.csv"
    res = _run("bench", "snr", "--trials", "2", "--seed", "5",
               "--methods", "M1", "--snr=-2:1:-1", "--out", str(out))
    assert res.returncode == 0, res.stderr
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + 2 * 1 * 3
    assert lines[1].startswith("M1,-2,")


def test_fit_iters_below_one_is_usage_error_for_every_method(noiseless_csv):
    for method in ("M1", "M2", "M3", "M4", "M5"):
        res = _run("fit", "--input", str(noiseless_csv), "--method", method,
                   "--iters", "0", "--output", "-")
        assert (res.returncode, res.stdout) == (2, ""), method
        assert res.stderr == "gaussfit: iters must be >= 1, got 0\n", method


@pytest.mark.parametrize("floor", ["nan", "inf", "0", "-1"])
def test_fit_bad_clamp_floor_is_usage_error(noiseless_csv, floor):
    res = _run("fit", "--input", str(noiseless_csv), "--method", "M3",
               f"--clamp-floor={floor}", "--output", "-")
    assert (res.returncode, res.stdout) == (2, "")
    assert res.stderr == (f"gaussfit: clamp floor must be finite and > 0,"
                          f" got {float(floor)!r}\n")


def test_fit_window_below_one_is_usage_error(noiseless_csv):
    res = _run("fit", "--input", str(noiseless_csv), "--method", "M4",
               "--window-l", "0", "--output", "-")
    assert (res.returncode, res.stdout) == (2, "")
    assert res.stderr == "gaussfit: window_l must be >= 1, got 0\n"


# Numbers that once ended in a traceback and exit 1: a non-finite value, a
# grid point 0 * inf, and SNRs whose noise power overflows or underflows.
_BAD_NUMBERS = {
    "snr_nan": ("bench", "snr", "--trials", "1", "--snr=nan:1:2"),
    "snr_inf_step": ("bench", "snr", "--trials", "1", "--snr=0:inf:2"),
    "snr_power_underflow": ("bench", "snr", "--trials", "1", "--snr=1e308:1e308:1e308"),
    "snr_power_overflow": ("bench", "snr", "--trials", "1", "--snr=-1e6:1:-1e6"),
    "snr_count_inf": ("bench", "snr", "--trials", "1", "--snr=-1e308:1:1e308"),
    "snr_db_minus_inf": ("bench", "iters", "--trials", "1", "--snr-db=-inf"),
    "snr_db_nan": ("bench", "iters", "--trials", "1", "--snr-db", "nan"),
    "kmin_nan": ("erftable", "--kmin", "nan"),
    "kmax_inf": ("erftable", "--kmax", "inf"),
    "k_count_inf": ("erftable", "--kmin", "1e-300", "--kstep", "1e-300",
                    "--kmax", "1e300"),
    # finite point counts above the ceilings, refused before anything is built
    "snr_count_huge": ("bench", "snr", "--trials", "1", "--snr=0:1e-9:1"),
    "k_count_huge": ("erftable", "--kstep", "1e-12"),
}


@pytest.mark.parametrize("argv", list(_BAD_NUMBERS.values()), ids=list(_BAD_NUMBERS))
def test_bad_numbers_are_usage_errors(argv, tmp_path):
    out = tmp_path / "out.csv"
    res = _run(*argv, "--out", str(out))
    lines = res.stderr.splitlines()
    assert res.returncode == 2 and "Traceback" not in res.stderr, res.stderr
    # one message line, after the usage block that argparse prints first
    assert [line for line in lines if not line.startswith(("usage:", " "))] == lines[-1:]
    assert lines[-1].startswith("gaussfit")
    assert not out.exists()


# Hostile but finite inputs: samples near the float maximum, samples whose
# squares overflow, subnormal samples whose default clamp floor underflows
# to 0, a grid near 1e300, an x step that overflows and a
# non-uniform one that overflows.  Each ends in a result or a typed error
# and prints nothing but the program's own message.
_HOSTILE = {
    "huge": ([float(i) for i in range(7)],
             [1e300, 3e307, 1e308, 5e307, 1e306, 2e300, 1e299]),
    "big": ([float(i) for i in range(7)],
            [1e158, 3e159, 1e160, 5e159, 1e158, 2e157, 1e156]),
    "tiny": ([float(i) for i in range(7)],
             [1e-321, 3e-320, 1e-319, 5e-320, 1e-321, 2e-322, 1e-323]),
    "far_x": ([1e300 + i * 1e290 for i in range(7)],
              [0.1, 0.5, 1.0, 0.6, 0.2, 0.05, 0.01]),
    "infinite_step": ([-1.5e308, 1.5e308, 1.6e308], [1.0, 2.0, 1.0]),
    "overflowing_step": ([-1e308, -9e307, 1e308, 1.1e308], [1.0, 2.0, 1.0, 0.5]),
    # s_alpha is beyond the float range once scaled back: written as null
    "flat_huge": ([float(i) for i in range(7)], [1.7e308] * 7),
}

# exit code, or (A, mu, sigma, status) of a fit that succeeded
_HOSTILE_OUTCOMES = {
    "huge": {
        "M1": (1e+308, 2.0, 0.7220855398938038, "converged"),
        "M2": (1.024287704660874e+308, 2.1371712947935393, 0.7120767049223221,
               "converged"),
        "M3": (8.67087968868877e+307, 2.0, 0.9504204642826641, "converged"),
        "M4": (1.0175302369605918e+308, 2.134862692736138, 0.7253469375894462,
               "converged"),
        "M5": (1.0261872439010504e+308, 2.1376729932762513, 0.7091354455340617,
               "converged"),
    },
    "big": {
        "M1": (1e+160, 2.0, 0.7269127291194506, "converged"),
        "M2": (1.0216948449752053e+160, 2.1311967177044067, 0.7171338269320418,
               "converged"),
        "M3": (8.670482964317355e+159, 2.0, 0.9516130906242054, "converged"),
        "M4": (1.019305669948424e+160, 2.132477717490412, 0.7211116956954934,
               "converged"),
        "M5": (1.0214397019931097e+160, 2.1314069122928156, 0.717531631825866,
               "converged"),
    },
    "tiny": {"M1": (1e-319, 2.0, 0.7268870265140334, "converged"),
             "M2": 3, "M3": (8.6704e-320, 2.0, 0.9516155954489767, "converged"),
             "M4": 3, "M5": 3},
    "far_x": {"M1": (1.0, 1.0000000002e+300, 9.813975580809336e+289, "converged"),
              "M2": 3, "M3": 3, "M4": 3, "M5": 3},
    "infinite_step": dict.fromkeys(("M1", "M2", "M3", "M4", "M5"), 2),
    "overflowing_step": dict.fromkeys(("M1", "M2", "M3", "M4", "M5"), 2),
    "flat_huge": {
        "M1": (1.7e+308, 0.0, 2.7925959628100294, "converged"),
        "M2": (1.7121815313990528e+308, -655064499459.1492, 5481737882501.752,
               "converged"),
        "M3": (1.7018894065774722e+308, 1.0, 59.94897959183673, "converged"),
        "M4": (1.7000000000001406e+308, 3.0, 3397774.5792868603, "converged"),
        "M5": 3,
    },
}


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def _strict_json(text: str):
    """``text`` parsed as JSON, refusing the NaN and Infinity tokens."""
    return json.loads(text, parse_constant=_reject_constant)


@pytest.mark.parametrize("method", ["M1", "M2", "M3", "M4", "M5"])
@pytest.mark.parametrize("name", list(_HOSTILE))
def test_fit_on_extreme_inputs_prints_no_numpy_warning(name, method, tmp_path, capsys):
    from gaussfit import cli

    path = tmp_path / f"{name}.csv"
    xs, ys = _HOSTILE[name]
    path.write_text("x,y\n" + "".join(f"{x!r},{y!r}\n" for x, y in zip(xs, ys)))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(["fit", "--input", str(path), "--method", method, "--output", "-"])
    out, err = capsys.readouterr()
    assert [str(w.message) for w in caught] == []
    assert "Warning" not in err and "Traceback" not in err
    want = _HOSTILE_OUTCOMES[name][method]
    if isinstance(want, int):
        assert (code, out) == (want, "")
        assert err.startswith("gaussfit: ") and err.count("\n") == 1
    else:
        payload = _strict_json(out)
        assert (code, err) == (0, "")
        # the text is what the pure-Python indent=2 encoder writes
        again = json.loads(out, object_pairs_hook=dict)
        assert json.dumps(again, indent=2, allow_nan=False) + "\n" == out
        assert (payload["A"], payload["mu"], payload["sigma"], payload["status"]) == want
        if name == "flat_huge" and method in ("M3", "M4"):
            assert payload["diagnostics.s_alpha"] is None


# quotes, backslashes, control characters and non-ASCII, among any others
_JSON_CHARS = st.sampled_from('"\\\x00\x07\x1f\n\t\u00e9\u2028\U0001f600') | st.characters()
# -0.0, the smallest subnormal and normal, 1e-05 and +-1e+308 among any floats
_JSON_SCALARS = (
    st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from([-0.0, 5e-324, 2.2250738585072014e-308, 1e-05, 1e+308, -1e+308])
    | st.integers() | st.booleans() | st.none() | st.text(_JSON_CHARS)
)


@settings(max_examples=500, deadline=None)
@given(payload=st.dictionaries(st.text(_JSON_CHARS), _JSON_SCALARS, min_size=1))
def test_fit_json_equals_the_indent_2_encoder_property(payload):
    """The C-encoder text of a flat object is exactly ``indent=2``'s."""
    from gaussfit import cli

    assert cli._flat_json(payload) == json.dumps(payload, indent=2, allow_nan=False) + "\n"


@st.composite
def _fit_inputs(draw):
    """Arbitrary bytes, or a signal CSV on a uniform grid holding arbitrary
    floats or a noisy Gaussian, one time in four with a byte spliced in."""
    kind = draw(st.sampled_from(["bytes", "floats", "gaussian"]))
    if kind == "bytes":
        return draw(st.binary(max_size=200))
    n = draw(st.integers(0, 60))
    x0 = draw(st.floats(-1e6, 1e6))
    dx = draw(st.floats(1e-4, 1e3))
    xs = x0 + dx * np.arange(n)
    if kind == "floats":
        ys = draw(st.lists(st.floats(), min_size=n, max_size=n))
    else:
        mu = x0 + dx * draw(st.floats(-n, 2.0 * n))
        sigma = dx * draw(st.floats(0.05, 2.0 * n + 1.0))
        noise = draw(st.floats(0.0, 1.0)) * np.random.default_rng(
            draw(st.integers(0, 2**32 - 1))).standard_normal(n)
        ys = (draw(st.floats(1e-300, 1e300))
              * (np.exp(-(xs - mu) ** 2 / (2.0 * sigma**2)) + noise)).tolist()
    data = ("x,y\n" + "".join(f"{x!r},{y!r}\n" for x, y in zip(xs.tolist(), ys))).encode()
    if draw(st.integers(0, 3)) == 0:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + bytes([draw(st.integers(0, 255))]) + data[at:]
    return data


@pytest.fixture(scope="module")
def fit_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fit_property")


@settings(max_examples=300, deadline=None)
@given(data=_fit_inputs(), method=st.sampled_from(["M1", "M2", "M3", "M4", "M5"]),
       iters=st.none() | st.integers(1, 20), window_l=st.none() | st.integers(1, 11),
       clamp_floor=st.none() | st.floats(5e-324, 1e3) | st.floats())
def test_fit_ends_in_a_finite_fit_or_a_typed_exit_property(fit_dir, data, method, iters,
                                                           window_l, clamp_floor):
    """Whatever the bytes and flags, ``gaussfit fit`` raises nothing and
    exits 0 with a finite A, mu and sigma, 2 (unreadable input or bad
    flag) or 3 (failed fit)."""
    from gaussfit import cli

    path, out = fit_dir / "in.csv", fit_dir / "out.json"
    path.write_bytes(data)
    out.unlink(missing_ok=True)
    argv = ["fit", "--input", str(path), "--method", method, "--output", str(out)]
    for flag, value in (("--iters", iters), ("--window-l", window_l),
                        ("--clamp-floor", clamp_floor)):
        if value is not None:
            argv.append(f"{flag}={value!r}")
    with contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    assert code in (0, 2, 3)
    if code == 0:
        fit = _strict_json(out.read_text())
        assert all(math.isfinite(fit[key]) for key in ("A", "mu", "sigma"))


# ------------------------------------------------------------- tooling guards


_LEAN_BENCH = """
import sys
import gaussfit
gaussfit.run_bench_snr(gaussfit.BenchConfig(trials=3, master_seed=7, snr_start_db=12.0,
                                            snr_stop_db=12.0, workers=1))
loaded = {"concurrent.futures", "multiprocessing", "argparse", "json", "gaussfit.cli"}
print(sorted(loaded & set(sys.modules)))
"""


def test_library_bench_loads_neither_process_pool_nor_cli():
    """A serial ``run_bench_snr`` imports no process pool (about 2 MiB of
    memory) and nothing of the command line interface."""
    env = dict(os.environ, PYTHONPATH=SRC)
    res = subprocess.run([sys.executable, "-c", _LEAN_BENCH], capture_output=True,
                         text=True, env=env)
    assert res.returncode == 0, res.stderr
    assert res.stdout == "[]\n"


_IMPORT_BUDGET = """
import sys
import numpy
before = set(sys.modules)
import gaussfit
gaussfit.build_erf_table(0.1, 0.01, 991)
print(sorted(m for m in set(sys.modules) - before if m.partition(".")[0] != "gaussfit"))
"""

# what gaussfit imports beyond numpy and itself
_IMPORT_ALLOWLIST = {"__future__", "copy", "dataclasses"}


def test_import_loads_nothing_beyond_numpy_and_an_allowlist():
    """``import gaussfit`` and the default table, the benchmark's set-up
    time, load no module that ``import numpy`` does not load, apart from
    gaussfit's own and a few small stdlib ones: a new import shows at once
    in every workload's ``setup_s``."""
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONDONTWRITEBYTECODE="1")
    res = subprocess.run([sys.executable, "-c", _IMPORT_BUDGET], capture_output=True,
                         text=True, env=env)
    assert res.returncode == 0, res.stderr
    assert set(ast.literal_eval(res.stdout)) <= _IMPORT_ALLOWLIST


def test_import_does_not_load_orjson():
    """orjson is imported by the first plain CSV read, not by ``import
    gaussfit``: at module level it would add to every process's start-up
    time and memory, the Monte Carlo runs' included, which read no CSV."""
    env = dict(os.environ, PYTHONPATH=SRC)
    res = subprocess.run([sys.executable, "-c",
                          "import sys, gaussfit; print('orjson' in sys.modules)"],
                         capture_output=True, text=True, env=env)
    assert res.returncode == 0, res.stderr
    assert res.stdout == "False\n"


def test_package_exports_exactly_each_module_all():
    """Every name in a module's ``__all__`` exists, and ``gaussfit``
    re-exports exactly those names from that module, so a public name
    cannot be missing from the package or linger in either list."""
    import importlib

    import gaussfit

    with open(gaussfit.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    exported: dict = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            exported.setdefault(node.module, set()).update(a.name for a in node.names)
    checked = []
    for name in sorted(os.listdir(os.path.dirname(gaussfit.__file__))):
        stem = name.removesuffix(".py")
        if stem == name or stem.startswith("_"):
            continue
        module = importlib.import_module(f"gaussfit.{stem}")
        if not hasattr(module, "__all__"):
            continue
        for attr in module.__all__:
            assert getattr(gaussfit, attr) is getattr(module, attr), (stem, attr)
        assert exported.get(stem, set()) == set(module.__all__), stem
        checked.append(stem)
    assert checked


def test_third_party_imports_are_declared():
    """Every third-party module the package imports, at module level or
    inside a function, is a ``[project].dependencies`` entry of
    ``pyproject.toml``."""
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    root = os.path.dirname(SRC)
    with open(os.path.join(root, "pyproject.toml"), "rb") as fh:
        declared = {re.match(r"[A-Za-z0-9_.-]+", dep).group().lower().replace("-", "_")
                    for dep in tomllib.load(fh)["project"]["dependencies"]}
    imported = set()
    package = os.path.join(SRC, "gaussfit")
    for name in os.listdir(package):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), name)
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    imported.update(alias.name.split(".")[0] for alias in node.names)
                elif isinstance(node, ast.ImportFrom) and not node.level:
                    imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - {"gaussfit"}
    assert {"numpy", "orjson"} <= third_party <= declared


def test_readme_python_blocks_run():
    readme = os.path.join(os.path.dirname(SRC), "README.md")
    with open(readme, encoding="utf-8") as fh:
        blocks = re.findall(r"^```python\n(.*?)^```", fh.read(), re.M | re.S)
    assert blocks
    for code in blocks:
        with contextlib.redirect_stdout(io.StringIO()):
            exec(compile(code, readme, "exec"), {})
