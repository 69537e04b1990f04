"""End-to-end tests of the command line interface (subprocess level)."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import warnings

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
    assert res.returncode == 2


def test_negative_snr_range_with_equals_form(tmp_path):
    out = tmp_path / "neg.csv"
    res = _run("bench", "snr", "--trials", "2", "--seed", "5",
               "--methods", "M1", "--snr=-2:1:-1", "--out", str(out))
    assert res.returncode == 0, res.stderr
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + 2 * 1 * 3
    assert lines[1].startswith("M1,-2,")


# Hostile but finite inputs: samples near the float maximum, samples whose
# squares overflow, a grid near 1e300, an x step that overflows and a
# non-uniform one that overflows.  Each ends in a result or a typed error
# and prints nothing but the program's own message.
_HOSTILE = {
    "huge": ([float(i) for i in range(7)],
             [1e300, 3e307, 1e308, 5e307, 1e306, 2e300, 1e299]),
    "big": ([float(i) for i in range(7)],
            [1e158, 3e159, 1e160, 5e159, 1e158, 2e157, 1e156]),
    "far_x": ([1e300 + i * 1e290 for i in range(7)],
              [0.1, 0.5, 1.0, 0.6, 0.2, 0.05, 0.01]),
    "infinite_step": ([-1.5e308, 1.5e308, 1.6e308], [1.0, 2.0, 1.0]),
    "overflowing_step": ([-1e308, -9e307, 1e308, 1.1e308], [1.0, 2.0, 1.0, 0.5]),
}

# exit code, or (A, mu, sigma, status) of a fit that succeeded
_HOSTILE_OUTCOMES = {
    "huge": {
        "M1": 3,
        "M2": (1.0294800245462929e+308, 2.138488986628011, 0.7043908653095114,
               "degenerate-fallback"),
        "M3": 3,
        "M4": (1.0294800245462929e+308, 2.138488986628011, 0.7043908653095114,
               "degenerate-fallback"),
        "M5": (1.0261872439010504e+308, 2.1376729932762513, 0.7091354455340617,
               "converged"),
    },
    "big": {
        "M1": (1e+160, 2.0, 0.7269127291194506, "converged"),
        "M2": (1.0216948449752053e+160, 2.1311967177044067, 0.7171338269320418,
               "converged"),
        "M3": 3,
        "M4": (1.0221424250468687e+160, 2.130999659107667, 0.7164568948038937,
               "degenerate-fallback"),
        "M5": (1.0214397019931097e+160, 2.1314069122928156, 0.717531631825866,
               "converged"),
    },
    "far_x": {"M1": (1.0, 1.0000000002e+300, 9.813975580809336e+289, "converged"),
              "M2": 3, "M3": 3, "M4": 3, "M5": 3},
    "infinite_step": dict.fromkeys(("M1", "M2", "M3", "M4", "M5"), 2),
    "overflowing_step": dict.fromkeys(("M1", "M2", "M3", "M4", "M5"), 2),
}


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
        payload = json.loads(out)
        assert (code, err) == (0, "")
        assert (payload["A"], payload["mu"], payload["sigma"], payload["status"]) == want


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
        fit = json.loads(out.read_text())
        assert all(math.isfinite(fit[key]) for key in ("A", "mu", "sigma"))
