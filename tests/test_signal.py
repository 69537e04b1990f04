"""Tests for the Gaussian model, sampling, log transform and signal CSV."""

import contextlib
import math
from itertools import repeat
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaussfit import (
    GaussianParams,
    InvalidClampError,
    InvalidGridError,
    InvalidParamsError,
    InvalidWidthError,
    LogPolyCoeffs,
    NoiseSpec,
    ParseError,
    SampledSignal,
    build_erf_table,
    coeffs_from_params,
    default_clamp_floor,
    eval_gaussian,
    log_transform,
    params_from_coeffs,
    read_erf_table_csv,
    read_signal_csv,
    sample_gaussian,
    write_erf_table_csv,
    write_signal_csv,
)
from gaussfit import signal as signal_module
from gaussfit.signal import read_two_column_csv

# standard protocol grid: x in [0, 10] sampled every 0.01
GRID_DX = 0.01
GRID_N = 1001

LONG_TAIL = GaussianParams(amplitude=1.0, mu=9.0, sigma=1.3)


def test_eval_peak_equals_amplitude():
    assert eval_gaussian(LONG_TAIL, 9.0) == 1.0


def test_eval_one_sigma_offset():
    assert eval_gaussian(LONG_TAIL, 10.3) == pytest.approx(math.exp(-0.5), rel=1e-12)


def test_eval_far_tail():
    # direct evaluation of the model formula as the oracle
    expected = math.exp(-(0.0 - 9.0) ** 2 / (2.0 * 1.3**2))
    assert expected == pytest.approx(3.91157e-11, rel=1e-4)
    assert eval_gaussian(LONG_TAIL, 0.0) == pytest.approx(expected, rel=1e-12)


def test_eval_symmetric_about_mu():
    rngs = np.random.default_rng(5)
    for t in rngs.uniform(0, 6, size=50):
        left = eval_gaussian(LONG_TAIL, 9.0 - t)
        right = eval_gaussian(LONG_TAIL, 9.0 + t)
        assert left == pytest.approx(right, rel=1e-12)


def test_params_validation():
    with pytest.raises(InvalidParamsError):
        GaussianParams(0.0, 1.0, 1.0)
    with pytest.raises(InvalidParamsError):
        GaussianParams(1.0, math.inf, 1.0)
    with pytest.raises(InvalidParamsError):
        GaussianParams(1.0, 0.0, -2.0)


def test_coeffs_unit_case():
    c = coeffs_from_params(GaussianParams(1.0, 0.0, 1.0))
    assert (c.a, c.b, c.c) == (0.0, 0.0, -0.5)


def test_coeffs_long_tail_case():
    c = coeffs_from_params(LONG_TAIL)
    # algebra done independently: c = -1/(2*1.69), b = 9/1.69, a = -81/(2*1.69)
    assert c.c == pytest.approx(-1.0 / 3.38, rel=1e-12)
    assert c.b == pytest.approx(9.0 / 1.69, rel=1e-12)
    assert c.a == pytest.approx(-81.0 / 3.38, rel=1e-12)
    assert c.b == pytest.approx(5.32544, rel=1e-5)
    assert c.a == pytest.approx(-23.9645, rel=1e-5)


def test_params_from_coeffs_unit_case():
    p = params_from_coeffs(LogPolyCoeffs(0.0, 0.0, -0.5))
    assert (p.amplitude, p.mu, p.sigma) == (1.0, 0.0, 1.0)


def test_round_trip_both_ways():
    # ranges keep |a| = |ln A - mu^2/(2 sigma^2)| moderate; the subtraction
    # inside the map caps the achievable round-trip accuracy
    rngs = np.random.default_rng(11)
    for _ in range(200):
        p = GaussianParams(
            amplitude=float(rngs.uniform(0.01, 50.0)),
            mu=float(rngs.uniform(-10.0, 10.0)),
            sigma=float(rngs.uniform(0.3, 10.0)),
        )
        q = params_from_coeffs(coeffs_from_params(p))
        assert q.amplitude == pytest.approx(p.amplitude, rel=1e-12)
        assert q.mu == pytest.approx(p.mu, rel=1e-12, abs=1e-12)
        assert q.sigma == pytest.approx(p.sigma, rel=1e-12)
        c = LogPolyCoeffs(
            float(rngs.uniform(-5, 5)), float(rngs.uniform(-5, 5)),
            float(rngs.uniform(-3, -0.1)),
        )
        c2 = coeffs_from_params(params_from_coeffs(c))
        assert c2.a == pytest.approx(c.a, rel=1e-12, abs=1e-12)
        assert c2.b == pytest.approx(c.b, rel=1e-12, abs=1e-12)
        assert c2.c == pytest.approx(c.c, rel=1e-12)


def test_nonnegative_curvature_rejected():
    with pytest.raises(InvalidWidthError):
        params_from_coeffs(LogPolyCoeffs(0.0, 1.0, 0.1))
    with pytest.raises(InvalidWidthError):
        params_from_coeffs(LogPolyCoeffs(0.0, 1.0, 0.0))


def test_sample_noiseless_grid_values():
    sig = sample_gaussian(LONG_TAIL, GRID_DX, GRID_N)
    assert sig.samples[900] == 1.0
    assert sig.samples[0] == pytest.approx(3.91157e-11, rel=1e-4)
    assert sig.x0 == 0.0


def test_sample_grid_validation():
    with pytest.raises(InvalidGridError):
        sample_gaussian(LONG_TAIL, 0.0, 100)
    with pytest.raises(InvalidGridError):
        sample_gaussian(LONG_TAIL, 0.01, 2)
    with pytest.raises(InvalidGridError):
        SampledSignal(delta_x=0.01, samples=[1.0, 2.0])
    with pytest.raises(InvalidGridError):
        SampledSignal(delta_x=0.01, samples=[1.0, 2.0, math.nan])


def test_sample_noise_deterministic():
    spec = NoiseSpec(snr_db=12.0, seed=99)
    a = sample_gaussian(LONG_TAIL, GRID_DX, GRID_N, spec)
    b = sample_gaussian(LONG_TAIL, GRID_DX, GRID_N, spec)
    assert np.array_equal(a.samples, b.samples)
    c = sample_gaussian(LONG_TAIL, GRID_DX, GRID_N, NoiseSpec(12.0, 100))
    assert not np.array_equal(a.samples, c.samples)


@pytest.mark.parametrize("amplitude, snr_db", [(1.0, 0.0), (2.5, 12.0)])
def test_sample_noise_is_zero_mean(amplitude, snr_db):
    """Monte Carlo over 1e6 draws: y - f has mean 0 and variance
    ``A^2 / 10^(snr_db/10)``, each within 4 SE."""
    n = 1_000_000
    truth = GaussianParams(amplitude, LONG_TAIL.mu, LONG_TAIL.sigma)
    spec = NoiseSpec(snr_db=snr_db, seed=31)
    sig = sample_gaussian(truth, GRID_DX, n, spec)
    resid = sig.samples - eval_gaussian(truth, sig.grid)
    power = spec.noise_power_for(amplitude)
    assert power == pytest.approx(amplitude**2 * 10 ** (-snr_db / 10), rel=1e-12)
    assert abs(resid.mean()) < 4 * math.sqrt(power / n)
    # the sample variance of n normals has SE sqrt(2 / (n - 1)) times the variance
    assert abs(resid.var() - power) < 4 * power * math.sqrt(2.0 / (n - 1))


def test_log_transform_matches_quadratic_exactly():
    sig = sample_gaussian(LONG_TAIL, GRID_DX, GRID_N)
    floor = 1e-12  # below the smallest noiseless sample
    logs = log_transform(sig, floor)
    c = coeffs_from_params(LONG_TAIL)
    x = sig.grid
    poly = c.a + c.b * x + c.c * x * x
    assert np.max(np.abs(logs - poly)) < 1e-12


def test_log_transform_clamps_zero_and_negative():
    sig = SampledSignal(delta_x=1.0, samples=[0.0, -0.3, 2.0])
    logs = log_transform(sig, 1e-4)
    assert logs[0] == math.log(1e-4)
    assert logs[1] == math.log(1e-4)
    assert logs[2] == math.log(2.0)


def test_log_transform_rejects_bad_floor():
    sig = SampledSignal(delta_x=1.0, samples=[1.0, 2.0, 3.0])
    for bad in (0.0, -1.0, math.nan):
        with pytest.raises(InvalidClampError):
            log_transform(sig, bad)


def test_default_clamp_floor_policy():
    sig = SampledSignal(delta_x=1.0, samples=[0.5, 4.0, 1.0])
    assert default_clamp_floor(sig) == pytest.approx(4e-6, rel=1e-12)
    flat = SampledSignal(delta_x=1.0, samples=[0.0, -1.0, -2.0])
    with pytest.raises(InvalidClampError):
        default_clamp_floor(flat)
    # the smallest peak with a floor, and one whose floor underflows to 0
    assert default_clamp_floor(SampledSignal(1.0, [2.5e-318, 1e-320, 0.0])) > 0
    tiny = SampledSignal(delta_x=1.0, samples=[1e-321, 1e-319, 5e-320])
    with pytest.raises(InvalidClampError, match="underflows"):
        default_clamp_floor(tiny)


def test_signal_csv_round_trip(tmp_path):
    sig = sample_gaussian(LONG_TAIL, GRID_DX, 50, NoiseSpec(6.0, 3))
    path = tmp_path / "sig.csv"
    write_signal_csv(sig, path)
    back = read_signal_csv(path)
    assert np.array_equal(back.samples, sig.samples)
    assert back.delta_x == pytest.approx(sig.delta_x, rel=1e-12)
    assert back.x0 == sig.x0


def test_signal_csv_preserves_origin(tmp_path):
    sig = SampledSignal(delta_x=0.5, samples=[1.0, 2.0, 1.5], x0=-3.0)
    path = tmp_path / "sig.csv"
    write_signal_csv(sig, path)
    back = read_signal_csv(path)
    assert back.x0 == -3.0


def test_signal_csv_errors(tmp_path):
    path = tmp_path / "bad.csv"

    path.write_text("a,b\n1,2\n2,3\n3,4\n")
    with pytest.raises(ParseError) as err:
        read_signal_csv(path)
    assert err.value.line == 1

    path.write_text("x,y\n0,1\n1,2\n")
    with pytest.raises(ParseError):
        read_signal_csv(path)

    path.write_text("x,y\n0,1\n1,2\n2.5,3\n")
    with pytest.raises(ParseError) as err:
        read_signal_csv(path)
    assert err.value.line == 4

    path.write_text("x,y\n0,1\n1,oops\n2,3\n")
    with pytest.raises(ParseError) as err:
        read_signal_csv(path)
    assert err.value.line == 3

    # a blank line before the bad row: the error names the file line
    path.write_text("x,y\n0,1\n\n1,2\n2,3\n3.5,4\n")
    with pytest.raises(ParseError) as err:
        read_signal_csv(path)
    assert err.value.line == 6

    path.write_text("x,y\n\n1,1\n\n0,2\n1,3\n")
    with pytest.raises(ParseError, match="strictly increasing") as err:
        read_signal_csv(path)
    assert err.value.line == 5

    # a short row and a long row must not pair up into two columns
    path.write_text("x,y\n0,1\n1\n2,3,4\n3,4\n")
    with pytest.raises(ParseError, match="expected 2 columns, got 1") as err:
        read_signal_csv(path)
    assert err.value.line == 3

    path.write_text("x,y\n0,1\n1,2\n2,nan\n")
    with pytest.raises(ParseError, match="non-finite row") as err:
        read_signal_csv(path)
    assert err.value.line == 4


def test_signal_csv_cells_parse_like_float(tmp_path):
    """Cells convert as ``float`` converts them: underscores, non-ASCII
    digits and surrounding blanks are accepted; the samples come back as
    one contiguous array."""
    path = tmp_path / "sig.csv"
    path.write_text("X, Y \n0, 1_0\n1,٢\n2 ,3.5\n")
    sig = read_signal_csv(path)
    assert sig.samples.tolist() == [10.0, 2.0, 3.5]
    assert sig.samples.flags.c_contiguous
    assert (sig.x0, sig.delta_x) == (0.0, 1.0)
    path.write_text("x,y\n0,1\n1,2\n2.5,3\n")
    with pytest.raises(ParseError, match=r"step 1\.5 vs delta_x 1\.0"):
        read_signal_csv(path)
    # a plain file's bare -0 keeps its sign, as float("-0") does
    path.write_text("x,y\n-0,1\n1,-0\n2,-0.0\n")
    sig = read_signal_csv(path)
    assert np.signbit(sig.samples).tolist() == [False, True, True]
    assert math.copysign(1.0, sig.x0) == -1.0


@pytest.mark.parametrize("delta_x, x0", [(1e-4, 1000.0), (1e-3, 1e5)])
def test_signal_csv_round_trip_far_from_origin(tmp_path, delta_x, x0):
    """Each written x carries rounding of about eps * |x|, which far from
    the origin exceeds 1e-9 of a small step; the spacing check allows for
    it."""
    sig = SampledSignal(delta_x=delta_x, samples=np.ones(1001), x0=x0)
    path = tmp_path / "far.csv"
    write_signal_csv(sig, path)
    back = read_signal_csv(path)
    assert back.x0 == x0
    assert back.delta_x == pytest.approx(delta_x, rel=1e-6)
    assert np.array_equal(back.samples, sig.samples)
    # a step off by 1e-6 of delta_x is still caught, at its line
    lines = path.read_text().splitlines()
    x, y = lines[501].split(",")
    lines[501] = f"{float(x) + 1e-6 * delta_x!r},{y}"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match="non-uniform spacing") as err:
        read_signal_csv(path)
    assert err.value.line == 502


# ------------------------------------------ CSV reader against the oracle
#
# The reader as it was before one numpy call converted plain files: the
# text split into lines, every cell converted by ``float``.  Kept verbatim
# as the oracle of the two-route reader.

def _oracle_read_two_column_csv(path, names, min_rows):
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ParseError("empty file", line=1)
    header = [col.strip().lower() for col in lines[0].split(",")]
    if header != list(names):
        raise ParseError(f"expected header {','.join(names)!r}, got {lines[0]!r}",
                         line=1)
    rows = [raw for raw in lines[1:] if raw.strip()]
    numbers = (range(2, len(lines) + 1) if len(rows) == len(lines) - 1
               else [i for i, raw in enumerate(lines[1:], start=2) if raw.strip()])
    values = np.empty(0)
    # with one comma in every row, the flat list of cells pairs up row by row
    if rows:
        values = None
        if set(map(str.count, rows, repeat(","))) == {1}:
            try:
                values = np.array(",".join(rows).split(","), dtype=np.float64)
            except ValueError:
                pass
    if values is None or not np.isfinite(values).all():
        _oracle_raise_first_bad_row(rows, numbers)
    if len(rows) < min_rows:
        raise ParseError(f"need at least {min_rows} data rows, got {len(rows)}",
                         line=len(lines))
    first, second = values.reshape(-1, 2).T.copy()
    return first, second, numbers


def _oracle_raise_first_bad_row(rows, numbers):
    for raw, line in zip(rows, numbers):
        cells = raw.split(",")
        if len(cells) != 2:
            raise ParseError(f"expected 2 columns, got {len(cells)}", line=line)
        try:
            u, v = float(cells[0]), float(cells[1])
        except ValueError:
            raise ParseError(f"non-numeric row {raw!r}", line=line) from None
        if not (math.isfinite(u) and math.isfinite(v)):
            raise ParseError(f"non-finite row {raw!r}", line=line)
    raise ParseError("malformed rows")


def _outcome(read, *args):
    """What a read returns, as bytes and plain lists, or what it raises."""
    try:
        result = read(*args)
    except ValueError as err:  # ParseError, and UnicodeDecodeError
        return type(err), str(err), getattr(err, "line", None)
    if isinstance(result, SampledSignal):
        return (result.samples.tobytes(), result.samples.flags.c_contiguous,
                result.x0, result.delta_x)
    first, second, lines = result
    return (first.tobytes(), second.tobytes(), list(lines),
            first.flags.c_contiguous, second.flags.c_contiguous)


def _numbers(draw, n):
    return draw(st.lists(st.floats(allow_nan=False, allow_infinity=False,
                                   width=draw(st.sampled_from([16, 32, 64]))),
                         min_size=n, max_size=n))


# "{:.0f}" writes integers of up to 309 digits, and "-0" for small negatives
_FORMATS = ("{:.17g}".format, repr, "{:.3f}".format, "{:.6g}".format,
            "{:.0f}".format, "{:.25e}".format)

# what gets inserted at a random place, and what replaces a whole cell
_INSERTS = ("_", "\u0662", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x85", " ",
            "\x00", "\t", "#", '"', ",", "\n", "\n\n", " \n", "\t\n", "e", ".",
            "-", "+", "0")
_CELLS = ("", "inf", "-inf", "nan", "nan(1)", "0x10", "1e", "1_0", "\u0662",
          " 1 ", "-", "1e5e", "1e400", "1..2", "+-1", "Infinity")


@st.composite
def _csv_texts(draw):
    """Well-formed two-column CSV text, then a few mutations of it, half of
    them at a separator."""
    n = draw(st.integers(0, 12))
    if draw(st.booleans()):  # a uniform grid, as read_signal_csv wants
        x0 = draw(st.floats(-1e6, 1e6))
        xs = (x0 + draw(st.floats(1e-4, 10.0)) * np.arange(n)).tolist()
    else:
        xs = _numbers(draw, n)
    ys = _numbers(draw, n)
    fmt = draw(st.sampled_from(_FORMATS))
    header = "x,y"
    if draw(st.integers(0, 3)) == 0:
        header = draw(st.sampled_from(["X,Y", " x , y ", "x, y", "x,y,z",
                                       "k,erf_k_over_sqrt2", ""]))
    text = header + "\n" + "".join(f"{fmt(x)},{fmt(y)}\n" for x, y in zip(xs, ys))
    for _ in range(draw(st.integers(0, 3))):
        commas = [i for i, ch in enumerate(text) if ch == ","]
        newlines = [i for i, ch in enumerate(text) if ch == "\n"]
        at = draw(st.integers(0, len(text)))
        if commas + newlines and draw(st.booleans()):
            at = draw(st.sampled_from(commas + newlines)) + draw(st.integers(0, 1))
        kind = draw(st.sampled_from(["insert", "cell", "delete", "exchange"]))
        if kind == "insert":
            text = text[:at] + draw(st.sampled_from(_INSERTS)) + text[at:]
        elif kind == "cell":  # replace the cell around ``at``
            start = max(text.rfind(",", 0, at), text.rfind("\n", 0, at)) + 1
            stops = [i for i in (text.find(",", at), text.find("\n", at)) if i >= 0]
            stop = min(stops, default=len(text))
            text = text[:start] + draw(st.sampled_from(_CELLS)) + text[stop:]
        elif kind == "delete":  # a missing comma, newline (the final one too) or character
            text = text[:at] + text[at + 1:]
        elif commas and newlines:  # one row loses a comma, another gains one
            i, j = draw(st.sampled_from(commas)), draw(st.sampled_from(newlines))
            chars = list(text)
            chars[i], chars[j] = "\n", ","
            text = "".join(chars)
    return text


# texts the two routes could read differently: a vertical tab that
# splitlines breaks at, an overflowing cell, rows of three and one cells,
# a last cell that only starts with a number, no final newline, a bare -0
# (JSON reads it without its sign) among others or alone beside a 1e-0,
# signed zeros that JSON reads as floats, cells float reads but JSON does
# not, and an integer too large for a double
_TRICKY_TEXTS = ("x,y\n0,1\x0b\n1,2\n2,3\n", "x,y\n0 ,1\n1\x0c,2\n2,3\n",
                 "x,y\n0,1\n1,1e400\n2,3\n", "x,y\n0,1,2\n3\n4,5\n",
                 "x,y\n0,1\n1,2\n2,3e\n", "x,y\n0,1\n1,2\n2,3",
                 "x,y\n-0,1\n1,-0\n2,-0\n", "x,y\n1,2\n1e-0,-0\n3,4\n",
                 "x,y\n0,0\n1,-0.0\n2,-0e0\n", "x,y\n0,1.\n1,2\n2,3\n",
                 "x,y\n0,+1\n1,2\n2,3\n", "x,y\n0,01\n1,2\n2,3\n",
                 "x,y\n0,1\n1," + "7" * 400 + "\n2,3\n")


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    return tmp_path_factory.mktemp("csv") / "t.csv"


def _general_route_only(only: bool):
    """With ``only``, the plain route refuses every file, so the reader
    takes the general route alone."""
    if only:
        return mock.patch.object(signal_module, "_plain_cells", lambda body: None)
    return contextlib.nullcontext()


@pytest.mark.parametrize("general_route_only", [False, True])
@pytest.mark.parametrize("min_rows", [1, 3])
@settings(max_examples=300, deadline=None)
@given(text=_csv_texts())
def test_reader_equals_oracle_property(csv_path, min_rows, general_route_only, text):
    """For any text the reader returns the oracle's arrays (bit for bit)
    and lines, or raises its error with the same message and line; so
    does its general route alone, plain texts included."""
    csv_path.write_bytes(text.encode("utf-8"))
    with _general_route_only(general_route_only):
        got = _outcome(read_two_column_csv, csv_path, ("x", "y"), min_rows)
    assert got == _outcome(_oracle_read_two_column_csv, csv_path, ("x", "y"), min_rows)


@settings(max_examples=300, deadline=None)
@given(text=_csv_texts())
def test_read_signal_csv_equals_oracle_property(csv_path, text):
    csv_path.write_bytes(text.encode("utf-8"))
    got = _outcome(read_signal_csv, csv_path)
    with mock.patch.object(signal_module, "read_two_column_csv",
                           _oracle_read_two_column_csv):
        assert got == _outcome(read_signal_csv, csv_path)


@pytest.mark.parametrize("general_route_only", [False, True])
@pytest.mark.parametrize("text", _TRICKY_TEXTS)
def test_tricky_texts_equal_oracle(tmp_path, text, general_route_only):
    path = tmp_path / "t.csv"
    path.write_bytes(text.encode("utf-8"))
    with _general_route_only(general_route_only):
        got = _outcome(read_two_column_csv, path, ("x", "y"), 3)
        signal = _outcome(read_signal_csv, path)
    assert got == _outcome(_oracle_read_two_column_csv, path, ("x", "y"), 3)
    with mock.patch.object(signal_module, "read_two_column_csv",
                           _oracle_read_two_column_csv):
        assert signal == _outcome(read_signal_csv, path)


def test_plain_files_take_the_c_route(tmp_path, monkeypatch):
    """Files in the three shapes the project writes are read without the
    ``float`` route, and equal the oracle."""
    signal_path, table_path, savetxt_path = (tmp_path / f"{name}.csv"
                                             for name in ("signal", "table", "savetxt"))
    sig = sample_gaussian(LONG_TAIL, GRID_DX, GRID_N, NoiseSpec(6.0, 3))
    write_signal_csv(SampledSignal(sig.delta_x, sig.samples, x0=-37.25), signal_path)
    write_erf_table_csv(build_erf_table(0.1, 0.01, 991), table_path)
    np.savetxt(savetxt_path, np.column_stack([sig.grid + 55.1, sig.samples * 1e-3]),
               fmt="%.17g", delimiter=",", header="x,y", comments="")

    def refuse(*args):
        raise AssertionError("read through the float route")

    want = [_outcome(_oracle_read_two_column_csv, signal_path, ("x", "y"), 3),
            _outcome(_oracle_read_two_column_csv, table_path, ("k", "erf_k_over_sqrt2"), 1),
            _outcome(_oracle_read_two_column_csv, savetxt_path, ("x", "y"), 3)]
    assert all(isinstance(w[0], bytes) for w in want)
    monkeypatch.setattr(signal_module, "_split_cells", refuse)
    assert [_outcome(read_two_column_csv, signal_path, ("x", "y"), 3),
            _outcome(read_two_column_csv, table_path, ("k", "erf_k_over_sqrt2"), 1),
            _outcome(read_two_column_csv, savetxt_path, ("x", "y"), 3)] == want
    assert read_signal_csv(signal_path).x0 == -37.25
    assert read_erf_table_csv(table_path).k_count == 991
    assert len(read_signal_csv(savetxt_path)) == GRID_N


@pytest.mark.parametrize("body", [b"0,0\n1,-0.0\n2,-0e0\n", b"1e-0,0\n-0.0,-0E0\n",
                                  b"-0.5,0.0\n-0.01,2\n"])
def test_plain_cells_keep_zero_bodies_without_a_bare_minus_zero(body):
    """Zero cells open the search for a bare ``-0``; without one, the body
    is read with the signs ``float`` gives."""
    values = signal_module._plain_cells(body)
    want = [float(c) for c in body.replace(b"\n", b",").decode().split(",")[:-1]]
    assert values is not None
    assert values.tolist() == want
    assert np.signbit(values).tolist() == np.signbit(want).tolist()


@pytest.mark.parametrize("body", [b"-0,1\n2,3\n4,5\n", b"0,1\n1e-0,-0\n2,3\n",
                                  b"0,1\n2,3\n4,-0\n"])
def test_plain_cells_refuse_a_bare_minus_zero(body):
    """A bare ``-0`` as the first, a middle or the last cell is refused."""
    assert signal_module._plain_cells(body) is None
