"""Gaussian model, parameter algebra, synthetic sampling, log transform.

The model is the bell curve ``f(x) = A * exp(-(x - mu)^2 / (2 sigma^2))``.
Taking its natural logarithm yields the quadratic ``a + b x + c x^2``,
which is what the linear fitting routines estimate; the coefficient and
parameter forms are interchangeable through :func:`coeffs_from_params`
and :func:`params_from_coeffs`.

Synthesis works on blocks: given a sequence of Gaussians,
:func:`sample_gaussian` draws one noisy signal per row of a
:class:`SignalBlock` (rows share one grid), evaluating the Gaussians and
drawing the noise once for the whole block; given one Gaussian it draws a
block of one.  Every row is bit-identical to the signal sampled alone.
"""

from __future__ import annotations

import math
import os
import stat
import sys
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from . import rng
from .errors import (
    InvalidClampError,
    InvalidGridError,
    InvalidParamsError,
    InvalidWidthError,
    ParseError,
)

__all__ = [
    "GaussianParams",
    "LogPolyCoeffs",
    "SampledSignal",
    "SignalBlock",
    "NoiseSpec",
    "eval_gaussian",
    "coeffs_from_params",
    "params_from_coeffs",
    "sample_gaussian",
    "log_transform",
    "default_clamp_floor",
    "read_signal_csv",
    "read_two_column_csv",
    "write_signal_csv",
]

# Default clamp policy: floor at this fraction of the largest sample.
DEFAULT_CLAMP_RATIO = 1e-6

# An x written as x0 + n * delta_x carries up to 3 roundings of eps/2 * |x|,
# so two steps of a uniform grid can differ by 6 eps * max|x|: the spacing
# tolerance of read_signal_csv per unit of the largest |x|.
_X_ROUNDING = 8 * sys.float_info.epsilon


@dataclass(frozen=True)
class GaussianParams:
    """Height, location and width of a Gaussian function."""

    amplitude: float
    mu: float
    sigma: float

    def __post_init__(self):
        # plain floats throughout (numpy scalars confuse e.g. json encoding)
        object.__setattr__(self, "amplitude", float(self.amplitude))
        object.__setattr__(self, "mu", float(self.mu))
        object.__setattr__(self, "sigma", float(self.sigma))
        _check_params(self.amplitude, self.mu, self.sigma)

    @classmethod
    def _of(cls, amplitude: float, mu: float, sigma: float) -> "GaussianParams":
        """The checked parameters from values that are already ``float``."""
        _check_params(amplitude, mu, sigma)
        self = object.__new__(cls)  # frozen: fill the fields past __setattr__
        fields = self.__dict__
        fields["amplitude"], fields["mu"], fields["sigma"] = amplitude, mu, sigma
        return self


def _check_params(a: float, m: float, s: float) -> None:
    if not (math.isfinite(a) and a > 0):
        raise InvalidParamsError(f"amplitude must be finite and > 0, got {a!r}")
    if not math.isfinite(m):
        raise InvalidParamsError(f"mu must be finite, got {m!r}")
    if not (math.isfinite(s) and s > 0):
        raise InvalidParamsError(f"sigma must be finite and > 0, got {s!r}")


@dataclass(frozen=True)
class LogPolyCoeffs:
    """Coefficients of the log-domain quadratic ``a + b x + c x^2``.

    Only coefficient sets with ``c < 0`` correspond to a Gaussian
    (``sigma = sqrt(-1/(2c))``); construction does not enforce that so
    intermediate fit iterates can be represented.
    """

    a: float
    b: float
    c: float

    def __post_init__(self):
        object.__setattr__(self, "a", float(self.a))
        object.__setattr__(self, "b", float(self.b))
        object.__setattr__(self, "c", float(self.c))

    @classmethod
    def _of(cls, a: float, b: float, c: float) -> "LogPolyCoeffs":
        """The coefficients from values that are already ``float``."""
        self = object.__new__(cls)  # frozen: fill the fields past __setattr__
        fields = self.__dict__
        fields["a"], fields["b"], fields["c"] = a, b, c
        return self


@dataclass
class SampledSignal:
    """Uniformly spaced samples ``y[n]`` at ``x[n] = x0 + n * delta_x``."""

    delta_x: float
    samples: np.ndarray
    x0: float = 0.0

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        self.delta_x = float(self.delta_x)
        self.x0 = float(self.x0)
        if self.samples.ndim != 1 or self.samples.size < 3:
            raise InvalidGridError(
                f"need at least 3 samples in a flat array, got shape {self.samples.shape}"
            )
        if not (math.isfinite(self.delta_x) and self.delta_x > 0):
            raise InvalidGridError(f"delta_x must be finite and > 0, got {self.delta_x!r}")
        if not math.isfinite(self.x0):
            raise InvalidGridError(f"x0 must be finite, got {self.x0!r}")
        if not np.all(np.isfinite(self.samples)):
            raise InvalidGridError("samples must all be finite")

    def __len__(self) -> int:
        return self.samples.size

    @property
    def grid(self) -> np.ndarray:
        """Abscissa values ``x[n]``."""
        return _grid(self.x0, self.delta_x, self.samples.size)


def _grid(x0: float, delta_x: float, n: int) -> np.ndarray:
    return x0 + delta_x * np.arange(n)


@dataclass
class SignalBlock:
    """Rows of samples on one shared grid ``x[n] = x0 + n * delta_x``.

    What every stage of :mod:`gaussfit.initfit` takes;
    :func:`gaussfit.initfit.m3_initial_fit` given a single signal fits the
    block :meth:`containing` it.  Rows are not validated again: a block
    comes from checked signals or from :func:`sample_gaussian`, which
    checks its rows.

    A block remembers the split-area fits of its rows (:meth:`once`, used
    only by :func:`gaussfit.initfit.m3_initial_fit`), so fitting its rows
    one at a time runs that fit once for the whole block.  Its samples
    must not change once a row has been fitted, and a remembered outcome
    is handed to every caller, so callers do not modify it.
    """

    delta_x: float
    samples: np.ndarray  # (rows, n), C-contiguous
    x0: float = 0.0
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @classmethod
    def of(cls, signal: SampledSignal) -> "SignalBlock":
        """A block of one row sharing ``signal``'s samples."""
        return cls(signal.delta_x, signal.samples[None, :], signal.x0)

    @staticmethod
    def containing(signal: SampledSignal) -> tuple["SignalBlock", int]:
        """The block ``signal`` is a row of (see :meth:`row`) and its row
        index, or a block of one holding ``signal``."""
        if isinstance(signal, _BlockRow):
            return signal.block, signal.index
        return SignalBlock.of(signal), 0

    def __len__(self) -> int:
        return self.samples.shape[0]

    @property
    def grid(self) -> np.ndarray:
        """Abscissa values ``x[n]`` shared by every row."""
        return _grid(self.x0, self.delta_x, self.samples.shape[1])

    def row(self, i: int) -> SampledSignal:
        """Row ``i`` as a signal (a view of the block's samples) that knows
        its block."""
        return _BlockRow(self.delta_x, self.samples[i], self.x0, self, i)

    def once(self, key, compute):
        """``compute()`` on the first call with ``key``, the same object on
        every later call."""
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]


@dataclass
class _BlockRow(SampledSignal):
    """Row ``index`` of ``block``; checked with the block, not again."""

    block: SignalBlock | None = field(default=None, repr=False, compare=False)
    index: int = 0

    def __post_init__(self):
        pass


@dataclass(frozen=True)
class NoiseSpec:
    """Additive white Gaussian noise at a given SNR.

    ``snr_db`` is ``10*log10(A^2 / noise_power)`` where ``A`` is the
    amplitude of the underlying Gaussian, so the noise standard deviation
    scales with the signal peak.  Identical ``(snr_db, seed)`` always
    reproduce the identical noise sequence.
    """

    snr_db: float
    seed: int

    def noise_power_for(self, amplitude: float) -> float:
        return amplitude**2 / 10.0 ** (self.snr_db / 10.0)


def _gaussian(amplitude, mu, sigma, x):
    """``A exp(-z^2 / 2)`` with ``z = (x - mu) / sigma``; the parameters are
    floats, or ``(rows, 1)`` columns giving one Gaussian per row of ``x``."""
    z = x - mu
    z /= sigma
    g = -0.5 * z
    g *= z
    return amplitude * np.exp(g)


def eval_gaussian(params: GaussianParams, x):
    """Evaluate the Gaussian at ``x`` (scalar or array)."""
    out = _gaussian(params.amplitude, params.mu, params.sigma,
                    np.asarray(x, dtype=np.float64))
    return float(out) if np.ndim(x) == 0 else out


def coeffs_from_params(params: GaussianParams) -> LogPolyCoeffs:
    """Log-domain quadratic coefficients of a Gaussian.

    ``c = -1/(2 sigma^2)``, ``b = mu/sigma^2``, ``a = ln A - mu^2/(2 sigma^2)``.
    """
    inv_2s2 = 1.0 / (2.0 * params.sigma**2)
    c = -inv_2s2
    b = params.mu / params.sigma**2
    a = math.log(params.amplitude) - params.mu**2 * inv_2s2
    return LogPolyCoeffs(a, b, c)


def params_from_coeffs(coeffs: LogPolyCoeffs) -> GaussianParams:
    """Invert :func:`coeffs_from_params`.

    Raises
    ------
    InvalidWidthError
        If ``c >= 0``; no real Gaussian has non-negative log curvature.
        Upstream this signals a failed or degenerate fit.
    InvalidParamsError
        If the mapped parameters are not finite (e.g. amplitude overflow).
    """
    a, b, c = coeffs.a, coeffs.b, coeffs.c
    if not (math.isfinite(a) and math.isfinite(b) and math.isfinite(c)):
        raise InvalidWidthError(f"coefficients must be finite, got {coeffs!r}")
    if c >= 0:
        raise InvalidWidthError(f"c must be negative, got c={c!r}")
    mu = -b / (2.0 * c)
    sigma = math.sqrt(-1.0 / (2.0 * c))
    try:
        amplitude = math.exp(a - b * b / (4.0 * c))
    except OverflowError:
        raise InvalidParamsError("amplitude overflows") from None
    return GaussianParams._of(amplitude, mu, sigma)


def sample_gaussian(
    params,
    delta_x: float,
    n_samples: int,
    noise=None,
):
    """Sample the Gaussian on ``x[n] = n * delta_x`` with optional noise.

    Noise variates are zero-mean normals of variance
    ``A^2 / 10^(snr_db/10)`` drawn from the seeded stream; the sequence is
    bit-identical across runs for equal ``(snr_db, seed, n_samples)``.

    ``params`` may also be a sequence of Gaussians, with ``noise`` then a
    matching sequence of :class:`NoiseSpec` (or ``None``): the result is a
    :class:`SignalBlock` with one row per Gaussian.  The Gaussians are
    evaluated as one ``(rows, n_samples)`` block and the noise is drawn as
    one block from the per-row seeds; the stream is counter based, so row
    ``i`` equals ``sample_gaussian(params[i], delta_x, n_samples,
    noise[i])`` bit for bit.
    """
    single = isinstance(params, GaussianParams)
    truths = [params] if single else params
    noises = None if noise is None else [noise] if single else noise
    if not (math.isfinite(delta_x) and delta_x > 0):
        raise InvalidGridError(f"delta_x must be finite and > 0, got {delta_x!r}")
    if n_samples < 3:
        raise InvalidGridError(f"need at least 3 samples, got {n_samples}")
    columns = np.array([(p.amplitude, p.mu, p.sigma) for p in truths]).T[:, :, None]
    y = _gaussian(*columns, delta_x * np.arange(n_samples))
    if noises is not None:
        draws = rng.normals([spec.seed for spec in noises], n_samples)
        draws *= np.array([math.sqrt(spec.noise_power_for(p.amplitude))
                           for p, spec in zip(truths, noises, strict=True)])[:, None]
        y += draws
    if single:  # checked by the signal itself
        return SampledSignal(delta_x=delta_x, samples=y[0], x0=0.0)
    if not np.isfinite(y).all():
        raise InvalidGridError("samples must all be finite")
    return SignalBlock(delta_x=delta_x, samples=y, x0=0.0)


def default_clamp_floor(signal: SampledSignal) -> float:
    """Default log-clamp floor: ``max(y) * 1e-6``.

    Requires a strictly positive maximum; a signal with no positive sample
    has no usable floor (and no fittable peak either), and neither has one
    whose maximum is so small (below about 2.5e-318) that the product
    underflows to 0.
    """
    return _clamp_floor(float(np.max(signal.samples)), None)


def _clamp_floor(top: float, clamp_floor: float | None) -> float:
    """The clamp floor of samples whose largest is ``top``: ``clamp_floor``
    if given (``top`` is then not read), else the default policy."""
    if clamp_floor is not None:
        if math.isfinite(clamp_floor) and clamp_floor > 0:
            return float(clamp_floor)
        raise InvalidClampError(f"clamp floor must be finite and > 0, got {clamp_floor!r}")
    if top <= 0 or not math.isfinite(top):
        raise InvalidClampError("no positive sample to derive a clamp floor from")
    floor = top * DEFAULT_CLAMP_RATIO
    if floor <= 0:
        raise InvalidClampError(
            f"default clamp floor max(y) * {DEFAULT_CLAMP_RATIO:g} underflows to 0"
            f" (max(y) = {top!r})")
    return floor


def log_transform(signal: SampledSignal, clamp_floor: float) -> np.ndarray:
    """``ln(max(y[n], clamp_floor))`` for each sample.

    Clamping keeps the output finite for zero or negative samples, which
    additive noise produces routinely in the tail; downstream weighting is
    expected to de-emphasize those entries.
    """
    if not (math.isfinite(clamp_floor) and clamp_floor > 0):
        raise InvalidClampError(f"clamp floor must be finite and > 0, got {clamp_floor!r}")
    return np.log(np.maximum(signal.samples, clamp_floor))


def write_signal_csv(signal: SampledSignal, path) -> None:
    """Write the two-column ``x,y`` form read back by :func:`read_signal_csv`."""
    rows = "".join(f"{xi:.17g},{yi:.17g}\n" for xi, yi in zip(signal.grid, signal.samples))
    _write_in_place(path, "x,y\n" + rows)


def _write_in_place(path, text: str) -> None:
    """Write ``text`` over what ``path`` holds, then cut a regular file that
    was longer to the new length.

    Truncating to zero before the write would free the old blocks and make
    ``close()`` start writeback (ext4 does so on a truncated file).  A FIFO,
    tty or ``/dev/null`` is never cut.
    """
    data = text.encode()
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        written = os.write(fd, data)
        while written < len(data):
            written += os.write(fd, data[written:])
        info = os.fstat(fd)
        if stat.S_ISREG(info.st_mode) and info.st_size > len(data):
            os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


def read_two_column_csv(
    path, names: tuple[str, str], min_rows: int
) -> tuple[np.ndarray, np.ndarray, Sequence[int]]:
    """The two finite numeric columns of a CSV headed ``names``, and the
    1-based file line of each row.

    The header is compared case-insensitively, blank lines are skipped
    and cells convert as ``float`` converts them.  Every failure, a byte
    that is not UTF-8 included, is a :class:`ParseError` carrying the
    1-based line it concerns.

    Two routes give the same result.  A file in the plain form that
    :func:`write_signal_csv`, ``write_erf_table_csv`` and ``np.savetxt``
    write -- the exact header, then lines of two cells made only of ASCII
    digits, ``.``, ``e``, ``E``, ``+`` and ``-``, split by one comma and
    each ended by ``\n`` -- has all its cells converted at once, read as
    one JSON array by orjson (see :func:`_plain_cells`); a bare ``-0``
    cell, looked for only when some cell reads as zero, refuses it.  Every
    other file, and a plain one whose conversion is refused, goes through
    :func:`_split_cells`: the text is split into lines, all cells are
    converted at once by ``float``, and only when that fails is the first
    bad row looked for.
    """
    with open(path, "rb", buffering=0) as fh:
        data = fh.readall()
    header = ",".join(names).encode() + b"\n"
    values = _plain_cells(data[len(header):]) if data.startswith(header) else None
    if values is not None and values.size >= 2 * min_rows:
        numbers = range(2, values.size // 2 + 2)
    else:
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as err:
            # the bad byte's line, counted by the line breaks _split_cells knows
            before = data[:err.start].decode("utf-8") + "?"
            raise ParseError(f"not UTF-8 text: {err.reason}",
                             line=len(before.splitlines())) from None
        values, numbers = _split_cells(text, names, min_rows)
    first, second = values.reshape(-1, 2).T.copy()
    return first, second, numbers


# the characters of a plain cell; what deleting them leaves of a plain body
# is ",\n" once per line
_PLAIN_CELL_CHARS = b"0123456789.eE+-"


def _plain_cells(body: bytes) -> np.ndarray | None:
    """The cells of a plain ``body`` in file order, or ``None`` when its
    conversion is refused.

    The cells are read as one JSON array by orjson, whose number reader
    rounds correctly, as ``float`` does.  JSON's number grammar is a
    subset of what ``float`` accepts, so every cell it refuses (``1.``,
    ``.5``, ``+1``, ``01``, an overflow such as ``1e400``) and every
    malformed body refuse; so do a wrong count (a body without its final
    ``\n``), a non-finite value and the bare cell ``-0``, which JSON reads
    as the integer 0 without its sign; since that cell always reads as a
    zero, the text is searched for it only when some value is zero.  The
    plain form rules out underscores, non-ASCII digits, blanks and every
    line break ``str.splitlines`` knows but ``\n``, on which the two
    routes could split or convert differently.
    """
    separators = body.translate(None, _PLAIN_CELL_CHARS)
    rows = len(separators) // 2
    if not rows or separators != b",\n" * rows:
        return None
    cells = b"[" + body[:-1].replace(b"\n", b",") + b"]"
    import orjson  # here, so that importing gaussfit does not load it

    try:
        values = np.array(orjson.loads(cells), dtype=np.float64)
    except orjson.JSONDecodeError:
        return None
    if values.size != 2 * rows or not np.isfinite(values).all():
        return None
    # a bare -0 reads as 0, so only a body with a zero cell can hold one
    if not values.all() and (cells.startswith(b"[-0,") or b",-0," in cells
                             or cells.endswith(b",-0]")):
        return None
    return values


def _split_cells(
    text: str, names: tuple[str, str], min_rows: int
) -> tuple[np.ndarray, Sequence[int]]:
    """All cells of ``text`` converted by ``float``, row after row, and the
    file line of each row."""
    lines = text.splitlines()
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
        _raise_first_bad_row(rows, numbers)
    if len(rows) < min_rows:
        raise ParseError(f"need at least {min_rows} data rows, got {len(rows)}",
                         line=len(lines))
    return values, numbers


def _raise_first_bad_row(rows: list[str], numbers: Sequence[int]) -> None:
    """Raise the :class:`ParseError` of the first row that is not two finite
    numbers."""
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
    raise ParseError("malformed rows")  # not reached: a failed conversion has a bad row


def read_signal_csv(path) -> SampledSignal:
    """Read an ``x,y`` CSV into a :class:`SampledSignal`.

    The header row is required, rows must be sorted by ``x``, and spacing
    must be uniform: every step may differ from ``delta_x``, inferred from
    the first two rows, by 1e-9 of it plus the rounding the ``x`` values
    themselves carry, ``8 * eps * max(|x_first|, |x_last|)``.  Errors name
    the file line of the bad row.
    """
    xs, ys, lines = read_two_column_csv(path, ("x", "y"), min_rows=3)
    x0 = float(xs[0])
    delta_x = float(xs[1]) - x0
    if delta_x <= 0:
        raise ParseError("x column must be strictly increasing", line=lines[1])
    if not math.isfinite(delta_x):
        raise ParseError(f"x step overflows: {delta_x!r}", line=lines[1])
    tolerance = 1e-9 * delta_x + _X_ROUNDING * max(abs(x0), abs(float(xs[-1])))
    with np.errstate(over="ignore"):  # a step that overflows is inf: not uniform
        steps = xs[1:] - xs[:-1]
        off = steps - delta_x
    np.abs(off, off)
    if np.maximum.reduce(off) > tolerance:
        i = int(np.argmax(off > tolerance))
        raise ParseError(
            f"non-uniform spacing: step {float(steps[i])!r} vs delta_x {delta_x!r}",
            line=lines[i + 1],
        )
    return SampledSignal(delta_x=delta_x, samples=ys, x0=x0)
