"""Gaussian model, parameter algebra, synthetic sampling, log transform.

The model is the bell curve ``f(x) = A * exp(-(x - mu)^2 / (2 sigma^2))``.
Taking its natural logarithm yields the quadratic ``a + b x + c x^2``,
which is what the linear fitting routines estimate; the coefficient and
parameter forms are interchangeable through :func:`coeffs_from_params`
and :func:`params_from_coeffs`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
        a, m, s = self.amplitude, self.mu, self.sigma
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

    def as_array(self) -> np.ndarray:
        return np.array([self.a, self.b, self.c], dtype=np.float64)


@dataclass
class SampledSignal:
    """Uniformly spaced samples ``y[n]`` at ``x[n] = x0 + n * delta_x``."""

    delta_x: float
    samples: np.ndarray
    x0: float = 0.0
    noise_power: float | None = None  # known only for synthetic data

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
        return self.x0 + self.delta_x * np.arange(self.samples.size)


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


def eval_gaussian(params: GaussianParams, x):
    """Evaluate the Gaussian at ``x`` (scalar or array)."""
    z = (np.asarray(x, dtype=np.float64) - params.mu) / params.sigma
    out = params.amplitude * np.exp(-0.5 * z * z)
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
    return GaussianParams(amplitude, mu, sigma)


def sample_gaussian(
    params: GaussianParams,
    delta_x: float,
    n_samples: int,
    noise: NoiseSpec | None = None,
) -> SampledSignal:
    """Sample the Gaussian on ``x[n] = n * delta_x`` with optional noise.

    Noise variates are zero-mean normals of variance
    ``A^2 / 10^(snr_db/10)`` drawn from the seeded stream; the sequence is
    bit-identical across runs for equal ``(snr_db, seed, n_samples)``.
    """
    if not (math.isfinite(delta_x) and delta_x > 0):
        raise InvalidGridError(f"delta_x must be finite and > 0, got {delta_x!r}")
    if n_samples < 3:
        raise InvalidGridError(f"need at least 3 samples, got {n_samples}")
    x = delta_x * np.arange(n_samples)
    y = eval_gaussian(params, x)
    noise_power = None
    if noise is not None:
        noise_power = noise.noise_power_for(params.amplitude)
        y = y + math.sqrt(noise_power) * rng.normals(noise.seed, n_samples)
    return SampledSignal(delta_x=delta_x, samples=y, x0=0.0, noise_power=noise_power)


def default_clamp_floor(signal: SampledSignal) -> float:
    """Default log-clamp floor: ``max(y) * 1e-6``.

    Requires a strictly positive maximum; a signal with no positive sample
    has no usable floor (and no fittable peak either).
    """
    top = float(np.max(signal.samples))
    if top <= 0 or not math.isfinite(top):
        raise InvalidClampError("no positive sample to derive a clamp floor from")
    return top * DEFAULT_CLAMP_RATIO


def resolve_clamp_floor(signal: SampledSignal, clamp_floor: float | None) -> float:
    """Explicit floor if given, else the default policy."""
    if clamp_floor is None:
        return default_clamp_floor(signal)
    if not (math.isfinite(clamp_floor) and clamp_floor > 0):
        raise InvalidClampError(f"clamp floor must be finite and > 0, got {clamp_floor!r}")
    return float(clamp_floor)


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
    x = signal.grid
    y = signal.samples
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("x,y\n")
        for xi, yi in zip(x, y):
            fh.write(f"{xi:.17g},{yi:.17g}\n")


def read_two_column_csv(
    path, names: tuple[str, str], min_rows: int
) -> tuple[list[float], list[float]]:
    """The two finite numeric columns of a CSV headed ``names``.

    The header is compared case-insensitively and blank lines are
    skipped.  Every failure is a :class:`ParseError` carrying the 1-based
    line it concerns.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ParseError("empty file", line=1)
    header = [col.strip().lower() for col in lines[0].split(",")]
    if header != list(names):
        raise ParseError(f"expected header {','.join(names)!r}, got {lines[0]!r}",
                         line=1)
    first: list[float] = []
    second: list[float] = []
    for i, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        cells = raw.split(",")
        if len(cells) != 2:
            raise ParseError(f"expected 2 columns, got {len(cells)}", line=i)
        try:
            u, v = float(cells[0]), float(cells[1])
        except ValueError:
            raise ParseError(f"non-numeric row {raw!r}", line=i) from None
        if not (math.isfinite(u) and math.isfinite(v)):
            raise ParseError(f"non-finite row {raw!r}", line=i)
        first.append(u)
        second.append(v)
    if len(first) < min_rows:
        raise ParseError(f"need at least {min_rows} data rows, got {len(first)}",
                         line=len(lines))
    return first, second


def read_signal_csv(path) -> SampledSignal:
    """Read an ``x,y`` CSV into a :class:`SampledSignal`.

    The header row is required, rows must be sorted by ``x``, and spacing
    must be uniform to 1e-9 relative tolerance; ``delta_x`` is inferred
    from the first two rows.
    """
    xs, ys = read_two_column_csv(path, ("x", "y"), min_rows=3)
    delta_x = xs[1] - xs[0]
    if delta_x <= 0:
        raise ParseError("x column must be strictly increasing", line=3)
    for i in range(1, len(xs)):
        step = xs[i] - xs[i - 1]
        if abs(step - delta_x) > 1e-9 * abs(delta_x):
            raise ParseError(
                f"non-uniform spacing: step {step!r} vs delta_x {delta_x!r}",
                line=i + 2,
            )
    return SampledSignal(delta_x=delta_x, samples=np.array(ys), x0=xs[0])
