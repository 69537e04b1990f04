"""Initial parameter estimators.

Two families live here:

* the area-based width estimate that treats the sample sum as the full
  Gaussian integral (:func:`sigma_area_m1`) together with the naive
  argmax peak pick, and
* the split-area pipeline (:func:`m3_initial_fit`): a windowed peak
  estimate, partial sums on either side of the peak, width estimates from
  each side through an error-function lookup table, a variance-motivated
  convex combination of the two, and a final template-matched amplitude.

The lookup table stores ``erf(k / sqrt 2)`` on a fixed k grid.  Because
the half-width enters the area equations only through ``k = halfwidth /
sigma``, one table serves every signal regardless of its scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateAreaError,
    DegenerateRhoError,
    InvalidAmplitudeError,
    InvalidGridError,
    InvalidWidthError,
    InvalidWindowError,
    NoPeakError,
    ParseError,
)
from .results import CONVERGED, DEGENERATE_FALLBACK, FitResult
from .signal import GaussianParams, SampledSignal, read_two_column_csv

__all__ = [
    "PeakEstimate",
    "PartialAreas",
    "ErfTable",
    "InitConfig",
    "naive_peak",
    "sigma_area_m1",
    "windowed_peak",
    "partial_areas",
    "build_erf_table",
    "sigma_from_area",
    "rho_from_samples",
    "combine_sigma",
    "refine_amplitude",
    "m3_initial_fit",
    "read_erf_table_csv",
    "write_erf_table_csv",
]

_SQRT_2PI = math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class PeakEstimate:
    """Peak location and height picked from the samples."""

    n_hat: int        # argmax index (window start for the windowed variant)
    mu_hat: float
    amplitude_hat: float


@dataclass(frozen=True)
class PartialAreas:
    """Sample sums (times spacing) left and right of the peak index."""

    s_beta: float   # n = 0 .. n_hat-1
    s_alpha: float  # n = n_hat .. N-1


@dataclass(frozen=True)
class InitConfig:
    """Tunables of the split-area initializer."""

    window_l: int = 3
    k_start: float = 0.1
    k_step: float = 0.01
    k_count: int = 991

    def __post_init__(self):
        if self.window_l < 1:
            raise InvalidWindowError(f"window_l must be >= 1, got {self.window_l}")
        if self.k_start <= 0 or self.k_step <= 0 or self.k_count < 1:
            raise InvalidGridError(
                f"k grid must be positive and increasing, got start={self.k_start}, "
                f"step={self.k_step}, count={self.k_count}"
            )


@dataclass
class ErfTable:
    """``erf(k / sqrt 2)`` tabulated on an increasing positive k grid.

    The grid is stored explicitly so a table written to CSV and read back
    is bit-identical.  Values saturate to exactly 1.0 in double precision
    once k exceeds roughly 8.3; they are validated as non-decreasing and
    within (0, 1] rather than strictly increasing for that reason.
    """

    k: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.k = np.asarray(self.k, dtype=np.float64)
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.k.ndim != 1 or self.k.size < 1 or self.k.shape != self.values.shape:
            raise InvalidGridError("k grid and values must be matching 1-d arrays")
        if not np.all(np.isfinite(self.k)) or self.k[0] <= 0:
            raise InvalidGridError("k grid must be positive and finite")
        if np.any(np.diff(self.k) <= 0):
            raise InvalidGridError("k grid must be strictly increasing")
        if not np.all(np.isfinite(self.values)):
            raise InvalidGridError("table values must be finite")
        if np.any(self.values <= 0) or np.any(self.values > 1.0):
            raise InvalidGridError("table values must lie in (0, 1]")
        if np.any(np.diff(self.values) < 0):
            raise InvalidGridError("table values must be non-decreasing")

    @property
    def k_count(self) -> int:
        return self.values.size


def build_erf_table(k_start: float, k_step: float, k_count: int) -> ErfTable:
    """Tabulate ``erf(k / sqrt 2)`` on ``k = k_start + j * k_step``.

    Values come from :func:`math.erf`, accurate to about one ulp and never
    above 1.0; they saturate to exactly 1.0 near k ~ 8.3.
    """
    if k_start <= 0 or k_step <= 0 or k_count < 1:
        raise InvalidGridError(
            f"k grid must be positive and increasing, got start={k_start}, "
            f"step={k_step}, count={k_count}"
        )
    k = k_start + k_step * np.arange(k_count)
    values = np.array([math.erf(kj / math.sqrt(2.0)) for kj in k.tolist()])
    return ErfTable(k=k, values=values)


def naive_peak(signal: SampledSignal) -> PeakEstimate:
    """Largest sample and its index; ties go to the smallest index."""
    y = signal.samples
    n_hat = int(np.argmax(y))
    a_hat = float(y[n_hat])
    if a_hat <= 0:
        raise NoPeakError("all samples are non-positive", stage="naive_peak")
    return PeakEstimate(
        n_hat=n_hat,
        mu_hat=signal.x0 + n_hat * signal.delta_x,
        amplitude_hat=a_hat,
    )


def sigma_area_m1(signal: SampledSignal, amplitude_hat: float) -> float:
    """Width from the full sample sum treated as the Gaussian integral.

    Since the integral of the model is ``A * sqrt(2 pi) * sigma``, the
    estimate is ``sum(y) * delta_x / (A_hat * sqrt(2 pi))``.  Accurate
    only when the sampled window covers essentially the whole bell; when a
    long tail is cut off, the sum misses area and the width is biased low
    no matter how fine the spacing is.
    """
    if not (math.isfinite(amplitude_hat) and amplitude_hat > 0):
        raise InvalidAmplitudeError(f"amplitude must be > 0, got {amplitude_hat!r}")
    total = float(np.sum(signal.samples)) * signal.delta_x
    return total / (amplitude_hat * _SQRT_2PI)


def windowed_peak(signal: SampledSignal, window_l: int) -> PeakEstimate:
    """Peak from a length-L moving average; robust to single-sample noise.

    ``n_hat`` is the window start maximizing the average of samples
    ``n .. n+L-1``; the location estimate sits at the window center
    ``x0 + (n_hat + L // 2) * delta_x`` and the height estimate is the
    sample there.  With ``L = 1`` this degenerates to :func:`naive_peak`.
    """
    y = signal.samples
    n = y.size
    if not 1 <= window_l <= n - 1:
        raise InvalidWindowError(f"window_l must be in [1, {n - 1}], got {window_l}",
                                 stage="windowed_peak")
    averages = np.convolve(y, np.full(window_l, 1.0 / window_l), mode="valid")
    n_hat = int(np.argmax(averages))
    center = n_hat + window_l // 2
    return PeakEstimate(
        n_hat=n_hat,
        mu_hat=signal.x0 + center * signal.delta_x,
        amplitude_hat=float(y[center]),
    )


def partial_areas(signal: SampledSignal, n_hat: int) -> PartialAreas:
    """Split ``delta_x * sum(y)`` at the peak index.

    ``s_beta`` collects samples before ``n_hat``, ``s_alpha`` the rest;
    together they partition the full sum.
    """
    y = signal.samples
    if not 0 <= n_hat <= y.size - 1:
        raise InvalidGridError(f"n_hat must be in [0, {y.size - 1}], got {n_hat}")
    s_beta = signal.delta_x * float(np.sum(y[:n_hat]))
    s_alpha = signal.delta_x * float(np.sum(y[n_hat:]))
    return PartialAreas(s_beta=s_beta, s_alpha=s_alpha)


def sigma_from_area(
    area: float,
    half_width: float,
    amplitude_hat: float,
    table: ErfTable,
) -> tuple[float, float]:
    """Width estimate from a one-sided area via the lookup table.

    A half-Gaussian of width ``sigma`` truncated ``half_width`` from its
    peak has area ``sqrt(2 pi) A halfwidth / (2 k) * erf(k / sqrt 2)``
    with ``k = half_width / sigma``; the grid value minimizing the squared
    mismatch against ``area`` gives ``sigma = half_width / k_star``.

    Returns ``(sigma, k_star)``.  Ties break toward smaller k; the full
    grid is scanned, no interpolation.
    """
    if not (math.isfinite(amplitude_hat) and amplitude_hat > 0):
        raise InvalidAmplitudeError(f"amplitude must be > 0, got {amplitude_hat!r}")
    if not (math.isfinite(area) and area > 0):
        raise DegenerateAreaError(f"area must be > 0, got {area!r}")
    if not (math.isfinite(half_width) and half_width > 0):
        raise DegenerateAreaError(f"half width must be > 0, got {half_width!r}")
    k = table.k
    predicted = (_SQRT_2PI * amplitude_hat * half_width) / (2.0 * k) * table.values
    objective = (area - predicted) ** 2
    j = int(np.argmin(objective))  # argmin takes the first minimum: smaller k wins
    k_star = float(k[j])
    return half_width / k_star, k_star


def rho_from_samples(signal: SampledSignal, mu_hat: float) -> float:
    """Combination weight for the two one-sided width estimates.

    Ratios the noisy fourth-moment sums ``y^2 (mu_hat - x)^4`` on the
    right side of the peak against the full range, clipped into [0, 1].
    The same ratio over the noiseless samples is the variance-optimal
    weight; see :func:`gaussfit.crlb.optimal_rho_oracle`.
    """
    y = signal.samples
    n = y.size
    n_hat = int(round((mu_hat - signal.x0) / signal.delta_x))
    n_hat = min(max(n_hat, 0), n - 1)
    lever = (mu_hat - signal.grid) ** 4
    contrib = y * y * lever
    denom = float(np.sum(contrib))
    if not math.isfinite(denom) or denom <= 0:
        raise DegenerateRhoError(f"weight denominator is {denom!r}")
    rho = float(np.sum(contrib[n_hat:])) / denom
    return min(max(rho, 0.0), 1.0)


def combine_sigma(sigma_alpha: float, sigma_beta: float, rho: float) -> float:
    """Convex combination ``rho * sigma_alpha + (1 - rho) * sigma_beta``."""
    if not (sigma_alpha > 0 and sigma_beta > 0):
        raise InvalidWidthError(
            f"both width estimates must be > 0, got {sigma_alpha!r}, {sigma_beta!r}"
        )
    if not 0.0 <= rho <= 1.0:
        raise DegenerateRhoError(f"rho must be in [0, 1], got {rho!r}")
    return rho * sigma_alpha + (1.0 - rho) * sigma_beta


def refine_amplitude(signal: SampledSignal, mu_hat: float, sigma_hat: float) -> float:
    """Least-squares amplitude for a fixed unit-height template.

    With ``g[n] = exp(-(x[n] - mu_hat)^2 / (2 sigma_hat^2))`` the residual
    ``sum (a g - y)^2`` is minimized by ``a = (g . y) / (g . g)``, using
    every sample instead of the single one at the peak.
    """
    if not (math.isfinite(sigma_hat) and sigma_hat > 0):
        raise InvalidWidthError(f"sigma must be > 0, got {sigma_hat!r}")
    z = (signal.grid - mu_hat) / sigma_hat
    with np.errstate(under="ignore"):
        g = np.exp(-0.5 * z * z)
    denom = float(np.dot(g, g))
    if not math.isfinite(denom) or denom <= 0:
        raise DegenerateAreaError("amplitude template vanishes on the grid")
    return float(np.dot(g, signal.samples)) / denom


def m3_initial_fit(
    signal: SampledSignal,
    config: InitConfig,
    table: ErfTable,
) -> FitResult:
    """Full split-area initializer.

    Pipeline: windowed peak -> split areas at the peak -> one-sided width
    estimates through the table -> convex combination with the sample
    ratio weight -> template-matched amplitude.  If one side has no
    usable area (peak at a grid edge, or noise summing below zero), the
    other side's estimate is used alone and the result is flagged
    ``degenerate-fallback``.
    """
    peak = windowed_peak(signal, config.window_l)
    if peak.amplitude_hat <= 0:
        raise NoPeakError("windowed peak height is non-positive", stage="windowed_peak")
    n = len(signal)
    n_hat = int(round((peak.mu_hat - signal.x0) / signal.delta_x))
    n_hat = min(max(n_hat, 0), n - 1)
    areas = partial_areas(signal, n_hat)

    diagnostics: dict = {
        "n_hat": n_hat,
        "s_beta": areas.s_beta,
        "s_alpha": areas.s_alpha,
    }
    k_lo = float(table.k[0])
    k_hi = float(table.k[-1])

    sigma_beta = sigma_alpha = None
    try:
        sigma_beta, k_beta = sigma_from_area(
            areas.s_beta, n_hat * signal.delta_x, peak.amplitude_hat, table
        )
        diagnostics["k_star_beta"] = k_beta
        diagnostics["boundary_beta"] = k_beta in (k_lo, k_hi)
    except DegenerateAreaError:
        pass
    try:
        sigma_alpha, k_alpha = sigma_from_area(
            areas.s_alpha, (n - n_hat) * signal.delta_x, peak.amplitude_hat, table
        )
        diagnostics["k_star_alpha"] = k_alpha
        diagnostics["boundary_alpha"] = k_alpha in (k_lo, k_hi)
    except DegenerateAreaError:
        pass

    status = CONVERGED
    if sigma_beta is None and sigma_alpha is None:
        raise DegenerateAreaError(
            "no usable area on either side of the peak", stage="sigma_from_area"
        )
    if sigma_beta is None:
        rho, sigma_hat = 1.0, sigma_alpha
        status = DEGENERATE_FALLBACK
        diagnostics["fallback"] = "alpha-only"
    elif sigma_alpha is None:
        rho, sigma_hat = 0.0, sigma_beta
        status = DEGENERATE_FALLBACK
        diagnostics["fallback"] = "beta-only"
    else:
        try:
            rho = rho_from_samples(signal, peak.mu_hat)
        except DegenerateRhoError as err:
            raise DegenerateRhoError(str(err), stage="rho_from_samples") from None
        sigma_hat = combine_sigma(sigma_alpha, sigma_beta, rho)
    diagnostics["rho"] = rho

    amplitude = refine_amplitude(signal, peak.mu_hat, sigma_hat)
    if not (math.isfinite(amplitude) and amplitude > 0):
        raise NoPeakError(
            f"refined amplitude is not positive: {amplitude!r}",
            stage="refine_amplitude",
        )
    params = GaussianParams(amplitude=amplitude, mu=peak.mu_hat, sigma=sigma_hat)
    return FitResult(
        params=params,
        coeffs=None,
        method="M3",
        iterations_run=0,
        status=status,
        diagnostics=diagnostics,
    )


def write_erf_table_csv(table: ErfTable, path) -> None:
    """Persist the table; 17 significant digits round-trip exactly."""
    k = table.k
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("k,erf_k_over_sqrt2\n")
        for kj, vj in zip(k, table.values):
            fh.write(f"{kj:.17g},{vj:.17g}\n")


def read_erf_table_csv(path) -> ErfTable:
    """Read a table written by :func:`write_erf_table_csv`."""
    ks, vals = read_two_column_csv(path, ("k", "erf_k_over_sqrt2"), min_rows=1)
    try:
        return ErfTable(k=np.array(ks), values=np.array(vals))
    except InvalidGridError as err:
        raise ParseError(f"bad table contents: {err}") from None
