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

Both pipelines work on blocks of signals that share one grid
(:class:`gaussfit.signal.SignalBlock`).  Every stage function takes a
block in place of the signal, with one value per row for its other
inputs, and returns a list with every row's result, an error of a row
taking that row's place; :func:`sigma_from_area` takes arrays in place of
its numbers.  A stage computes the moving-average peaks, table lookups,
``rho`` weights and template products as whole-block array operations;
only the decisions (fallbacks, statuses, diagnostics, typed errors with
their stage labels) are made row by row, in :func:`m3_initial_fit_block`.
Given one signal, a stage runs on a block of one, so there is one
implementation of each stage.  The sums over a row's slice (the partial
areas and the ``rho`` numerator) and the template dot products stay one
numpy call per row, because their rounding depends on the slice; every
row equals the row computed alone bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateAreaError,
    DegenerateRhoError,
    GaussFitError,
    InvalidAmplitudeError,
    InvalidGridError,
    InvalidWidthError,
    InvalidWindowError,
    NoPeakError,
    ParseError,
)
from .results import CONVERGED, DEGENERATE_FALLBACK, FitResult
from .signal import GaussianParams, SampledSignal, SignalBlock, read_two_column_csv

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
    "m3_initial_fit_block",
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


def _single(outcomes: list):
    """The only outcome of a block of one, raised if it is an error."""
    if isinstance(outcomes[0], GaussFitError):
        raise outcomes[0]
    return outcomes[0]


def naive_peak(signal: SampledSignal | SignalBlock):
    """Largest sample and its index; ties go to the smallest index.

    Given a :class:`SignalBlock`, a list with every row's peak, or the
    :class:`NoPeakError` of a row without a positive sample.
    """
    if not isinstance(signal, SignalBlock):
        return _single(naive_peak(SignalBlock.of(signal)))
    y = signal.samples
    n_hat = y.argmax(axis=1).tolist()
    x0, dx = signal.x0, signal.delta_x
    heights = [float(row[i]) for row, i in zip(y, n_hat)]
    return [PeakEstimate(n_hat=i, mu_hat=x0 + i * dx, amplitude_hat=a) if a > 0
            else NoPeakError("all samples are non-positive", stage="naive_peak")
            for i, a in zip(n_hat, heights)]


def _check_amplitude(amplitude_hat: float) -> None:
    if not (math.isfinite(amplitude_hat) and amplitude_hat > 0):
        raise InvalidAmplitudeError(f"amplitude must be > 0, got {amplitude_hat!r}")


def sigma_area_m1(signal: SampledSignal | SignalBlock, amplitude_hat):
    """Width from the full sample sum treated as the Gaussian integral.

    Since the integral of the model is ``A * sqrt(2 pi) * sigma``, the
    estimate is ``sum(y) * delta_x / (A_hat * sqrt(2 pi))``.  Accurate
    only when the sampled window covers essentially the whole bell; when a
    long tail is cut off, the sum misses area and the width is biased low
    no matter how fine the spacing is.

    Given a :class:`SignalBlock` and one amplitude per row, a list with
    every row's width.
    """
    if not isinstance(signal, SignalBlock):
        return sigma_area_m1(SignalBlock.of(signal), [amplitude_hat])[0]
    for a in amplitude_hat:
        _check_amplitude(a)
    dx = signal.delta_x
    return [total * dx / (a * _SQRT_2PI)
            for total, a in zip(signal.samples.sum(axis=1).tolist(), amplitude_hat)]


def windowed_peak(signal: SampledSignal | SignalBlock, window_l: int):
    """Peak from a length-L moving average; robust to single-sample noise.

    ``n_hat`` is the window start maximizing the average of samples
    ``n .. n+L-1``; the location estimate sits at the window center
    ``x0 + (n_hat + L // 2) * delta_x`` and the height estimate is the
    sample there.  With ``L = 1`` this degenerates to :func:`naive_peak`.

    The moving average is built as a chain of scaled, shifted copies of
    the samples, ``((y[n] w + y[n+1] w) + ...) + y[n+L-1] w``: elementwise
    arithmetic whose result does not depend on the row count or the BLAS
    kernel of the machine.  Given a :class:`SignalBlock`, a list with
    every row's peak.
    """
    if not isinstance(signal, SignalBlock):
        return windowed_peak(SignalBlock.of(signal), window_l)[0]
    y = signal.samples
    n = y.shape[1]
    if not 1 <= window_l <= n - 1:
        raise InvalidWindowError(f"window_l must be in [1, {n - 1}], got {window_l}",
                                 stage="windowed_peak")
    w = 1.0 / window_l
    m = n - window_l + 1
    averages = y[:, :m] * w
    for k in range(1, window_l):
        averages += y[:, k:k + m] * w
    starts = averages.argmax(axis=1).tolist()
    x0, dx, half = signal.x0, signal.delta_x, window_l // 2
    return [PeakEstimate(n_hat=s, mu_hat=x0 + (s + half) * dx,
                         amplitude_hat=float(row[s + half]))
            for s, row in zip(starts, y)]


def partial_areas(signal: SampledSignal | SignalBlock, n_hat):
    """Split ``delta_x * sum(y)`` at the peak index.

    ``s_beta`` collects samples before ``n_hat``, ``s_alpha`` the rest;
    together they partition the full sum.  Given a :class:`SignalBlock`
    and one index per row, a list with every row's areas.
    """
    if not isinstance(signal, SignalBlock):
        return partial_areas(SignalBlock.of(signal), [n_hat])[0]
    y, dx = signal.samples, signal.delta_x
    n = y.shape[1]
    areas = []
    for row, i in zip(y, n_hat):
        if not 0 <= i <= n - 1:
            raise InvalidGridError(f"n_hat must be in [0, {n - 1}], got {i}")
        areas.append(PartialAreas(dx * float(np.sum(row[:i])), dx * float(np.sum(row[i:]))))
    return areas


def _area_problem(area: float, half_width: float) -> str | None:
    """Why a one-sided area gives no width, or ``None`` if it does."""
    if not (math.isfinite(area) and area > 0):
        return f"area must be > 0, got {area!r}"
    if not (math.isfinite(half_width) and half_width > 0):
        return f"half width must be > 0, got {half_width!r}"
    return None


def sigma_from_area(area, half_width, amplitude_hat, table: ErfTable):
    """Width estimate from a one-sided area via the lookup table.

    A half-Gaussian of width ``sigma`` truncated ``half_width`` from its
    peak has area ``sqrt(2 pi) A halfwidth / (2 k) * erf(k / sqrt 2)``
    with ``k = half_width / sigma``; the grid value minimizing the squared
    mismatch against ``area`` gives ``sigma = half_width / k_star``.

    Returns ``(sigma, k_star)``.  Ties break toward smaller k; the full
    grid is scanned, no interpolation.  Given 1-d arrays of areas, half
    widths and amplitudes, returns arrays of both, from one
    ``(len(area), k_count)`` objective in which each row takes its first
    minimum.
    """
    scalar = np.ndim(area) == 0
    if not scalar:
        area, half_width, amplitude_hat = (np.asarray(v, dtype=np.float64)
                                           for v in (area, half_width, amplitude_hat))
    for a, h, amp in ([(area, half_width, amplitude_hat)] if scalar
                      else zip(area.tolist(), half_width.tolist(), amplitude_hat.tolist())):
        _check_amplitude(amp)
        problem = _area_problem(a, h)
        if problem is not None:
            raise DegenerateAreaError(problem)
    k = table.k
    objective = np.divide.outer(_SQRT_2PI * amplitude_hat * half_width, 2.0 * k)
    objective *= table.values  # the predicted areas
    np.subtract(area if scalar else area[:, None], objective, out=objective)
    np.square(objective, out=objective)
    k_star = k[objective.argmin(axis=-1)]  # the first minimum: smaller k wins
    sigma = half_width / k_star
    return (float(sigma), float(k_star)) if scalar else (sigma, k_star)


def _nearest_index(signal: SignalBlock, mu_hat: float) -> int:
    """Grid index nearest to a location (ties to even), clamped into the grid."""
    index = round((mu_hat - signal.x0) / signal.delta_x)
    return min(max(index, 0), signal.samples.shape[1] - 1)


def rho_from_samples(signal: SampledSignal | SignalBlock, mu_hat):
    """Combination weight for the two one-sided width estimates.

    Ratios the noisy fourth-moment sums ``y^2 (mu_hat - x)^4`` on the
    right side of the peak against the full range, clipped into [0, 1].
    The same ratio over the noiseless samples is the variance-optimal
    weight; see :func:`gaussfit.crlb.optimal_rho_oracle`.

    Given a :class:`SignalBlock` and one location per row, a list with
    every row's weight, or the :class:`DegenerateRhoError` of a row whose
    denominator is unusable.  The lever ``(mu_hat - x)^4`` is a squared
    square; the numerator is one sum per row, since its slice differs.
    """
    if not isinstance(signal, SignalBlock):
        return _single(rho_from_samples(SignalBlock.of(signal), [mu_hat]))
    mu = np.asarray(mu_hat, dtype=np.float64)
    contrib = signal.samples * signal.samples
    lever = mu[:, None] - signal.grid
    np.square(lever, out=lever)
    np.square(lever, out=lever)
    contrib *= lever
    del lever
    rhos = []
    for row, start, denom in zip(contrib, [_nearest_index(signal, m) for m in mu.tolist()],
                                 contrib.sum(axis=1).tolist()):
        if math.isfinite(denom) and denom > 0:
            rhos.append(min(max(float(np.sum(row[start:])) / denom, 0.0), 1.0))
        else:
            rhos.append(DegenerateRhoError(f"weight denominator is {denom!r}"))
    return rhos


def combine_sigma(sigma_alpha: float, sigma_beta: float, rho: float) -> float:
    """Convex combination ``rho * sigma_alpha + (1 - rho) * sigma_beta``."""
    if not (sigma_alpha > 0 and sigma_beta > 0):
        raise InvalidWidthError(
            f"both width estimates must be > 0, got {sigma_alpha!r}, {sigma_beta!r}"
        )
    if not 0.0 <= rho <= 1.0:
        raise DegenerateRhoError(f"rho must be in [0, 1], got {rho!r}")
    return rho * sigma_alpha + (1.0 - rho) * sigma_beta


def _sub_block(block: SignalBlock, rows: list[int]) -> SignalBlock:
    """Rows ``rows`` of ``block``, without a copy when that is every row."""
    if len(rows) == len(block):
        return block
    return SignalBlock(block.delta_x, block.samples[rows], block.x0)


def refine_amplitude(signal: SampledSignal | SignalBlock, mu_hat, sigma_hat):
    """Least-squares amplitude for a fixed unit-height template.

    With ``g[n] = exp(-(x[n] - mu_hat)^2 / (2 sigma_hat^2))`` the residual
    ``sum (a g - y)^2`` is minimized by ``a = (g . y) / (g . g)``, using
    every sample instead of the single one at the peak.

    Given a :class:`SignalBlock` and one location and width per row, a
    list with every row's amplitude, or the error of a row whose width or
    template is unusable.  The templates are built as one block; the dot
    products are one ``np.dot`` per row.
    """
    if not isinstance(signal, SignalBlock):
        return _single(refine_amplitude(SignalBlock.of(signal), [mu_hat], [sigma_hat]))
    out: list = [None] * len(signal)
    good = []
    for i, sigma in enumerate(sigma_hat):
        if math.isfinite(sigma) and sigma > 0:
            good.append(i)
        else:
            out[i] = InvalidWidthError(f"sigma must be > 0, got {sigma!r}")
    if not good:
        return out
    if len(good) < len(signal):
        signal = _sub_block(signal, good)
        mu_hat, sigma_hat = [mu_hat[i] for i in good], [sigma_hat[i] for i in good]
    z = signal.grid - np.array(mu_hat, dtype=np.float64)[:, None]
    z /= np.array(sigma_hat, dtype=np.float64)[:, None]
    g = -0.5 * z
    g *= z
    del z
    with np.errstate(under="ignore"):
        np.exp(g, out=g)
    for i, gi, yi in zip(good, g, signal.samples):
        gg = float(np.dot(gi, gi))
        if not math.isfinite(gg) or gg <= 0:
            out[i] = DegenerateAreaError("amplitude template vanishes on the grid")
        else:
            out[i] = float(np.dot(gi, yi)) / gg
    return out


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

    One row of :func:`m3_initial_fit_block`: on a row of a
    :class:`SignalBlock` the whole block is fitted the first time one of
    its rows asks with this ``config`` and ``table``, and the other rows
    read their outcome.
    """
    block, i = SignalBlock.containing(signal)
    # the entry holds the table, so its id cannot pass to a new table
    # while the entry lives
    _, outcomes = block.once(("m3", config, id(table)),
                             lambda: (table, m3_initial_fit_block(block, config, table)))
    return _single([outcomes[i]])


def m3_initial_fit_block(
    block: SignalBlock,
    config: InitConfig,
    table: ErfTable,
) -> list:
    """:func:`m3_initial_fit` of every row: its :class:`FitResult`, or the
    :class:`GaussFitError` the row raises alone (same class, message and
    stage).

    Each stage runs once over the rows still in play: the moving-average
    peak over the block, the table lookup over every usable side of every
    row as one ``(sides, k_count)`` objective, the ``rho`` weights over
    the rows with two sides, and the template amplitude over the rows
    with a width.
    """
    rows = len(block)
    try:
        peaks = windowed_peak(block, config.window_l)
    except InvalidWindowError as err:
        return [err] * rows
    dx, n = block.delta_x, block.samples.shape[1]
    mu_hat = [p.mu_hat for p in peaks]
    n_hat = [_nearest_index(block, mu) for mu in mu_hat]
    outcomes: list = [None] * rows
    diagnostics: list = [None] * rows

    live = []
    for i, peak in enumerate(peaks):
        if peak.amplitude_hat <= 0:
            outcomes[i] = NoPeakError("windowed peak height is non-positive",
                                      stage="windowed_peak")
        else:
            live.append(i)
    sides = []  # (row, side, area, half width, peak height) of every usable side
    for i, areas in zip(live, partial_areas(_sub_block(block, live),
                                            [n_hat[i] for i in live])):
        nh, height = n_hat[i], peaks[i].amplitude_hat
        diagnostics[i] = {"n_hat": nh, "s_beta": areas.s_beta, "s_alpha": areas.s_alpha}
        for side, area, half_width in (("beta", areas.s_beta, nh * dx),
                                       ("alpha", areas.s_alpha, (n - nh) * dx)):
            if _area_problem(area, half_width) is None:
                sides.append((i, side, area, half_width, height))

    widths: dict = {}
    if sides:
        index, names, areas, half_widths, amplitudes = zip(*sides)
        sigmas, k_stars = sigma_from_area(np.array(areas), np.array(half_widths),
                                          np.array(amplitudes), table)
        k_lo, k_hi = float(table.k[0]), float(table.k[-1])
        for i, side, sigma, k_star in zip(index, names, sigmas.tolist(), k_stars.tolist()):
            widths[i, side] = sigma
            diagnostics[i][f"k_star_{side}"] = k_star
            diagnostics[i][f"boundary_{side}"] = k_star in (k_lo, k_hi)

    chosen: dict = {}  # row -> (rho, sigma_hat, status)
    two_sided = []
    for i in live:
        sigma_beta, sigma_alpha = widths.get((i, "beta")), widths.get((i, "alpha"))
        if sigma_beta is None and sigma_alpha is None:
            outcomes[i] = DegenerateAreaError(
                "no usable area on either side of the peak", stage="sigma_from_area")
        elif sigma_beta is None:
            diagnostics[i]["fallback"] = "alpha-only"
            chosen[i] = (1.0, sigma_alpha, DEGENERATE_FALLBACK)
        elif sigma_alpha is None:
            diagnostics[i]["fallback"] = "beta-only"
            chosen[i] = (0.0, sigma_beta, DEGENERATE_FALLBACK)
        else:
            two_sided.append(i)
    if two_sided:
        rhos = rho_from_samples(_sub_block(block, two_sided), [mu_hat[i] for i in two_sided])
        for i, rho in zip(two_sided, rhos):
            if isinstance(rho, GaussFitError):
                outcomes[i] = DegenerateRhoError(str(rho), stage="rho_from_samples")
                continue
            try:
                sigma_hat = combine_sigma(widths[i, "alpha"], widths[i, "beta"], rho)
            except GaussFitError as err:
                outcomes[i] = err
                continue
            chosen[i] = (rho, sigma_hat, CONVERGED)

    templated = sorted(chosen)
    if not templated:
        return outcomes
    amplitudes = refine_amplitude(_sub_block(block, templated),
                                  [mu_hat[i] for i in templated],
                                  [chosen[i][1] for i in templated])
    for i, amplitude in zip(templated, amplitudes):
        rho, sigma_hat, status = chosen[i]
        diagnostics[i]["rho"] = rho
        try:
            if isinstance(amplitude, GaussFitError):
                raise amplitude
            if not (math.isfinite(amplitude) and amplitude > 0):
                raise NoPeakError(f"refined amplitude is not positive: {amplitude!r}",
                                  stage="refine_amplitude")
            params = GaussianParams(amplitude=amplitude, mu=mu_hat[i], sigma=sigma_hat)
        except GaussFitError as err:
            outcomes[i] = err
            continue
        outcomes[i] = FitResult(params=params, coeffs=None, method="M3",
                                iterations_run=0, status=status,
                                diagnostics=diagnostics[i])
    return outcomes


def write_erf_table_csv(table: ErfTable, path) -> None:
    """Persist the table; 17 significant digits round-trip exactly."""
    k = table.k
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("k,erf_k_over_sqrt2\n")
        for kj, vj in zip(k, table.values):
            fh.write(f"{kj:.17g},{vj:.17g}\n")


def read_erf_table_csv(path) -> ErfTable:
    """Read a table written by :func:`write_erf_table_csv`."""
    ks, vals, _ = read_two_column_csv(path, ("k", "erf_k_over_sqrt2"), min_rows=1)
    try:
        return ErfTable(k=ks, values=vals)
    except InvalidGridError as err:
        raise ParseError(f"bad table contents: {err}") from None
