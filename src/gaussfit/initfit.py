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

Every stage works on a block of signals that share one grid
(:class:`gaussfit.signal.SignalBlock`): it takes the block, with one value
per row for its other inputs, and returns a list with one entry per row,
an error of a row taking that row's place; :func:`sigma_from_area` takes
and returns arrays.  The moving-average peaks, table lookups, ``rho``
weights and templates are whole-block array operations.  The sums over a
row's slice (the partial areas and the ``rho`` numerator) and the
template dot products are one numpy call per row, because their rounding
depends on the slice, so every row equals the row computed alone bit for
bit.  :func:`m3_initial_fit` fits a signal by running each stage once over
the signal's block and then deciding every row in stage order: fallbacks,
statuses, diagnostics, and typed errors with their stage labels.
"""

from __future__ import annotations

import functools
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
    "default_erf_table",
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

    def __post_init__(self):
        if self.window_l < 1:
            raise InvalidWindowError(f"window_l must be >= 1, got {self.window_l}")


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


@functools.cache
def default_erf_table() -> ErfTable:
    """The default table, k from 0.1 to 10 in steps of 0.01.  It is built
    on first use and shared by every later caller in the process, so its
    arrays are made read-only."""
    table = build_erf_table(0.1, 0.01, 991)
    table.k.flags.writeable = False
    table.values.flags.writeable = False
    return table


def naive_peak(block: SignalBlock) -> list:
    """Each row's largest sample and its index; ties go to the smallest
    index.  A row without a positive sample gets a :class:`NoPeakError`."""
    y = block.samples
    n_hat = y.argmax(axis=1).tolist()
    x0, dx = block.x0, block.delta_x
    heights = [float(row[i]) for row, i in zip(y, n_hat)]
    return [PeakEstimate(n_hat=i, mu_hat=x0 + i * dx, amplitude_hat=a) if a > 0
            else NoPeakError("all samples are non-positive", stage="naive_peak")
            for i, a in zip(n_hat, heights)]


def _check_amplitude(amplitude_hat: float) -> None:
    if not (math.isfinite(amplitude_hat) and amplitude_hat > 0):
        raise InvalidAmplitudeError(f"amplitude must be > 0, got {amplitude_hat!r}")


def sigma_area_m1(block: SignalBlock, amplitude_hat: list) -> list:
    """Width of each row from its full sample sum treated as the Gaussian
    integral, given one peak height per row.

    Since the integral of the model is ``A * sqrt(2 pi) * sigma``, the
    estimate is ``sum(y) * delta_x / (A_hat * sqrt(2 pi))``.  Accurate
    only when the sampled window covers essentially the whole bell; when a
    long tail is cut off, the sum misses area and the width is biased low
    no matter how fine the spacing is.
    """
    for a in amplitude_hat:
        _check_amplitude(a)
    dx = block.delta_x
    with np.errstate(over="ignore"):  # a sum that overflows gives no width
        totals = block.samples.sum(axis=1).tolist()
    return [total * dx / (a * _SQRT_2PI) for total, a in zip(totals, amplitude_hat)]


def windowed_peak(block: SignalBlock, window_l: int) -> list:
    """Each row's peak from a length-L moving average; robust to
    single-sample noise.

    ``n_hat`` is the window start maximizing the average of samples
    ``n .. n+L-1``; the location estimate sits at the window center
    ``x0 + (n_hat + L // 2) * delta_x`` and the height estimate is the
    sample there.  With ``L = 1`` this degenerates to :func:`naive_peak`.

    The moving average is built as a chain of scaled, shifted copies of
    the samples, ``((y[n] w + y[n+1] w) + ...) + y[n+L-1] w``: elementwise
    arithmetic whose result does not depend on the row count or the BLAS
    kernel of the machine.
    """
    y = block.samples
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
    x0, dx, half = block.x0, block.delta_x, window_l // 2
    return [PeakEstimate(n_hat=s, mu_hat=x0 + (s + half) * dx,
                         amplitude_hat=float(row[s + half]))
            for s, row in zip(starts, y)]


def partial_areas(block: SignalBlock, n_hat: list) -> list:
    """Split each row's ``delta_x * sum(y)`` at its peak index.

    ``s_beta`` collects samples before ``n_hat``, ``s_alpha`` the rest;
    together they partition the full sum.
    """
    y, dx = block.samples, block.delta_x
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


def sigma_from_area(area: np.ndarray, half_width: np.ndarray,
                    amplitude_hat: np.ndarray, table: ErfTable):
    """Width estimates from one-sided areas via the lookup table.

    A half-Gaussian of width ``sigma`` truncated ``half_width`` from its
    peak has area ``sqrt(2 pi) A halfwidth / (2 k) * erf(k / sqrt 2)``
    with ``k = half_width / sigma``; the grid value minimizing the squared
    mismatch against ``area`` gives ``sigma = half_width / k_star``.

    Takes 1-d arrays of areas, half widths and peak heights and returns
    the arrays ``(sigma, k_star)``, from one ``(len(area), k_count)``
    objective scanned over the full grid, without interpolation.  Ties
    break toward smaller k: each row takes its first minimum.
    """
    for a, h, amp in zip(area.tolist(), half_width.tolist(), amplitude_hat.tolist()):
        _check_amplitude(amp)
        problem = _area_problem(a, h)
        if problem is not None:
            raise DegenerateAreaError(problem)
    k = table.k
    # huge areas overflow the mismatch to inf, which argmin handles
    with np.errstate(over="ignore", invalid="ignore"):
        objective = np.divide.outer(_SQRT_2PI * amplitude_hat * half_width, 2.0 * k)
        objective *= table.values  # the predicted areas
        np.subtract(area[:, None], objective, out=objective)
        np.square(objective, out=objective)
    k_star = k[objective.argmin(axis=1)]
    return half_width / k_star, k_star


def _nearest_index(block: SignalBlock, mu_hat: float) -> int:
    """Grid index nearest to a location (ties to even), clamped into the grid."""
    index = round((mu_hat - block.x0) / block.delta_x)
    return min(max(index, 0), block.samples.shape[1] - 1)


def rho_from_samples(block: SignalBlock, mu_hat: list) -> list:
    """Combination weight of each row's two one-sided width estimates,
    given one location per row.

    Ratios the noisy fourth-moment sums ``y^2 (mu_hat - x)^4`` on the
    right side of the peak against the full range, clipped into [0, 1].
    The same ratio over the noiseless samples is the variance-optimal
    weight; see :func:`gaussfit.crlb.optimal_rho_oracle`.  A row whose
    denominator is unusable gets a :class:`DegenerateRhoError`.

    The lever ``(mu_hat - x)^4`` is a squared square; the numerator is
    one sum per row, since its slice differs.
    """
    mu = np.asarray(mu_hat, dtype=np.float64)
    contrib = block.samples * block.samples
    lever = mu[:, None] - block.grid
    np.square(lever, out=lever)
    np.square(lever, out=lever)
    contrib *= lever
    del lever
    rhos = []
    for row, start, denom in zip(contrib, [_nearest_index(block, m) for m in mu.tolist()],
                                 contrib.sum(axis=1).tolist()):
        if math.isfinite(denom) and denom > 0:
            rhos.append(min(max(float(np.sum(row[start:])) / denom, 0.0), 1.0))
        else:
            rhos.append(DegenerateRhoError(f"weight denominator is {denom!r}",
                                           stage="rho_from_samples"))
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


def refine_amplitude(block: SignalBlock, mu_hat: list, sigma_hat: list) -> list:
    """Least-squares amplitude of each row for a fixed unit-height
    template, given one location and width per row.

    With ``g[n] = exp(-(x[n] - mu_hat)^2 / (2 sigma_hat^2))`` the residual
    ``sum (a g - y)^2`` is minimized by ``a = (g . y) / (g . g)``, using
    every sample instead of the single one at the peak.  A row whose width
    or template is unusable gets its error.  The templates of the other
    rows are built as one block; the dot products are one ``np.dot`` per
    row.
    """
    out: list = [None] * len(block)
    good = []
    for i, sigma in enumerate(sigma_hat):
        if math.isfinite(sigma) and sigma > 0:
            good.append(i)
        else:
            out[i] = InvalidWidthError(f"sigma must be > 0, got {sigma!r}")
    if not good:
        return out
    if len(good) < len(block):
        block = SignalBlock(block.delta_x, block.samples[good], block.x0)
        mu_hat, sigma_hat = [mu_hat[i] for i in good], [sigma_hat[i] for i in good]
    # extreme grids or samples overflow the template or its dot products;
    # the checks below turn that into a typed error or a non-finite amplitude
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        z = block.grid - np.array(mu_hat, dtype=np.float64)[:, None]
        z /= np.array(sigma_hat, dtype=np.float64)[:, None]
        g = -0.5 * z
        g *= z
        del z
        np.exp(g, out=g)
        for i, gi, yi in zip(good, g, block.samples):
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

    On a row of a :class:`SignalBlock` the whole block is fitted the first
    time one of its rows asks with this ``config`` and ``table``, and the
    other rows read their outcome; a signal of its own is a block of one.
    """
    block, i = SignalBlock.containing(signal)
    # the entry holds the table, so its id cannot pass to a new table
    # while the entry lives
    _, outcomes = block.once(("m3", config, id(table)),
                             lambda: (table, _m3_initial_fit_block(block, config, table)))
    if isinstance(outcomes[i], GaussFitError):
        raise outcomes[i]
    return outcomes[i]


def _m3_initial_fit_block(
    block: SignalBlock,
    config: InitConfig,
    table: ErfTable,
) -> list:
    """:func:`m3_initial_fit` of every row: its :class:`FitResult`, or the
    :class:`GaussFitError` the row raises alone (same class, message and
    stage).

    One pass: the windowed peak, the partial areas and ``rho`` run over
    the whole block; the table lookup runs once over every usable side of
    the rows with a peak, as one ``(sides, k_count)`` objective; each row
    is then decided in stage order; and the template amplitude runs once
    over the block, with a NaN width for the rows already decided.
    """
    try:
        peaks = windowed_peak(block, config.window_l)
    except InvalidWindowError as err:
        return [err] * len(block)
    dx, n = block.delta_x, block.samples.shape[1]
    mu_hat = [p.mu_hat for p in peaks]
    n_hat = [_nearest_index(block, mu) for mu in mu_hat]
    # these two also run on rows an earlier stage has decided; an area or a
    # weight that overflows ends in a fallback or a typed error, so numpy's
    # warnings would only be noise
    with np.errstate(over="ignore", invalid="ignore"):
        areas = partial_areas(block, n_hat)
        rhos = rho_from_samples(block, mu_hat)
    sides = [(i, side, area, half_width, peak.amplitude_hat)
             for i, (peak, nh, a) in enumerate(zip(peaks, n_hat, areas))
             if peak.amplitude_hat > 0
             for side, area, half_width in (("beta", a.s_beta, nh * dx),
                                            ("alpha", a.s_alpha, (n - nh) * dx))
             if _area_problem(area, half_width) is None]
    lookups: dict = {}  # (row, side) -> (sigma, k_star)
    if sides:
        index, names, side_areas, half_widths, heights = zip(*sides)
        sigmas, k_stars = sigma_from_area(np.array(side_areas), np.array(half_widths),
                                          np.array(heights), table)
        lookups = dict(zip(zip(index, names), zip(sigmas.tolist(), k_stars.tolist())))
    k_ends = (float(table.k[0]), float(table.k[-1]))

    outcomes: list = []
    templates: list = []  # (sigma_hat, status, diagnostics), None once decided
    for i, (peak, a, rho) in enumerate(zip(peaks, areas, rhos)):
        outcome = template = None
        if peak.amplitude_hat <= 0:
            outcome = NoPeakError("windowed peak height is non-positive",
                                  stage="windowed_peak")
        else:
            diagnostics = {"n_hat": n_hat[i], "s_beta": a.s_beta, "s_alpha": a.s_alpha}
            widths = {}
            for side in ("beta", "alpha"):
                if (i, side) in lookups:
                    widths[side], k_star = lookups[i, side]
                    diagnostics[f"k_star_{side}"] = k_star
                    diagnostics[f"boundary_{side}"] = k_star in k_ends
            if not widths:
                outcome = DegenerateAreaError("no usable area on either side of the peak",
                                              stage="sigma_from_area")
            elif len(widths) == 1:
                (side, sigma_hat), = widths.items()
                diagnostics["fallback"] = f"{side}-only"
                diagnostics["rho"] = 1.0 if side == "alpha" else 0.0
                template = (sigma_hat, DEGENERATE_FALLBACK, diagnostics)
            elif isinstance(rho, GaussFitError):
                outcome = rho
            else:
                diagnostics["rho"] = rho
                try:
                    sigma_hat = combine_sigma(widths["alpha"], widths["beta"], rho)
                    template = (sigma_hat, CONVERGED, diagnostics)
                except GaussFitError as err:
                    outcome = err
        outcomes.append(outcome)
        templates.append(template)

    amplitudes = refine_amplitude(block, mu_hat,
                                  [math.nan if t is None else t[0] for t in templates])
    for i, (template, amplitude) in enumerate(zip(templates, amplitudes)):
        if template is None:
            continue
        sigma_hat, status, diagnostics = template
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
                                iterations_run=0, status=status, diagnostics=diagnostics)
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
