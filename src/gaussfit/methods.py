"""The five benchmark pipelines, M1 through M5.

=====  ==========================================================
M1     naive peak pick + full-sum width estimate
M2     M1 as stage 1, then iterative reweighted LS (default 2 iters)
M3     split-area initializer (windowed peak, two one-sided widths,
       optimal combination, template amplitude)
M4     M3 as stage 1, then iterative reweighted LS (default 2 iters)
M5     iterative reweighted LS seeded with the clamped samples
       themselves as weights (default 12 iters)
=====  ==========================================================

A :class:`MethodSpec` names the pipeline and holds only the values the
pipelines read: one iteration count, the peak-pick window and the log
clamp floor.

M2, M4 and M5 are one reweighting iteration started from three weight
vectors; :func:`start_weights` builds the start from the stage-1 outcome
of :func:`stage_one`.  The two-stage methods start from the Gaussian
described by the stage-1 estimate, frozen (the iteration does not re-pick
the peak), so with equal starting weights and iteration counts the three
outputs are bit-identical.

Both stages run on blocks of signals (:class:`gaussfit.signal.SignalBlock`).
:func:`stage_one` gives every row's stage-1 outcome (M1, or the split-area
fit of M3), and :func:`trace_block` starts every row from those outcomes
and hands the rows with a start to one :func:`gaussfit.linfit.wls_traces`
call.  A benchmark chunk thus runs M1 and M3 once and hands the same
outcomes to M2 and M4.  :func:`run_method` fits one signal: its
:func:`stage_one` as a block of one, then :func:`gaussfit.linfit.wls_trace`,
the same kernel on one row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    GaussFitError,
    InvalidParamsError,
    InvalidWidthError,
    InvalidWindowError,
    UnknownMethodError,
)
from .initfit import (
    ErfTable,
    PeakEstimate,
    _scaled_rows,
    _unscaled,
    m3_initial_fit,
    naive_peak,
    sigma_area_m1,
)
from .linfit import wls_trace, wls_traces
from .results import CONVERGED, DEGENERATE_FALLBACK, FitResult
from .signal import (
    GaussianParams,
    SampledSignal,
    SignalBlock,
    _clamp_floor,
    eval_gaussian,
    log_transform,
)

__all__ = [
    "METHOD_IDS",
    "MethodSpec",
    "run_method",
    "stage_one",
    "start_weights",
    "trace_block",
]

METHOD_IDS = ("M1", "M2", "M3", "M4", "M5")

# Reweighting iterations when ``MethodSpec.iters`` is None.
_DEFAULT_ITERS = {"M2": 2, "M4": 2, "M5": 12}


@dataclass(frozen=True)
class MethodSpec:
    """Which pipeline to run and the values it reads.

    ``iters`` is the reweighting iteration count of M2, M4 and M5 (None:
    2 for M2 and M4, 12 for M5; M1 and M3 do not iterate).  ``window_l``
    is the moving-average window of the split-area peak pick of M3 and
    M4, and ``clamp_floor`` the log clamp floor of M2, M4 and M5 (None:
    each signal's default floor).

    Construction checks every value for every method, read or not: the id,
    ``iters`` and ``window_l`` >= 1, and ``clamp_floor`` finite and > 0.
    """

    method_id: str
    iters: int | None = None
    window_l: int = 3
    clamp_floor: float | None = None

    def __post_init__(self):
        if self.method_id not in METHOD_IDS:
            raise UnknownMethodError(f"unknown method id {self.method_id!r};"
                                     f" valid: {', '.join(METHOD_IDS)}")
        if self.iters is None:
            object.__setattr__(self, "iters", _DEFAULT_ITERS.get(self.method_id))
        elif self.iters < 1:
            raise GaussFitError(f"iters must be >= 1, got {self.iters}")
        if self.window_l < 1:
            raise InvalidWindowError(f"window_l must be >= 1, got {self.window_l}")
        if self.clamp_floor is not None:  # the explicit-floor branch reads no samples
            _clamp_floor(0.0, self.clamp_floor)


def _m1_block(block: SignalBlock) -> list:
    """M1 on every row: its :class:`FitResult` or its typed error.

    Like the split-area fit, it runs on the rows scaled by a power of two,
    so the full sum cannot overflow; the width is a ratio of scaled values,
    and only the amplitude is scaled back.
    """
    block, exps = _scaled_rows(block)
    peaks = naive_peak(block)
    amplitudes = [p.amplitude_hat if isinstance(p, PeakEstimate) else 1.0 for p in peaks]
    outcomes: list = []
    for peak, sigma, e in zip(peaks, sigma_area_m1(block, amplitudes), exps):
        outcome = peak
        if isinstance(peak, PeakEstimate):
            try:
                params = GaussianParams(_unscaled(peak.amplitude_hat, e), peak.mu_hat, sigma)
                outcome = FitResult(params=params, method="M1", iterations_run=0,
                                    diagnostics={"n_hat": peak.n_hat})
            except InvalidParamsError as err:  # a sample sum <= 0 gives no width
                outcome = InvalidParamsError(str(err), stage="sigma_area_m1")
        outcomes.append(outcome)
    return outcomes


def stage_one(spec: MethodSpec, block: SignalBlock, table: ErfTable) -> list:
    """Stage-1 outcome of every row of ``block`` for ``spec``: the M1 fit
    (M1, M2) or the split-area fit with ``spec.window_l`` (M3, M4), each a
    :class:`FitResult` or the :class:`GaussFitError` the row raised;
    ``None`` for M5, which has no stage 1.
    """
    mid = spec.method_id
    if mid in ("M1", "M2"):
        return _m1_block(block)
    if mid in ("M3", "M4"):
        # one m3_initial_fit call per row, which fits the whole block once
        # through the block's memo: perfbench/selftest.py counts one traced
        # split-area call per M3 trial
        outcomes: list = []
        for i in range(len(block)):
            try:
                outcomes.append(m3_initial_fit(block.row(i), spec.window_l, table))
            except GaussFitError as err:
                outcomes.append(err)
        return outcomes
    return [None] * len(block)


def start_weights(
    spec: MethodSpec, signal: SampledSignal, stage1
) -> tuple[np.ndarray, str, dict]:
    """Starting weights of the M2, M4 or M5 iteration, with the status and
    diagnostics its fit reports, given the stage-1 outcome (a
    :class:`FitResult`, a :class:`GaussFitError`, or ``None`` for M5).

    M2 starts from the Gaussian of the M1 estimate, M4 from that of the M3
    estimate, and M5 from the clamped samples.  When stage 1 of M2/M4
    raised, the iteration starts from the samples like M5, the status is
    ``degenerate-fallback`` and ``diagnostics["stage1_error"]`` says why;
    otherwise status and diagnostics are those of stage 1.
    """
    mid = spec.method_id
    if mid not in ("M2", "M4", "M5"):
        raise GaussFitError(f"{mid} has no reweighting stage")
    status, diagnostics = CONVERGED, {}
    if isinstance(stage1, GaussFitError):
        status = DEGENERATE_FALLBACK
        diagnostics["stage1_error"] = str(stage1)
    elif stage1 is not None:
        w0 = eval_gaussian(stage1.params, signal.grid)
        diagnostics.update(stage1.diagnostics)
        return w0, stage1.status, diagnostics
    floor = _clamp_floor(float(np.max(signal.samples)), spec.clamp_floor)
    return np.exp(log_transform(signal, floor)), status, diagnostics


def _reweighted_fit(spec: MethodSpec, trace: list, status: str, diagnostics: dict):
    """The :class:`FitResult` of a finished trace, or the
    :class:`InvalidWidthError` of a last iterate that is no Gaussian."""
    last = trace[-1]
    if last.params is None:
        return InvalidWidthError("final iterate does not describe a Gaussian",
                                 stage="wls_trace", iteration=len(trace) - 1)
    return FitResult(
        params=last.params,
        coeffs=last.coeffs,
        method=spec.method_id,
        iterations_run=len(trace),
        status=status,
        diagnostics=diagnostics,
    )


def trace_block(spec: MethodSpec, block: SignalBlock, stage1: list,
                num_iters: int) -> list:
    """The ``num_iters``-step reweighting trace of M2, M4 or M5 on every
    row of ``block``, started from the rows' :func:`stage_one` outcomes
    ``stage1``, with one :func:`gaussfit.linfit.wls_traces` call.

    One entry per row, ``(trace, status, diagnostics)``: the row's
    :func:`wls_traces` entry (its trace, or the error that ended it) with
    the status and diagnostics of :func:`start_weights`.  A row without a
    start has the error of :func:`start_weights` and ``None``, ``None``.
    """
    entries: list = []
    started, weights = [], []
    for i, outcome in enumerate(stage1):
        try:
            w0, status, diagnostics = start_weights(spec, block.row(i), outcome)
        except GaussFitError as err:
            entries.append((err, None, None))
            continue
        entries.append((None, status, diagnostics))
        started.append(i)
        weights.append(w0)
    if started:
        if len(started) < len(block):
            block = SignalBlock(block.delta_x, block.samples[started], block.x0)
        for i, trace in zip(started, wls_traces(block, weights, num_iters,
                                                spec.clamp_floor)):
            entries[i] = (trace, *entries[i][1:])
    return entries


def run_method(
    spec: MethodSpec, signal: SampledSignal, table: ErfTable
) -> FitResult:
    """Run one pipeline on a signal.  Deterministic given its inputs.

    Stage errors propagate as typed :class:`GaussFitError` subclasses with
    stage labels, except that a failed stage 1 of M2/M4 falls back to the
    M5 starting weights and flags the result ``degenerate-fallback``.  The
    last iterate of M2/M4/M5 must describe a Gaussian; otherwise
    :class:`InvalidWidthError` is raised with its iteration index.
    """
    stage1, = stage_one(spec, SignalBlock.of(signal), table)
    if spec.method_id in ("M1", "M3"):
        fit = stage1
    else:
        w0, status, diagnostics = start_weights(spec, signal, stage1)
        fit = _reweighted_fit(spec, wls_trace(signal, w0, spec.iters, spec.clamp_floor),
                              status, diagnostics)
    if isinstance(fit, GaussFitError):
        raise fit
    return fit
