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

M2, M4 and M5 are one reweighting iteration started from three weight
vectors; :func:`start_weights` builds the start from the stage-1 outcome
of :func:`stage_one`.  The two-stage methods start from the Gaussian
described by the stage-1 estimate, frozen (the iteration does not re-pick
the peak), so with equal starting weights and iteration counts the three
outputs are bit-identical.

Stage 1 (M1, or the split-area fit of M3) runs on blocks of signals: on a
row of a :class:`gaussfit.signal.SignalBlock` it runs once for the whole
block, the first time one of its rows asks, and the other rows and
methods read the outcome.  A benchmark chunk thus runs M1 and M3 once
per block and hands the same outcomes to M2 and M4.

The iteration runs on blocks too.  :func:`trace_block` starts every row
of a block and hands the rows with a start to one
:func:`gaussfit.linfit.wls_traces` call, and :func:`fit_block` turns each
row's trace into its fit: one entry per row, a :class:`FitResult` or the
row's :class:`GaussFitError`.  :func:`run_method` fits one signal through
:func:`gaussfit.linfit.wls_trace`, the same kernel on a block of one, and
builds its result the way :func:`fit_block` does.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    GaussFitError,
    InvalidParamsError,
    InvalidWidthError,
    UnknownMethodError,
)
from .initfit import (
    ErfTable,
    InitConfig,
    PeakEstimate,
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
    eval_gaussian,
    log_transform,
    resolve_clamp_floor,
)

__all__ = [
    "METHOD_IDS",
    "MethodSpec",
    "fit_block",
    "run_method",
    "stage_one",
    "start_weights",
    "trace_block",
]

METHOD_IDS = ("M1", "M2", "M3", "M4", "M5")


@dataclass(frozen=True)
class MethodSpec:
    """Which pipeline to run and with what knobs."""

    method_id: str
    stage2_iters: int = 2
    m5_iters: int = 12
    init: InitConfig = field(default_factory=InitConfig)
    clamp_floor: float | None = None

    def __post_init__(self):
        if self.method_id not in METHOD_IDS:
            raise UnknownMethodError(f"unknown method id {self.method_id!r}")
        if self.method_id in ("M2", "M4") and self.stage2_iters < 1:
            raise GaussFitError(f"stage2_iters must be >= 1, got {self.stage2_iters}")
        if self.method_id == "M5" and self.m5_iters < 1:
            raise GaussFitError(f"m5_iters must be >= 1, got {self.m5_iters}")


def _m1_block(block: SignalBlock) -> list:
    """M1 on every row: its :class:`FitResult` or its typed error."""
    peaks = naive_peak(block)
    amplitudes = [p.amplitude_hat if isinstance(p, PeakEstimate) else 1.0 for p in peaks]
    outcomes: list = []
    for peak, sigma in zip(peaks, sigma_area_m1(block, amplitudes)):
        outcome = peak
        if isinstance(peak, PeakEstimate):
            try:
                params = GaussianParams(peak.amplitude_hat, peak.mu_hat, sigma)
                outcome = FitResult(params=params, method="M1", iterations_run=0,
                                    diagnostics={"n_hat": peak.n_hat})
            except InvalidParamsError as err:  # a sample sum <= 0 gives no width
                outcome = InvalidParamsError(str(err), stage="sigma_area_m1")
        outcomes.append(outcome)
    return outcomes


def stage_one(spec: MethodSpec, signal: SampledSignal, table: ErfTable):
    """Stage-1 outcome of ``signal`` for ``spec``: the M1 fit (M1, M2) or
    the split-area fit with ``spec.init`` (M3, M4), each a
    :class:`FitResult` or the :class:`GaussFitError` it raised; ``None``
    for M5, which has no stage 1.

    On a row of a :class:`SignalBlock` the stage runs once for the whole
    block, and every later call for one of its rows with the same stage
    (M1 and M2 share one, M3 and M4 one per ``init``) reads its outcome.
    """
    mid = spec.method_id
    if mid in ("M1", "M2"):
        block, i = SignalBlock.containing(signal)
        return block.once(("m1",), lambda: _m1_block(block))[i]
    if mid in ("M3", "M4"):
        try:
            return m3_initial_fit(signal, spec.init, table)
        except GaussFitError as err:
            return err
    return None


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
    floor = resolve_clamp_floor(signal, spec.clamp_floor)
    return np.exp(log_transform(signal, floor)), status, diagnostics


def _iterations(spec: MethodSpec) -> int:
    return spec.m5_iters if spec.method_id == "M5" else spec.stage2_iters


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


def trace_block(spec: MethodSpec, block: SignalBlock, table: ErfTable,
                num_iters: int) -> list:
    """The ``num_iters``-step reweighting trace of M2, M4 or M5 on every
    row of ``block``, with one :func:`gaussfit.linfit.wls_traces` call.

    One entry per row, ``(trace, status, diagnostics)``: the row's
    :func:`wls_traces` entry (its trace, or the error that ended it) with
    the status and diagnostics of :func:`start_weights`.  A row without a
    start has the error of :func:`start_weights` and ``None``, ``None``.
    """
    entries: list = []
    started, weights = [], []
    for i in range(len(block)):
        row = block.row(i)
        try:
            w0, status, diagnostics = start_weights(spec, row, stage_one(spec, row, table))
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


def fit_block(spec: MethodSpec, block: SignalBlock, table: ErfTable) -> list:
    """Run M2, M4 or M5 on every row of ``block``: one entry per row, the
    :class:`FitResult` :func:`run_method` returns on that row or the
    :class:`GaussFitError` it raises.  Stage 1 and :func:`start_weights`
    run per row and the iteration as one :func:`trace_block`.
    """
    return [trace if isinstance(trace, GaussFitError)
            else _reweighted_fit(spec, trace, status, diagnostics)
            for trace, status, diagnostics in trace_block(spec, block, table,
                                                          _iterations(spec))]


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
    mid = spec.method_id
    if mid == "M3":
        return m3_initial_fit(signal, spec.init, table)
    stage1 = stage_one(spec, signal, table)
    if mid == "M1":
        if isinstance(stage1, GaussFitError):
            raise stage1
        return stage1
    w0, status, diagnostics = start_weights(spec, signal, stage1)
    fit = _reweighted_fit(spec, wls_trace(signal, w0, _iterations(spec), spec.clamp_floor),
                          status, diagnostics)
    if isinstance(fit, GaussFitError):
        raise fit
    return fit
