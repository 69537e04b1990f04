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
vectors; :func:`reweighted_start` builds the start, which
:func:`run_method` and the iteration sweep of :mod:`gaussfit.bench` both
hand to :func:`gaussfit.linfit.wls_trace`.  The two-stage
methods start from the Gaussian described by the stage-1 estimate, frozen
(the iteration does not re-pick the peak), so with equal starting weights
and iteration counts the three outputs are bit-identical.
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
from .initfit import ErfTable, InitConfig, m3_initial_fit, naive_peak, sigma_area_m1
from .linfit import wls_trace
from .results import CONVERGED, DEGENERATE_FALLBACK, FitResult
from .signal import (
    GaussianParams,
    SampledSignal,
    eval_gaussian,
    log_transform,
    resolve_clamp_floor,
)

__all__ = ["METHOD_IDS", "MethodSpec", "reweighted_start", "run_method"]

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


def _run_m1(signal: SampledSignal) -> FitResult:
    peak = naive_peak(signal)
    sigma = sigma_area_m1(signal, peak.amplitude_hat)
    try:
        params = GaussianParams(
            amplitude=peak.amplitude_hat, mu=peak.mu_hat, sigma=sigma
        )
    except InvalidParamsError as err:  # a sample sum <= 0 gives no width
        raise InvalidParamsError(str(err), stage="sigma_area_m1") from None
    return FitResult(
        params=params,
        method="M1",
        iterations_run=0,
        diagnostics={"n_hat": peak.n_hat},
    )


def reweighted_start(
    spec: MethodSpec, signal: SampledSignal, table: ErfTable
) -> tuple[np.ndarray, str, dict]:
    """Starting weights of the M2, M4 or M5 iteration, with the status and
    diagnostics its fit reports.

    M2 starts from the Gaussian of the M1 estimate, M4 from that of the M3
    estimate, and M5 from the clamped samples.  When stage 1 of M2/M4
    raises, the iteration starts from the samples like M5, the status is
    ``degenerate-fallback`` and ``diagnostics["stage1_error"]`` says why;
    otherwise status and diagnostics are those of stage 1.
    """
    mid = spec.method_id
    if mid not in ("M2", "M4", "M5"):
        raise GaussFitError(f"{mid} has no reweighting stage")
    status, diagnostics = CONVERGED, {}
    stage1 = None
    if mid != "M5":
        try:
            stage1 = (_run_m1(signal) if mid == "M2"
                      else m3_initial_fit(signal, spec.init, table))
        except GaussFitError as err:
            status = DEGENERATE_FALLBACK
            diagnostics["stage1_error"] = str(err)
    if stage1 is not None:
        w0 = eval_gaussian(stage1.params, signal.grid)
        status = stage1.status
        diagnostics.update(stage1.diagnostics)
    else:
        floor = resolve_clamp_floor(signal, spec.clamp_floor)
        w0 = np.exp(log_transform(signal, floor))
    return w0, status, diagnostics


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
    if mid == "M1":
        return _run_m1(signal)

    if mid == "M3":
        result = m3_initial_fit(signal, spec.init, table)
        result.method = "M3"
        return result

    iters = spec.m5_iters if mid == "M5" else spec.stage2_iters
    w0, status, diagnostics = reweighted_start(spec, signal, table)
    last = wls_trace(signal, w0, iters, spec.clamp_floor)[-1]
    if last.params is None:
        raise InvalidWidthError("final iterate does not describe a Gaussian",
                                stage="wls_trace", iteration=iters - 1)
    return FitResult(
        params=last.params,
        coeffs=last.coeffs,
        method=mid,
        iterations_run=iters,
        status=status,
        diagnostics=diagnostics,
    )
