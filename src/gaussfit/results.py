"""Fit result containers shared by the fitting and benchmark modules."""

from __future__ import annotations

from dataclasses import dataclass, field

from .signal import GaussianParams, LogPolyCoeffs

# Fit statuses.  CONVERGED implies valid parameters; DEGENERATE_FALLBACK
# marks results produced through a documented fallback path.
CONVERGED = "converged"
DEGENERATE_FALLBACK = "degenerate-fallback"


@dataclass
class FitResult:
    """Fitted parameters plus provenance and per-stage diagnostics."""

    params: GaussianParams
    coeffs: LogPolyCoeffs | None = None
    method: str | None = None
    iterations_run: int = 0
    status: str = CONVERGED
    diagnostics: dict = field(default_factory=dict)


@dataclass(frozen=True)
class WlsStep:
    """One reweighting iteration: the solved coefficients and, when the
    quadratic has negative curvature, the corresponding Gaussian."""

    coeffs: LogPolyCoeffs
    params: GaussianParams | None


# A trace is one WlsStep per iteration, in order.
WlsTrace = list[WlsStep]
