"""Typed errors raised across the package.

Every failure mode a caller may want to distinguish gets its own class.
All of them derive from :class:`GaussFitError`, which itself derives from
``ValueError`` so that generic callers can still catch the base builtin.
"""

from __future__ import annotations


class GaussFitError(ValueError):
    """Base class for all fitting errors.

    ``stage`` optionally names the pipeline step that failed (e.g.
    ``"windowed_peak"``); ``iteration`` carries the iteration index for
    errors raised inside an iterative solve.
    """

    def __init__(self, message: str, *, stage: str | None = None,
                 iteration: int | None = None):
        parts = [message]
        if stage is not None:
            parts.append(f"[stage: {stage}]")
        if iteration is not None:
            parts.append(f"[iteration: {iteration}]")
        super().__init__(" ".join(parts))
        self.stage = stage
        self.iteration = iteration


class InvalidParamsError(GaussFitError):
    """Gaussian parameters violate A > 0, sigma > 0, mu finite."""


class InvalidWidthError(GaussFitError):
    """Quadratic coefficient c >= 0: no real Gaussian corresponds."""


class InvalidGridError(GaussFitError):
    """Bad sampling grid (non-positive spacing, too few samples, ...)."""


class InvalidClampError(GaussFitError):
    """Clamp floor is not a positive finite number."""


class InvalidWindowError(GaussFitError):
    """Peak-search window length out of range."""


class InvalidAmplitudeError(GaussFitError):
    """Amplitude estimate is not strictly positive."""


class SingularSystemError(GaussFitError):
    """Weighted normal equations are rank deficient.

    Raised inside an iteration, ``completed`` holds the iterates finished
    before the failing one (a list of :class:`gaussfit.results.WlsStep`).
    """

    def __init__(self, message: str, *, stage: str | None = None,
                 iteration: int | None = None, completed=()):
        super().__init__(message, stage=stage, iteration=iteration)
        self.completed = list(completed)


class NoPeakError(GaussFitError):
    """No strictly positive sample; peak-based estimators need one."""


class DegenerateAreaError(GaussFitError):
    """A partial sample sum is empty or non-positive."""


class DegenerateRhoError(GaussFitError):
    """Combination-weight denominator vanished or is invalid."""


class DegenerateFisherError(GaussFitError):
    """Fisher information sum vanished over the requested index range."""


class UnknownMethodError(GaussFitError):
    """Method id outside M1..M5."""


class ShapeError(GaussFitError):
    """Sequence lengths do not match."""


class ParseError(GaussFitError):
    """Malformed CSV input.  ``line`` is the 1-based offending line."""

    def __init__(self, message: str, *, line: int | None = None):
        if line is not None:
            message = f"{message} (line {line})"
        super().__init__(message)
        self.line = line
