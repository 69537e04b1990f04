"""Linear fitting of the log-transformed Gaussian.

Solving ``min sum_n w[n]^2 (ln y[n] - a - b x[n] - c x[n]^2)^2`` for the
three coefficients covers both plain least squares (all weights one) and
each pass of the iterative reweighted scheme, where the weights are the
Gaussian reconstructed from the previous iterate.  Row weights enter the
design matrix and the observation vector alike, hence the ``w^2`` in the
objective.

Two entry points: :func:`weighted_ls_solve` is one solve (plain least
squares is ``params_from_coeffs(weighted_ls_solve(signal, np.ones(n),
floor))``), and :func:`wls_trace` runs the iteration and returns every
iterate.

Only a 3x3 system ever arises, so the normal equations are formed with
the grid centered at its midpoint (which tames the Vandermonde-style
conditioning) and solved by direct elimination with partial pivoting.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (
    GaussFitError,
    InvalidParamsError,
    InvalidWidthError,
    ShapeError,
    SingularSystemError,
)
from .results import WlsStep, WlsTrace
from .signal import (
    LogPolyCoeffs,
    SampledSignal,
    log_transform,
    params_from_coeffs,
    resolve_clamp_floor,
)

__all__ = ["weighted_ls_solve", "weights_from_params", "wls_trace"]

# Pivot threshold relative to the largest normal-matrix entry.
_PIVOT_RTOL = 100.0 * np.finfo(np.float64).eps


def _solve3(mat: list[list[float]], rhs: list[float]) -> list[float]:
    """Solve a 3x3 system by Gaussian elimination with partial pivoting."""
    a = [row[:] for row in mat]
    b = rhs[:]
    tol = _PIVOT_RTOL * max(abs(v) for row in a for v in row)
    if not math.isfinite(tol) or tol == 0.0:
        raise SingularSystemError("normal matrix is zero or non-finite")
    n = 3
    for col in range(n):
        p = max(range(col, n), key=lambda r: abs(a[r][col]))
        if abs(a[p][col]) <= tol:
            raise SingularSystemError("pivot below tolerance; system is rank deficient")
        if p != col:
            a[col], a[p] = a[p], a[col]
            b[col], b[p] = b[p], b[col]
        for r in range(col + 1, n):
            m = a[r][col] / a[col][col]
            for c in range(col, n):
                a[r][c] -= m * a[col][c]
            b[r] -= m * b[col]
    out = [0.0, 0.0, 0.0]
    for r in (2, 1, 0):
        s = b[r] - sum(a[r][c] * out[c] for c in range(r + 1, n))
        out[r] = s / a[r][r]
    return out


def _validated_weights(weights, n: int) -> np.ndarray:
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (n,):
        raise ShapeError(f"weights shape {w.shape} does not match {n} samples")
    if not np.all(np.isfinite(w)):
        raise GaussFitError("weights must be finite")
    if np.any(w < 0):
        raise GaussFitError("weights must be non-negative")
    return w


def _weighted_normal_solve(x: np.ndarray, logs: np.ndarray, w: np.ndarray) -> LogPolyCoeffs:
    if np.count_nonzero(w > 0) < 3:
        raise SingularSystemError("fewer than 3 samples carry positive weight")
    top = float(np.max(w))
    wn = w / top  # uniform weight scaling cancels in the normal equations
    mid = 0.5 * (x[0] + x[-1])
    t = x - mid
    u = wn * wn
    ut = u * t
    ut2 = ut * t
    s0 = float(np.sum(u))
    s1 = float(np.sum(ut))
    s2 = float(np.sum(ut2))
    s3 = float(np.sum(ut2 * t))
    s4 = float(np.sum(ut2 * t * t))
    r0 = float(np.dot(u, logs))
    r1 = float(np.dot(ut, logs))
    r2 = float(np.dot(ut2, logs))
    ac, bc, cc = _solve3([[s0, s1, s2], [s1, s2, s3], [s2, s3, s4]], [r0, r1, r2])
    # undo the centering: a + b(x - m) + c(x - m)^2 back to powers of x
    return LogPolyCoeffs(
        a=ac - bc * mid + cc * mid * mid,
        b=bc - 2.0 * cc * mid,
        c=cc,
    )


def weighted_ls_solve(
    signal: SampledSignal,
    weights,
    clamp_floor: float | None = None,
) -> LogPolyCoeffs:
    """Minimize ``sum w[n]^2 (ln y[n] - a - b x - c x^2)^2``.

    Raises :class:`SingularSystemError` when fewer than three samples have
    positive weight (the weighted system is rank deficient).
    """
    w = _validated_weights(weights, len(signal))
    floor = resolve_clamp_floor(signal, clamp_floor)
    logs = log_transform(signal, floor)
    return _weighted_normal_solve(signal.grid, logs, w)


def weights_from_params(coeffs: LogPolyCoeffs, grid: np.ndarray) -> np.ndarray:
    """Reconstructed Gaussian values ``exp(a + b x + c x^2)`` on the grid.

    These are the ideal next-iteration weights.  Overflow is left to the
    caller to guard (the iteration zeroes non-finite entries); underflow
    simply produces zero weight.
    """
    g = np.asarray(grid, dtype=np.float64)
    with np.errstate(over="ignore", under="ignore"):
        return np.exp(coeffs.a + coeffs.b * g + coeffs.c * g * g)


def wls_trace(
    signal: SampledSignal,
    initial_weights,
    num_iters: int,
    clamp_floor: float | None = None,
) -> WlsTrace:
    """Run the reweighting iteration and return every iterate.

    Iteration 0 solves with ``initial_weights``; every later iteration
    rebuilds its weights from the previous coefficient estimate via
    :func:`weights_from_params` (non-finite rebuilt weights are zeroed,
    they carry no usable information).

    An iterate whose quadratic curls upward (``c >= 0``) still defines
    valid weights, so the iteration continues through it; on noisy
    tail-heavy signals the reweighting routinely recovers a proper
    Gaussian within an iteration or two.  Such iterates appear in the
    trace with ``params=None``; whether the last one must be a Gaussian is
    the caller's decision.  Rank deficiency at any iteration raises
    :class:`SingularSystemError` with ``stage="wls_trace"`` and the
    iteration index.
    """
    if num_iters < 1:
        raise GaussFitError(f"num_iters must be >= 1, got {num_iters}")
    w = _validated_weights(initial_weights, len(signal))
    floor = resolve_clamp_floor(signal, clamp_floor)
    logs = log_transform(signal, floor)
    x = signal.grid
    trace: WlsTrace = []
    for i in range(num_iters):
        try:
            coeffs = _weighted_normal_solve(x, logs, w)
        except SingularSystemError as err:
            raise SingularSystemError(str(err), stage="wls_trace",
                                      iteration=i) from None
        params = None
        try:
            params = params_from_coeffs(coeffs)
        except (InvalidWidthError, InvalidParamsError):
            pass
        trace.append(WlsStep(coeffs=coeffs, params=params))
        if i + 1 < num_iters:
            w = weights_from_params(coeffs, x)
            w[~np.isfinite(w)] = 0.0
    return trace
