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

Only a 3x3 system ever arises.  The normal equations are formed on the
grid centered at its midpoint, ``t = x - m``, which tames the
Vandermonde-style conditioning.  With ``u = (w / max w)^2`` the matrix
holds the five moments ``sum u t^k`` (``k = 0..4``) and the right side
the three sums ``sum u t^k ln y`` (``k = 0..2``).  A trace computes ``t``
once and reuses one ``(5, n)`` buffer: each step fills its rows with the
product chain ``u, u t, u t^2, u t^3, u t^4``, reduces them with one row
sum, takes three dot products for the right side, and solves by an
unrolled elimination with partial pivoting.  These are the operations of
the plain formulation (separate sums and dot products, a loop over
lists for the elimination) in the same order, so the results are
bit-identical to it; ``tests/test_linfit.py`` keeps it as the oracle.

Most of a step's time is the fixed cost of its numpy calls, not their
per-element work: a 12-step trace takes a median 26 us per step on 5
samples and 39 us on 1001 (2-vCPU shared VM, Python 3.11.7, numpy
2.4.6).  So a step allocates nothing.  The rebuilt weights and their
exponent go into two buffers made once per trace, ufunc outputs are
passed positionally, reductions call ``np.add.reduce`` and
``np.maximum.reduce`` directly, and the non-finite scrub of rebuilt
weights runs only when their maximum is not finite.
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


def _solve_normal(s0: float, s1: float, s2: float, s3: float, s4: float,
                  r0: float, r1: float, r2: float) -> tuple[float, float, float]:
    """Solve ``[[s0, s1, s2], [s1, s2, s3], [s2, s3, s4]] @ c = [r0, r1, r2]``.

    Gaussian elimination with partial pivoting, unrolled.  A pivot is the
    largest magnitude in its column, ties going to the upper row, and it
    must exceed ``_PIVOT_RTOL`` times the largest matrix entry.
    """
    tol = _PIVOT_RTOL * max(abs(s0), abs(s1), abs(s2), abs(s3), abs(s4))
    if not math.isfinite(tol) or tol == 0.0:
        raise SingularSystemError("normal matrix is zero or non-finite")
    # rows (a[r][0], a[r][1], a[r][2], b[r]); column 0 picks the pivot row
    row0, row1, row2 = (s0, s1, s2, r0), (s1, s2, s3, r1), (s2, s3, s4, r2)
    if abs(s1) > abs(s0):
        if abs(s2) > abs(s1):
            row0, row2 = row2, row0
        else:
            row0, row1 = row1, row0
    elif abs(s2) > abs(s0):
        row0, row2 = row2, row0
    a00, a01, a02, b0 = row0
    a10, a11, a12, b1 = row1
    a20, a21, a22, b2 = row2
    if abs(a00) <= tol:
        raise SingularSystemError("pivot below tolerance; system is rank deficient")
    m = a10 / a00
    a11 -= m * a01
    a12 -= m * a02
    b1 -= m * b0
    m = a20 / a00
    a21 -= m * a01
    a22 -= m * a02
    b2 -= m * b0
    if abs(a21) > abs(a11):
        a11, a12, b1, a21, a22, b2 = a21, a22, b2, a11, a12, b1
    if abs(a11) <= tol:
        raise SingularSystemError("pivot below tolerance; system is rank deficient")
    m = a21 / a11
    a22 -= m * a12
    b2 -= m * b1
    if abs(a22) <= tol:
        raise SingularSystemError("pivot below tolerance; system is rank deficient")
    # back substitution; "0.0 +" keeps the signed zero of a sum started at 0
    c2 = b2 / a22
    c1 = (b1 - (0.0 + a12 * c2)) / a11
    c0 = (b0 - ((0.0 + a01 * c1) + a02 * c2)) / a00
    return c0, c1, c2


def _validated_weights(weights, n: int) -> tuple[np.ndarray, float]:
    """The weights as a float64 array, and their maximum."""
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (n,):
        raise ShapeError(f"weights shape {w.shape} does not match {n} samples")
    # a NaN anywhere makes both extremes NaN
    lo, hi = float(np.minimum.reduce(w)), float(np.maximum.reduce(w))
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise GaussFitError("weights must be finite")
    if lo < 0:
        raise GaussFitError("weights must be non-negative")
    return w, hi


def _normal_solve(w: np.ndarray, w_max: float, logs: np.ndarray, t: np.ndarray,
                  mid, moments: tuple) -> LogPolyCoeffs:
    """One weighted solve on the centered grid ``t = x - mid``.

    ``w`` must be finite and non-negative, with maximum ``w_max``.
    ``moments`` is a ``(5, n)`` scratch buffer followed by its five rows.
    The rows receive ``u * t**k`` for ``k = 0..4`` with
    ``u = (w / w_max)**2``, built as a product chain, and one row
    reduction gives the five distinct normal-matrix entries.  Outputs are
    passed positionally: numpy parses an ``out=`` keyword more slowly.
    """
    if np.count_nonzero(w) < 3:
        raise SingularSystemError("fewer than 3 samples carry positive weight")
    rows, u, ut, ut2, ut3, ut4 = moments
    np.divide(w, w_max, u)  # uniform scaling cancels in the solve
    np.multiply(u, u, u)
    np.multiply(u, t, ut)
    np.multiply(ut, t, ut2)
    np.multiply(ut2, t, ut3)
    np.multiply(ut3, t, ut4)
    s0, s1, s2, s3, s4 = np.add.reduce(rows, 1).tolist()
    ac, bc, cc = _solve_normal(s0, s1, s2, s3, s4, float(np.dot(u, logs)),
                               float(np.dot(ut, logs)), float(np.dot(ut2, logs)))
    # undo the centering: a + b(x - m) + c(x - m)^2 back to powers of x
    return LogPolyCoeffs(
        a=ac - bc * mid + cc * mid * mid,
        b=bc - 2.0 * cc * mid,
        c=cc,
    )


def _prepared(signal: SampledSignal, weights, clamp_floor: float | None):
    """Validated weights and their maximum, clamped log samples, the grid,
    its midpoint, the centered grid and the moment buffer with its rows:
    everything one trace reuses."""
    w, w_max = _validated_weights(weights, len(signal))
    logs = log_transform(signal, resolve_clamp_floor(signal, clamp_floor))
    x = signal.grid
    mid = 0.5 * (x[0] + x[-1])
    rows = np.empty((5, x.size))
    return w, w_max, logs, x, mid, x - mid, (rows, *rows)


def _gaussian_values(coeffs: LogPolyCoeffs, x: np.ndarray, expo: np.ndarray,
                     out: np.ndarray) -> np.ndarray:
    """``exp(a + b x + c x^2)`` into ``out``, with ``expo`` for the exponent.

    The operations and their order are those of
    ``np.exp(a + b * x + c * x * x)``.  The caller decides how overflow is
    treated.
    """
    np.multiply(coeffs.b, x, expo)
    np.add(coeffs.a, expo, expo)
    np.multiply(coeffs.c, x, out)
    np.multiply(out, x, out)
    np.add(expo, out, expo)
    return np.exp(expo, out)


def weighted_ls_solve(
    signal: SampledSignal,
    weights,
    clamp_floor: float | None = None,
) -> LogPolyCoeffs:
    """Minimize ``sum w[n]^2 (ln y[n] - a - b x - c x^2)^2``.

    Raises :class:`SingularSystemError` when fewer than three samples have
    positive weight (the weighted system is rank deficient).
    """
    w, w_max, logs, _, mid, t, moments = _prepared(signal, weights, clamp_floor)
    return _normal_solve(w, w_max, logs, t, mid, moments)


def weights_from_params(coeffs: LogPolyCoeffs, grid: np.ndarray) -> np.ndarray:
    """Reconstructed Gaussian values ``exp(a + b x + c x^2)`` on the grid.

    These are the ideal next-iteration weights.  Overflow is left to the
    caller to guard (the iteration zeroes non-finite entries); underflow
    simply produces zero weight.
    """
    x = np.asarray(grid, dtype=np.float64)
    with np.errstate(over="ignore", under="ignore"):
        return _gaussian_values(coeffs, x, np.empty_like(x), np.empty_like(x))


def wls_trace(
    signal: SampledSignal,
    initial_weights,
    num_iters: int,
    clamp_floor: float | None = None,
) -> WlsTrace:
    """Run the reweighting iteration and return every iterate.

    Iteration 0 solves with ``initial_weights``; every later iteration
    rebuilds its weights from the previous coefficient estimate, the
    values of :func:`weights_from_params` (non-finite rebuilt weights are
    zeroed, they carry no usable information).

    An iterate whose quadratic curls upward (``c >= 0``) still defines
    valid weights, so the iteration continues through it; on noisy
    tail-heavy signals the reweighting routinely recovers a proper
    Gaussian within an iteration or two.  Such iterates appear in the
    trace with ``params=None``; whether the last one must be a Gaussian is
    the caller's decision.  Rank deficiency at any iteration raises
    :class:`SingularSystemError` with ``stage="wls_trace"``, the
    iteration index and the iterates completed before it.
    """
    if num_iters < 1:
        raise GaussFitError(f"num_iters must be >= 1, got {num_iters}")
    w, w_max, logs, x, mid, t, moments = _prepared(signal, initial_weights,
                                                   clamp_floor)
    # the rebuilt weights get their own buffer: initial_weights stays unwritten
    expo, rebuilt = np.empty(x.size), np.empty(x.size)
    trace: WlsTrace = []
    with np.errstate(over="ignore", under="ignore"):
        for i in range(num_iters):
            try:
                coeffs = _normal_solve(w, w_max, logs, t, mid, moments)
            except SingularSystemError as err:
                raise SingularSystemError(str(err), stage="wls_trace", iteration=i,
                                          completed=trace) from None
            params = None
            try:
                params = params_from_coeffs(coeffs)
            except (InvalidWidthError, InvalidParamsError):
                pass
            trace.append(WlsStep(coeffs=coeffs, params=params))
            if i + 1 < num_iters:
                w = _gaussian_values(coeffs, x, expo, rebuilt)
                w_max = float(np.maximum.reduce(w))
                if not math.isfinite(w_max):  # NaN anywhere makes the max NaN
                    w[~np.isfinite(w)] = 0.0
                    w_max = float(np.maximum.reduce(w))
    return trace
