"""Linear fitting of the log-transformed Gaussian.

Solving ``min sum_n w[n]^2 (ln y[n] - a - b x[n] - c x[n]^2)^2`` for the
three coefficients covers both plain least squares (all weights one) and
each pass of the iterative reweighted scheme, where the weights are the
Gaussian reconstructed from the previous iterate.  Row weights enter the
design matrix and the observation vector alike, hence the ``w^2`` in the
objective.

One kernel, :func:`wls_traces`, runs the reweighting iteration on every
row of a :class:`gaussfit.signal.SignalBlock` at once and returns one
entry per row: the row's trace, or the error that ended it.
:func:`wls_trace` is the kernel on a block of one.  Its first iterate is
one weighted solve: plain least squares is
``wls_trace(signal, np.ones(n), 1, floor)[0]``.

Only a 3x3 system ever arises.  The normal equations are formed on the
grid centered at its midpoint, ``t = x - m``, which tames the
Vandermonde-style conditioning; the rows of a block share it.  With
``u = (w / max w)^2`` the matrix holds the five moments ``sum u t^k``
(``k = 0..4``) and the right side the three sums ``sum u t^k ln y``
(``k = 0..2``).  A step fills a ``(5, rows, n)`` moment buffer with the
product chain ``u, u t, u t^2, u t^3, u t^4``, one ufunc call per link
for all rows, reduces it with one ``np.add.reduce`` over the samples,
takes the right sides from one ``np.vecdot`` of the first three links
with the log samples, and solves each row by an unrolled elimination
with partial pivoting.  These are the operations of the plain
formulation (separate sums and dot products, a loop over lists for the
elimination) in the same order: a row's sums are the pairwise sums
``np.sum`` makes, ``np.vecdot`` calls the BLAS ``ddot`` that ``np.dot``
calls, and an elementwise ufunc gives each element the value it has
alone.  So every row is bit-identical to the plain formulation on its
own; ``tests/test_linfit.py`` keeps it as the oracle.  (``np.einsum`` and
a ``matmul`` sum in another order and are not.)

Most of a step's time is the fixed cost of its numpy calls, not their
per-element work, and a block shares those calls among its rows: eight
1001-sample rows take one step in about the time of two single-row steps.
A call allocates its buffers once, ufunc outputs are passed positionally,
reductions call ``np.add.reduce`` and ``np.maximum.reduce`` directly, the
non-finite scrub of a row's rebuilt weights runs only when their maximum
is not finite, and ``np.count_nonzero`` runs on a row only when its
``sum u`` is at most 2 (every ``u <= 1``, so a larger sum has at least
three positive weights).  A row whose step raises leaves the block; the
other rows go on.
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
    SignalBlock,
    _clamp_floor,
    params_from_coeffs,
)

__all__ = ["weights_from_params", "wls_trace", "wls_traces"]

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


def _gaussian_values(coeffs: np.ndarray, x: np.ndarray, scratch: np.ndarray,
                     out: np.ndarray) -> np.ndarray:
    """``exp(a + b x + c x^2)`` into ``out``, one row per row ``(a, b, c)``
    of ``coeffs``, with ``scratch`` of shape ``(2, *out.shape)``.

    ``b x`` and ``c x`` come from one multiply, and the operations and
    their order are those of ``np.exp(a + b * x + c * x * x)``.  The
    caller decides how overflow is treated.
    """
    bx, cx = np.multiply(coeffs.T[1:, :, None], x, scratch)
    np.add(coeffs[:, :1], bx, bx)
    np.multiply(cx, x, cx)
    np.add(bx, cx, bx)
    return np.exp(bx, out)


def _started(block: SignalBlock, weights: np.ndarray, entries: list, clamp_floor):
    """The rows whose start is valid, their weights, the weights' maxima and
    the clamped log samples; every other row's error goes into ``entries``.

    A row's checks run in the order finite, non-negative, clamp floor.
    """
    # a NaN anywhere makes both extremes NaN
    lows = np.minimum.reduce(weights, 1).tolist()
    highs = np.maximum.reduce(weights, 1).tolist()
    tops = np.maximum.reduce(block.samples, 1).tolist()
    rows, floors = [], []
    for i, (lo, hi, top) in enumerate(zip(lows, highs, tops)):
        try:
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise GaussFitError("weights must be finite")
            if lo < 0:
                raise GaussFitError("weights must be non-negative")
            floors.append(_clamp_floor(top, clamp_floor))
        except GaussFitError as err:
            entries[i] = err
            continue
        rows.append(i)
    if not rows:
        return [], None, None, None
    w_max, samples = np.array(highs), block.samples
    if len(rows) < len(block):
        weights, w_max, samples = weights[rows], w_max[rows], samples[rows]
    # log_transform of each row with its own floor
    logs = np.log(np.maximum(samples, np.array(floors)[:, None]))
    return rows, weights, w_max, logs


def wls_traces(
    block: SignalBlock,
    initial_weights,
    num_iters: int,
    clamp_floor: float | None = None,
) -> list:
    """Run the reweighting iteration on every row of ``block``.

    ``initial_weights`` holds one weight vector per row, array-like of the
    samples' shape (else a :class:`ShapeError`).  Iteration 0 of a row
    solves with its initial weights; every later iteration rebuilds the
    weights from the row's previous coefficient estimate, the values of
    :func:`weights_from_params` (non-finite rebuilt weights are zeroed,
    they carry no usable information).  The clamp floor is
    ``clamp_floor``, or each row's default floor when it is ``None``.

    Returns one entry per row: its :data:`gaussfit.results.WlsTrace`, one
    :class:`WlsStep` per iteration, or the :class:`GaussFitError` of the
    row, exactly what :func:`wls_trace` raises on that row alone: non-finite
    or negative weights a :class:`GaussFitError`, an unusable floor an
    ``InvalidClampError``, and rank deficiency at an iteration a
    :class:`SingularSystemError` with ``stage="wls_trace"``, the iteration
    index and, in ``completed``, the iterates finished before it.

    An iterate whose quadratic curls upward (``c >= 0``) still defines
    valid weights, so the iteration continues through it; on noisy
    tail-heavy signals the reweighting routinely recovers a proper
    Gaussian within an iteration or two.  Such iterates appear in the
    trace with ``params=None``; whether the last one must be a Gaussian is
    the caller's decision.
    """
    if num_iters < 1:
        raise GaussFitError(f"num_iters must be >= 1, got {num_iters}")
    if not len(block):
        return []
    try:
        # the copy the iteration writes over: the caller's weights stay unwritten
        weights = np.array(initial_weights, dtype=np.float64)
    except ValueError as err:  # a ragged list
        raise ShapeError(f"weights do not form an array: {err}") from None
    if weights.shape != block.samples.shape:
        raise ShapeError(f"weights shape {weights.shape} does not match samples shape"
                         f" {block.samples.shape}")
    entries: list = [None] * len(block)
    live, weights, w_max, logs = _started(block, weights, entries, clamp_floor)
    if not live:
        return entries
    x = block.grid
    mid = float(0.5 * (x[0] + x[-1]))
    # the grid and the centered grid once per row: ufuncs on operands of one
    # shape skip numpy's broadcasting, which costs more than the arithmetic
    grids = np.empty((2, *weights.shape))
    grids[0] = x
    np.subtract(grids[0], mid, grids[1])
    moments = np.empty((5, *weights.shape))
    traces: list[WlsTrace] = [[] for _ in live]
    k = 0
    with np.errstate(all="ignore"):
        for i in range(num_iters):
            if k != len(live):  # the first step, or rows have left the block
                k = len(live)
                rows, xs, ts = moments[:, :k], grids[0, :k], grids[1, :k]
                u, ut, ut2, ut3, ut4 = rows
                weights = weights[:k]
            np.divide(weights, w_max[:, None], u)  # uniform scaling cancels in the solve
            np.multiply(u, u, u)
            np.multiply(u, ts, ut)
            np.multiply(ut, ts, ut2)
            np.multiply(ut2, ts, ut3)
            np.multiply(ut3, ts, ut4)
            sums = np.add.reduce(rows, 2).tolist()
            rhs = np.vecdot(rows[:3], logs).tolist()
            kept, coeffs = [], []
            for j, (s0, s1, s2, s3, s4, r0, r1, r2) in enumerate(zip(*sums, *rhs)):
                try:
                    # not s0 > 2: a NaN sum (all weights zero) is checked too
                    if not s0 > 2.0 and np.count_nonzero(weights[j]) < 3:
                        raise SingularSystemError(
                            "fewer than 3 samples carry positive weight")
                    ac, bc, cc = _solve_normal(s0, s1, s2, s3, s4, r0, r1, r2)
                except SingularSystemError as err:
                    entries[live[j]] = SingularSystemError(
                        str(err), stage="wls_trace", iteration=i, completed=traces[j])
                    continue
                # undo the centering: a + b(x - m) + c(x - m)^2 back to powers of x
                a, b = ac - bc * mid + cc * mid * mid, bc - 2.0 * cc * mid
                step = LogPolyCoeffs._of(a, b, cc)
                params = None
                try:
                    params = params_from_coeffs(step)
                except (InvalidWidthError, InvalidParamsError):
                    pass
                traces[j].append(WlsStep(step, params))
                kept.append(j)
                coeffs.append((a, b, cc))
            if len(kept) < k:
                live = [live[j] for j in kept]
                traces = [traces[j] for j in kept]
                logs = logs[kept]
            if i + 1 == num_iters or not live:
                break
            # the rows that stay, in order; the solved moments make room for
            # the exponent
            rebuilt = weights[:len(live)]
            _gaussian_values(np.array(coeffs), xs[:len(live)], rows[:2, :len(live)], rebuilt)
            w_max = np.maximum.reduce(rebuilt, 1)
            for j, top in enumerate(w_max.tolist()):
                if not math.isfinite(top):  # NaN anywhere makes the max NaN
                    w = rebuilt[j]
                    w[~np.isfinite(w)] = 0.0
                    w_max[j] = np.maximum.reduce(w)
    for row, trace in zip(live, traces):
        entries[row] = trace
    return entries


def wls_trace(
    signal: SampledSignal,
    initial_weights,
    num_iters: int,
    clamp_floor: float | None = None,
) -> WlsTrace:
    """Run the reweighting iteration on one signal and return every
    iterate: :func:`wls_traces` on a block of one, raising the row's
    error."""
    entry, = wls_traces(SignalBlock.of(signal), [initial_weights], num_iters, clamp_floor)
    if isinstance(entry, GaussFitError):
        raise entry
    return entry


def weights_from_params(coeffs: LogPolyCoeffs, grid: np.ndarray) -> np.ndarray:
    """Reconstructed Gaussian values ``exp(a + b x + c x^2)`` on the grid.

    These are the ideal next-iteration weights.  Overflow is left to the
    caller to guard (the iteration zeroes non-finite entries); underflow
    simply produces zero weight.
    """
    x = np.asarray(grid, dtype=np.float64)
    out = np.empty((1, x.size))
    with np.errstate(over="ignore", under="ignore"):
        _gaussian_values(np.array([[coeffs.a, coeffs.b, coeffs.c]]), x.ravel(),
                         np.empty((2, 1, x.size)), out)
    return out.reshape(x.shape)
