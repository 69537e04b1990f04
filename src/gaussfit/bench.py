"""Seeded Monte Carlo benchmark of the fitting methods.

Two experiment shapes:

* :func:`run_bench_snr` sweeps the noise level and reports per-method,
  per-parameter mean squared error at each SNR point.
* :func:`run_bench_iters` holds the SNR fixed and sweeps the iteration
  count of the reweighted-LS stages, reusing one iteration trace per
  trial so all sweep points of a trial share the same noise.

Every trial derives its own seed from ``(master_seed, sweep index, trial
index)``, draws the true location and width from the protocol's uniform
ranges, synthesizes one noisy signal, and runs every configured method on
that same signal.  Reports are byte-reproducible for a fixed
configuration; trials are independent, so sweep points may be computed in
parallel worker processes without changing any reported value (timing
measurements excepted, which is why they are off by default).

Trials run in chunks of ``_CHUNK``: a chunk's truths and noise are drawn
as one :class:`gaussfit.signal.SignalBlock`, and every method then fits
the whole chunk.  Both shapes run one loop over a sweep point's chunks,
which scores every method at a tuple of iteration counts: ``iter_sweep``
in the iteration sweep, the ``iters`` of the method's
:meth:`BenchConfig.method_spec` in the SNR sweep.  Each chunk runs each
stage 1 once, with one :func:`gaussfit.methods.stage_one` call: M1 for M1
and M2, the split-area fit for M3 and M4.  M1 and M3 score those outcomes
at every count.  M2, M4 and M5 trace the chunk from them with one
:func:`gaussfit.methods.trace_block` of the largest count, so the
reweighting of all its rows is one :func:`gaussfit.linfit.wls_traces`
kernel call, and each count scores the iterate it ends on, which is what
``run_method`` returns (or raises on) with that many iterations.  Every
row equals the trial computed alone, so the reports do not depend on the
chunk size.  With ``timing`` on, each block call's time is shared equally
by its rows, and a method is charged its per-row share of every block
call it uses: M2 and M4 that of their stage 1 plus their trace, so M4's
mean time still includes the split-area initializer.

Accounting: a trial whose method returns a fallback-flagged result still
contributes its estimate to the MSE and bumps the degenerate counter; a
trial whose method raises contributes nothing and bumps the counter.  A
cell keeps running sums: the three squared-error sums, the count of
estimates, the degenerate count and the elapsed time, so its memory does
not grow with the trial count.  Each sweep point's cells take their trials
in trial order, also under ``workers``, and the sums are added in that
order.  That is the order in which numpy sums the columns of a C-ordered
``(trials, 3)`` array of the squared errors (pairwise summation runs only
along a contiguous axis), with ``+0.0`` for an absent trial, so the MSEs
equal that formulation's, which the tests keep as the oracle, in every
bit.  Estimates and truths are finite, so a square is finite or ``inf``
(never NaN), and one count serves all three parameters; a cell with no
estimate reads NaN.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

from . import rng
from .errors import GaussFitError, SingularSystemError
from .initfit import ErfTable, default_erf_table
from .methods import METHOD_IDS, MethodSpec, stage_one, trace_block
from .results import CONVERGED
from .signal import GaussianParams, NoiseSpec, _write_in_place, sample_gaussian

__all__ = [
    "BenchConfig",
    "BenchRow",
    "BenchReport",
    "run_bench_snr",
    "run_bench_iters",
    "write_report_csv",
]

PARAM_NAMES = ("A", "mu", "sigma")

# Stream tags so parameter draws and noise come from unrelated substreams.
_PARAMS_TAG = 0x50415241
_NOISE_TAG = 0x4E4F4953

# Trials per synthesis, stage-1 and reweighting block: enough to spread
# numpy's per-call cost, small enough that the block arrays stay a fraction
# of a MiB.
_CHUNK = 8

# The protocol: a unit-amplitude Gaussian with location uniform on [8, 9]
# and width uniform on [1, 1.3], sampled at spacing 0.01 on [0, 10], so the
# bell is incompletely sampled and its long left tail is kept.  Every method
# runs with MethodSpec's default split-area window and clamp floor.
_A_TRUE = 1.0
_MU_LOW, _MU_HIGH = 8.0, 9.0
_SIGMA_LOW, _SIGMA_HIGH = 1.0, 1.3
_DELTA_X = 0.01
_N_SAMPLES = 1001

# The most SNR points a sweep may have.  A larger grid is refused before
# its tuple is built (a step of 1e-9 dB over 1 dB would ask for 1e9).
_MAX_SNR_POINTS = 10**5


@dataclass(frozen=True)
class BenchConfig:
    """Experiment knobs; the protocol itself is fixed by the module
    constants above.  Defaults sweep the SNR from -10 dB to 20 dB in
    0.5 dB steps; a sweep has at most ``_MAX_SNR_POINTS`` (10^5) points.
    """

    trials: int
    master_seed: int
    snr_start_db: float = -10.0
    snr_step_db: float = 0.5
    snr_stop_db: float = 20.0
    methods: tuple[str, ...] = METHOD_IDS
    stage2_iters: int | None = None
    m5_iters: int | None = None
    iter_sweep: tuple[int, ...] | None = None
    fixed_snr_db: float = 12.0
    timing: bool = False
    workers: int = 1

    def __post_init__(self):
        if self.trials < 1:
            raise GaussFitError(f"trials must be >= 1, got {self.trials}")
        if not (self.snr_step_db > 0
                and -math.inf < self.snr_start_db <= self.snr_stop_db < math.inf):
            raise GaussFitError("SNR grid must be finite and increasing")
        # the point count of snr_grid_db is at most _MAX_SNR_POINTS (and finite)
        if not ((self.snr_stop_db - self.snr_start_db) / self.snr_step_db + 1e-9
                < _MAX_SNR_POINTS):
            raise GaussFitError(
                f"SNR grid must have a finite number of points, at most {_MAX_SNR_POINTS}")
        for snr_db in (*self.snr_grid_db, self.fixed_snr_db):
            try:
                power = NoiseSpec(snr_db, 0).noise_power_for(_A_TRUE)
            except ArithmeticError:  # 10 ** (snr / 10) overflows or underflows to 0
                power = math.nan
            if not 0 < power < math.inf:
                raise GaussFitError(f"SNR {snr_db} dB gives no finite, positive noise power")
        if any(k is not None and k < 1 for k in (self.stage2_iters, self.m5_iters)):
            raise GaussFitError("stage2_iters and m5_iters must be >= 1")
        for mid in self.methods:
            self.method_spec(mid)  # MethodSpec checks the id
        if not self.methods:
            raise GaussFitError("at least one method required")
        if self.iter_sweep is not None:
            if not self.iter_sweep or any(k < 1 for k in self.iter_sweep):
                raise GaussFitError("iteration sweep entries must be >= 1")
            if len(set(self.iter_sweep)) != len(self.iter_sweep):
                raise GaussFitError(f"iteration sweep repeats an entry: {self.iter_sweep}")
        if self.workers < 1:
            raise GaussFitError(f"workers must be >= 1, got {self.workers}")

    @property
    def snr_grid_db(self) -> tuple[float, ...]:
        count = int(math.floor((self.snr_stop_db - self.snr_start_db)
                               / self.snr_step_db + 1e-9)) + 1
        return tuple(self.snr_start_db + j * self.snr_step_db for j in range(count))

    def method_spec(self, method_id: str) -> MethodSpec:
        """The spec of ``method_id``: ``m5_iters`` iterations for M5,
        ``stage2_iters`` for the others (None: :class:`MethodSpec`'s
        default)."""
        iters = self.m5_iters if method_id == "M5" else self.stage2_iters
        return MethodSpec(method_id=method_id, iters=iters)


@dataclass(frozen=True)
class BenchRow:
    """One (method, sweep point, parameter) cell of a report."""

    method: str
    sweep: float
    param: str
    mse: float
    trials: int
    degenerate: int
    mean_time_us: float
    seed: int


@dataclass
class BenchReport:
    """All cells of one run, in deterministic emission order."""

    mode: str  # "snr" or "iters"
    rows: list[BenchRow] = field(default_factory=list)

    def cell(self, method: str, sweep: float, param: str) -> BenchRow:
        for row in self.rows:
            if row.method == method and row.param == param and row.sweep == sweep:
                return row
        raise KeyError((method, sweep, param))

    def mse(self, method: str, sweep: float, param: str) -> float:
        return self.cell(method, sweep, param).mse

    def mean_time_us(self, method: str, sweep: float) -> float:
        return self.cell(method, sweep, PARAM_NAMES[0]).mean_time_us


def _trial_blocks(config: BenchConfig, sweep_idx: int, snr_db: float):
    """Yield ``(block, truths, seeds)`` for each chunk of trials, drawn from
    the trials' derived seeds; row ``i`` is the trial of ``seeds[i]``."""
    for first in range(0, config.trials, _CHUNK):
        last = min(first + _CHUNK, config.trials)
        seeds = [rng.mix_seed(config.master_seed, sweep_idx, t) for t in range(first, last)]
        u = rng.uniforms([rng.mix_seed(s, _PARAMS_TAG) for s in seeds], 2)
        mus = (_MU_LOW + (_MU_HIGH - _MU_LOW) * u[:, 0]).tolist()
        sigmas = (_SIGMA_LOW + (_SIGMA_HIGH - _SIGMA_LOW) * u[:, 1]).tolist()
        truths = [GaussianParams(amplitude=_A_TRUE, mu=m, sigma=s)
                  for m, s in zip(mus, sigmas)]
        noises = [NoiseSpec(snr_db=snr_db, seed=rng.mix_seed(s, _NOISE_TAG))
                  for s in seeds]
        block = sample_gaussian(truths, _DELTA_X, _N_SAMPLES, noises)
        yield block, truths, seeds


def _estimate(fit) -> tuple[GaussianParams | None, bool]:
    """A fit's estimate and whether it converged; an error has neither."""
    if isinstance(fit, GaussFitError):
        return None, False
    return fit.params, fit.status == CONVERGED


class _CellAccumulator:
    """Running sums of the squared errors, their count, the degenerate
    count and the elapsed time of one cell."""

    def __init__(self):
        self.sums = [0.0, 0.0, 0.0]
        self.count = 0
        self.degenerate = 0
        self.elapsed_s = 0.0

    def record(self, estimate: GaussianParams | None, truth: GaussianParams,
               converged: bool) -> None:
        if estimate is not None:
            da = estimate.amplitude - truth.amplitude
            dm = estimate.mu - truth.mu
            ds = estimate.sigma - truth.sigma
            # absurd estimates may overflow the square or the sum; inf is
            # the honest value
            sums = self.sums
            sums[0] += da * da
            sums[1] += dm * dm
            sums[2] += ds * ds
            self.count += 1
        if estimate is None or not converged:
            self.degenerate += 1

    def mse(self) -> list[float]:
        if not self.count:
            return [math.nan] * 3
        return [s / self.count for s in self.sums]


def _sweep_point(config: BenchConfig, table: ErfTable, sweep_idx: int, snr_db: float,
                 counts: dict[str, tuple[int, ...]]):
    """Run all trials of one sweep point and score each method at each of
    its iteration ``counts``: per method, one cell per count, and the
    trials' seeds.  M1 and M3 have no iterative stage and score one
    outcome at every count; M2, M4 and M5 score one trace of the largest
    count at each.  Pure function of its arguments."""
    specs = [config.method_spec(mid) for mid in config.methods]
    cells = {mid: [_CellAccumulator() for _ in counts[mid]] for mid in config.methods}
    seeds = []
    for block, truths, chunk_seeds in _trial_blocks(config, sweep_idx, snr_db):
        seeds.extend(chunk_seeds)
        # stage 1 per family, with the seconds per row of its block call;
        # every spec has the default window_l, so M3 and M4 share one
        stage1: dict = {}
        for spec in specs:
            mid = spec.method_id
            family = {"M2": "M1", "M4": "M3"}.get(mid, mid)
            if family not in stage1:
                t0 = time.perf_counter()
                outcomes = stage_one(spec, block, table)
                stage1[family] = outcomes, (time.perf_counter() - t0) / len(block)
            outcomes, dt = stage1[family]
            ks = counts[mid]
            if mid in ("M1", "M3"):
                rows = [[_estimate(fit)] * len(ks) for fit in outcomes]
            else:
                t0 = time.perf_counter()
                traces = trace_block(spec, block, outcomes, max(ks))
                dt += (time.perf_counter() - t0) / len(block)
                rows = [_sweep_points(trace, status, ks) for trace, status, _ in traces]
            for truth, row in zip(truths, rows):
                for cell, (estimate, converged) in zip(cells[mid], row):
                    cell.record(estimate, truth, converged)
                    if config.timing:
                        cell.elapsed_s += dt
    return cells, seeds


def _sweep_points(trace, status, sweep) -> list:
    """``(estimate, converged)`` at each sweep point of one trial's trace
    (or of the error that ended it): the final iterate of a fit with that
    many iterations, as :func:`run_method` would return or raise it."""
    if isinstance(trace, SingularSystemError):
        trace = trace.completed  # points before the failing step stand
    elif isinstance(trace, GaussFitError):
        return [(None, False)] * len(sweep)
    steps = [trace[k - 1].params if k <= len(trace) else None for k in sweep]
    return [(p, status == CONVERGED and p is not None) for p in steps]


def _emit_rows(
    report: BenchReport,
    config: BenchConfig,
    sweep_value: float,
    cells: dict[str, list[_CellAccumulator]],
    j: int,
) -> None:
    """Append the rows of every method's ``j``-th cell."""
    for mid in config.methods:
        cell = cells[mid][j]
        mse = cell.mse()
        mean_us = cell.elapsed_s / config.trials * 1e6 if config.timing else 0.0
        for p, name in enumerate(PARAM_NAMES):
            report.rows.append(
                BenchRow(
                    method=mid,
                    sweep=sweep_value,
                    param=name,
                    mse=mse[p],
                    trials=config.trials,
                    degenerate=cell.degenerate,
                    mean_time_us=mean_us,
                    seed=config.master_seed,
                )
            )


def _check_seed_collisions(all_seeds: list[int]) -> None:
    if len(set(all_seeds)) != len(all_seeds):
        raise GaussFitError("per-trial seed collision; change the master seed")


def run_bench_snr(config: BenchConfig, table: ErfTable | None = None) -> BenchReport:
    """MSE versus SNR for every configured method.

    All methods inside a trial see the same noisy signal, which removes
    between-method noise variance from the comparison.  Each method is
    scored at the ``iters`` of its :meth:`BenchConfig.method_spec`.
    """
    if table is None:
        table = default_erf_table()
    grid = config.snr_grid_db
    counts = {mid: (config.method_spec(mid).iters,) for mid in config.methods}
    tasks = [(config, table, j, snr_db, counts) for j, snr_db in enumerate(grid)]
    if config.workers > 1 and len(tasks) > 1:
        # imported here: loading the process pool costs about 2 MiB of memory
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            results = list(pool.map(_sweep_point, *zip(*tasks)))
    else:
        results = [_sweep_point(*t) for t in tasks]
    report = BenchReport(mode="snr")
    all_seeds: list[int] = []
    for snr_db, (cells, seeds) in zip(grid, results):
        all_seeds.extend(seeds)
        _emit_rows(report, config, snr_db, cells, 0)
    _check_seed_collisions(all_seeds)
    return report


def run_bench_iters(config: BenchConfig, table: ErfTable | None = None) -> BenchReport:
    """MSE versus reweighting iteration count at a fixed SNR.

    One trace of ``max(iter_sweep)`` iterations per trial, started by
    :func:`gaussfit.methods.start_weights` like every M2/M4/M5 fit,
    produces every sweep point, so points within a trial share their
    noise.  Sweep points where an iterate has no Gaussian form are counted
    degenerate for that trial; a rank-deficient step voids the points from
    its own iteration count on and leaves the earlier ones standing, so
    every point equals a fresh fit with that many iterations.
    """
    if config.iter_sweep is None:
        raise GaussFitError("iter_sweep must be set for the iteration benchmark")
    if table is None:
        table = default_erf_table()
    sweep = config.iter_sweep
    cells, seeds = _sweep_point(config, table, 0, config.fixed_snr_db,
                                dict.fromkeys(config.methods, sweep))
    _check_seed_collisions(seeds)
    report = BenchReport(mode="iters")
    for j, k in enumerate(sweep):
        _emit_rows(report, config, float(k), cells, j)
    return report


def write_report_csv(report: BenchReport, path) -> None:
    """Write the report; floats carry 17 significant digits."""
    lines = ["method,sweep,param,mse,trials,degenerate,mean_time_us,seed\n"]
    for row in report.rows:
        sweep = f"{int(row.sweep)}" if report.mode == "iters" else f"{row.sweep:.17g}"
        lines.append(
            f"{row.method},{sweep},{row.param},{row.mse:.17g},"
            f"{row.trials},{row.degenerate},{row.mean_time_us:.17g},{row.seed}\n"
        )
    _write_in_place(path, "".join(lines))
