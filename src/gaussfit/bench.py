"""Seeded Monte Carlo benchmark of the fitting methods.

Two experiment shapes:

* :func:`run_bench_snr` sweeps the noise level and reports per-method,
  per-parameter mean squared error at each SNR point.
* :func:`run_bench_iters` holds the SNR fixed and sweeps the iteration
  count of the reweighted-LS stages, reusing one iteration trace per
  trial so all sweep points of a trial share the same noise.

Every trial derives its own seed from ``(master_seed, sweep index, trial
index)``, draws the true location and width from the configured uniform
ranges, synthesizes one noisy signal, and runs every configured method on
that same signal.  Reports are byte-reproducible for a fixed
configuration; trials are independent, so sweep points may be computed in
parallel worker processes without changing any reported value (timing
measurements excepted, which is why they are off by default).

Trials run in chunks of ``_CHUNK``: a chunk's truths and noise are drawn
as one :class:`gaussfit.signal.SignalBlock`, and every method then fits
the whole chunk.  M1 and M3 run on its rows one trial at a time through
:func:`gaussfit.methods.run_method`; M2, M4 and M5 fit it with one
:func:`gaussfit.methods.fit_block` call (one
:func:`gaussfit.methods.trace_block` with
``max(iter_sweep)`` steps in the iteration sweep), so the reweighting of
all its rows is one :func:`gaussfit.linfit.wls_traces` kernel call.
Stage 1 runs once over the block, when the first row asks
(:func:`gaussfit.methods.stage_one`; M1 for M1 and M2, the split-area
fit for M3 and M4 when their ``init`` is equal).  Every row equals the
trial computed alone, so the reports do not depend on the chunk size.
With ``timing`` on, stage 1 is run and timed ahead of the chunk's
trials, a block call's time is shared equally by its rows, and a method
is charged its own per-row time plus its per-row share of every batched
stage it uses, so M4's mean time still includes the split-area
initializer.

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
from .errors import GaussFitError, ShapeError, SingularSystemError, UnknownMethodError
from .initfit import ErfTable, InitConfig, default_erf_table
from .methods import METHOD_IDS, MethodSpec, fit_block, run_method, stage_one, trace_block
from .results import CONVERGED
from .signal import GaussianParams, NoiseSpec, sample_gaussian

__all__ = [
    "BenchConfig",
    "BenchRow",
    "BenchReport",
    "run_bench_snr",
    "run_bench_iters",
    "mse_aggregate",
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


@dataclass(frozen=True)
class BenchConfig:
    """Experiment protocol knobs.

    Defaults reproduce the standard setup: unit amplitude, location
    uniform on [8, 9] and width uniform on [1, 1.3] (an incompletely
    sampled bell with a long left tail on the [0, 10] grid), spacing
    0.01, and an SNR sweep from -10 dB to 20 dB in 0.5 dB steps.
    """

    trials: int
    master_seed: int
    a_true: float = 1.0
    mu_low: float = 8.0
    mu_high: float = 9.0
    sigma_low: float = 1.0
    sigma_high: float = 1.3
    x_max: float = 10.0
    delta_x: float = 0.01
    snr_start_db: float = -10.0
    snr_step_db: float = 0.5
    snr_stop_db: float = 20.0
    methods: tuple[str, ...] = METHOD_IDS
    stage2_iters: int = 2
    m5_iters: int = 12
    iter_sweep: tuple[int, ...] | None = None
    fixed_snr_db: float = 12.0
    window_l: int = 3
    clamp_floor: float | None = None
    timing: bool = False
    workers: int = 1

    def __post_init__(self):
        if self.trials < 1:
            raise GaussFitError(f"trials must be >= 1, got {self.trials}")
        if self.a_true <= 0 or self.sigma_low <= 0:
            raise GaussFitError("amplitude and width must be positive")
        if self.mu_high < self.mu_low or self.sigma_high < self.sigma_low:
            raise GaussFitError("distribution bounds must be ordered")
        if self.delta_x <= 0 or self.x_max <= 0:
            raise GaussFitError("grid parameters must be positive")
        if self.snr_step_db <= 0 or self.snr_stop_db < self.snr_start_db:
            raise GaussFitError("SNR grid must be increasing")
        for mid in self.methods:
            if mid not in METHOD_IDS:
                raise UnknownMethodError(f"unknown method id {mid!r}")
        if not self.methods:
            raise GaussFitError("at least one method required")
        if self.stage2_iters < 1 or self.m5_iters < 1:
            raise GaussFitError("stage2_iters and m5_iters must be >= 1")
        if self.iter_sweep is not None:
            if not self.iter_sweep or any(k < 1 for k in self.iter_sweep):
                raise GaussFitError("iteration sweep entries must be >= 1")
            if len(set(self.iter_sweep)) != len(self.iter_sweep):
                raise GaussFitError(f"iteration sweep repeats an entry: {self.iter_sweep}")
        if self.workers < 1:
            raise GaussFitError(f"workers must be >= 1, got {self.workers}")

    @property
    def n_samples(self) -> int:
        return int(round(self.x_max / self.delta_x)) + 1

    @property
    def snr_grid_db(self) -> tuple[float, ...]:
        count = int(math.floor((self.snr_stop_db - self.snr_start_db)
                               / self.snr_step_db + 1e-9)) + 1
        return tuple(self.snr_start_db + j * self.snr_step_db for j in range(count))

    def method_spec(self, method_id: str) -> MethodSpec:
        return MethodSpec(
            method_id=method_id,
            stage2_iters=self.stage2_iters,
            m5_iters=self.m5_iters,
            init=InitConfig(window_l=self.window_l),
            clamp_floor=self.clamp_floor,
        )


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


def mse_aggregate(estimates, truths) -> tuple[float, float, float]:
    """Component-wise mean squared error over paired parameter triples."""
    est = list(estimates)
    tru = list(truths)
    if len(est) != len(tru):
        raise ShapeError(f"length mismatch: {len(est)} estimates vs {len(tru)} truths")
    if not est:
        raise ShapeError("need at least one pair")
    cell = _CellAccumulator()
    for e, t in zip(est, tru):
        cell.record(e, t, True)
    return tuple(cell.mse())


def _trial_blocks(config: BenchConfig, sweep_idx: int, snr_db: float):
    """Yield ``(block, truths, seeds)`` for each chunk of trials, drawn from
    the trials' derived seeds; row ``i`` is the trial of ``seeds[i]``."""
    span_mu = config.mu_high - config.mu_low
    span_sigma = config.sigma_high - config.sigma_low
    for first in range(0, config.trials, _CHUNK):
        last = min(first + _CHUNK, config.trials)
        seeds = [rng.mix_seed(config.master_seed, sweep_idx, t) for t in range(first, last)]
        u = rng.uniforms([rng.mix_seed(s, _PARAMS_TAG) for s in seeds], 2)
        mus = (config.mu_low + span_mu * u[:, 0]).tolist()
        sigmas = (config.sigma_low + span_sigma * u[:, 1]).tolist()
        truths = [GaussianParams(amplitude=config.a_true, mu=m, sigma=s)
                  for m, s in zip(mus, sigmas)]
        noises = [NoiseSpec(snr_db=snr_db, seed=rng.mix_seed(s, _NOISE_TAG))
                  for s in seeds]
        block = sample_gaussian(truths, config.delta_x, config.n_samples, noises)
        yield block, truths, seeds


def _chunks(config: BenchConfig, sweep_idx: int, snr_db: float,
            specs: list[MethodSpec], table: ErfTable):
    """Yield ``(block, truths, seeds, shares)`` for each chunk, in trial
    order; ``shares`` holds, per spec, the per-row seconds of the batched
    stage 1 it uses (0 without ``timing``)."""
    for block, truths, seeds in _trial_blocks(config, sweep_idx, snr_db):
        shares = [0.0] * len(specs)
        if config.timing:
            shares = _stage_one_shares(specs, block.row(0), table, len(block))
        yield block, truths, seeds, shares


def _stage_one_shares(specs: list[MethodSpec], signal, table: ErfTable,
                      rows: int) -> list[float]:
    """Run stage 1 of every spec on ``signal``'s block ahead of its trials;
    per spec, the seconds per row of the run it shares (M2 that of M1, M4
    that of M3 with an equal ``init``)."""
    measured: dict = {}
    shares = []
    for spec in specs:
        family = {"M2": "M1", "M4": "M3"}.get(spec.method_id, spec.method_id)
        key = (family, spec.init if family == "M3" else None)
        if key not in measured:
            t0 = time.perf_counter()
            stage_one(spec, signal, table)
            measured[key] = (time.perf_counter() - t0) / rows
        shares.append(measured[key])
    return shares


def _timed(call, rows: int, timing: bool):
    """``call()`` and, with ``timing``, its seconds per row (else 0)."""
    if not timing:
        return call(), 0.0
    t0 = time.perf_counter()
    result = call()
    return result, (time.perf_counter() - t0) / rows


def _estimate(fit) -> tuple[GaussianParams | None, bool]:
    """A fit's estimate and whether it converged; an error has neither."""
    if isinstance(fit, GaussFitError):
        return None, False
    return fit.params, fit.status == CONVERGED


def _run_rows(spec: MethodSpec, block, table: ErfTable, timing: bool) -> list:
    """``(outcome, seconds)`` of M1 or M3 on each row of ``block``, one
    :func:`run_method` call per row: its result or the error it raised."""
    outcomes = []
    for i in range(len(block)):
        t0 = time.perf_counter() if timing else 0.0
        try:
            fit = run_method(spec, block.row(i), table)
        except GaussFitError as err:
            fit = err
        outcomes.append((fit, time.perf_counter() - t0 if timing else 0.0))
    return outcomes


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


def _snr_point(config: BenchConfig, table: ErfTable, sweep_idx: int):
    """Run all trials of one SNR point.  Pure function of its arguments."""
    snr_db = config.snr_grid_db[sweep_idx]
    specs = [config.method_spec(mid) for mid in config.methods]
    cells = {mid: _CellAccumulator() for mid in config.methods}
    seeds = []
    for block, truths, chunk_seeds, shares in _chunks(config, sweep_idx, snr_db, specs,
                                                      table):
        seeds.extend(chunk_seeds)
        for spec, share in zip(specs, shares):
            cell = cells[spec.method_id]
            if spec.method_id in ("M1", "M3"):
                outcomes = _run_rows(spec, block, table, config.timing)
            else:
                fits, dt = _timed(lambda: fit_block(spec, block, table), len(block),
                                  config.timing)
                outcomes = [(fit, dt) for fit in fits]
            for truth, (fit, dt) in zip(truths, outcomes):
                estimate, converged = _estimate(fit)
                cell.record(estimate, truth, converged)
                if config.timing:
                    cell.elapsed_s += dt + share
    return sweep_idx, cells, seeds


def _snr_point_args(args):
    return _snr_point(*args)


def _emit_rows(
    report: BenchReport,
    config: BenchConfig,
    sweep_value: float,
    cells: dict[str, _CellAccumulator],
) -> None:
    for mid in config.methods:
        cell = cells[mid]
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
    between-method noise variance from the comparison.
    """
    if table is None:
        table = default_erf_table()
    grid = config.snr_grid_db
    report = BenchReport(mode="snr")
    all_seeds: list[int] = []
    tasks = [(config, table, j) for j in range(len(grid))]
    if config.workers > 1 and len(tasks) > 1:
        # imported here: loading the process pool costs about 2 MiB of memory
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            results = list(pool.map(_snr_point_args, tasks))
    else:
        results = [_snr_point(*t) for t in tasks]
    results.sort(key=lambda item: item[0])
    for sweep_idx, cells, seeds in results:
        all_seeds.extend(seeds)
        _emit_rows(report, config, grid[sweep_idx], cells)
    _check_seed_collisions(all_seeds)
    return report


def _iters_point(config: BenchConfig, table: ErfTable):
    """Run all trials of the fixed-SNR iteration sweep."""
    sweep = tuple(config.iter_sweep or ())
    max_iters = max(sweep)
    snr_db = config.fixed_snr_db
    specs = [config.method_spec(mid) for mid in config.methods]
    cells = {
        mid: {k: _CellAccumulator() for k in sweep}
        for mid in config.methods
    }
    seeds = []
    for block, truths, chunk_seeds, shares in _chunks(config, 0, snr_db, specs, table):
        seeds.extend(chunk_seeds)
        for spec, share in zip(specs, shares):
            mid = spec.method_id
            if mid in ("M1", "M3"):
                # no iterative stage: constant across the sweep
                rows = [([_estimate(fit)] * len(sweep), dt)
                        for fit, dt in _run_rows(spec, block, table, config.timing)]
            else:
                traces, dt = _timed(lambda: trace_block(spec, block, table, max_iters),
                                    len(block), config.timing)
                rows = [(_sweep_points(trace, status, sweep), dt)
                        for trace, status, _ in traces]
            for truth, (outcomes, dt) in zip(truths, rows):
                for k, (estimate, converged) in zip(sweep, outcomes):
                    cells[mid][k].record(estimate, truth, converged)
                if config.timing:
                    for k in sweep:
                        cells[mid][k].elapsed_s += dt + share
    return cells, seeds


def _sweep_points(trace, status, sweep) -> list:
    """``(estimate, converged)`` at each sweep point of one trial's trace
    (or of the error that ended it)."""
    if isinstance(trace, SingularSystemError):
        trace = trace.completed  # points before the failing step stand
    elif isinstance(trace, GaussFitError):
        return [(None, False)] * len(sweep)
    steps = [trace[k - 1].params if k <= len(trace) else None for k in sweep]
    return [(p, status == CONVERGED and p is not None) for p in steps]


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
    cells, seeds = _iters_point(config, table)
    _check_seed_collisions(seeds)
    report = BenchReport(mode="iters")
    for k in config.iter_sweep:
        point_cells = {mid: cells[mid][k] for mid in config.methods}
        _emit_rows(report, config, float(k), point_cells)
    return report


def write_report_csv(report: BenchReport, path) -> None:
    """Write the report; floats carry 17 significant digits."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("method,sweep,param,mse,trials,degenerate,mean_time_us,seed\n")
        for row in report.rows:
            sweep = f"{int(row.sweep)}" if report.mode == "iters" else f"{row.sweep:.17g}"
            fh.write(
                f"{row.method},{sweep},{row.param},{row.mse:.17g},"
                f"{row.trials},{row.degenerate},{row.mean_time_us:.17g},{row.seed}\n"
            )
