"""Tests for the Monte Carlo benchmark harness."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaussfit import (
    BenchConfig,
    GaussFitError,
    GaussianParams,
    ShapeError,
    UnknownMethodError,
    mse_aggregate,
    run_bench_iters,
    run_bench_snr,
    write_report_csv,
)
from gaussfit.bench import _CellAccumulator


def _tiny_snr_config(**overrides):
    base = dict(
        trials=4,
        master_seed=7,
        snr_start_db=12.0,
        snr_step_db=0.5,
        snr_stop_db=12.5,
        methods=("M1", "M3", "M5"),
        m5_iters=4,
    )
    base.update(overrides)
    return BenchConfig(**base)


def test_mse_aggregate_zero_for_identical():
    p = [GaussianParams(1.0, 5.0, 1.0), GaussianParams(2.0, 6.0, 1.5)]
    assert mse_aggregate(p, p) == (0.0, 0.0, 0.0)


def test_mse_aggregate_single_component():
    a = [GaussianParams(1.0, 5.0, 1.1)]
    b = [GaussianParams(1.0, 5.0, 1.0)]
    mse = mse_aggregate(a, b)
    assert mse[0] == 0.0
    assert mse[1] == 0.0
    assert mse[2] == pytest.approx(0.01, rel=1e-12)


def test_mse_aggregate_order_invariant():
    rngs = np.random.default_rng(3)
    est = [GaussianParams(*(1 + rngs.uniform(0, 1, 3))) for _ in range(20)]
    tru = [GaussianParams(*(1 + rngs.uniform(0, 1, 3))) for _ in range(20)]
    forward = mse_aggregate(est, tru)
    perm = rngs.permutation(20)
    shuffled = mse_aggregate([est[i] for i in perm], [tru[i] for i in perm])
    assert forward == pytest.approx(shuffled, rel=1e-12)


def test_mse_aggregate_length_mismatch():
    a = [GaussianParams(1.0, 5.0, 1.0)]
    with pytest.raises(ShapeError):
        mse_aggregate(a, a * 2)
    with pytest.raises(ShapeError):
        mse_aggregate([], [])


def _array_mse(pairs):
    """The cell MSE as the harness once formed it, kept as the oracle: one
    ``(trials, 3)`` array of squared errors, NaN where a trial has no
    estimate, summed down its columns by numpy."""
    sq = np.full((len(pairs), 3), np.nan)
    for i, (est, tru) in enumerate(pairs):
        if est is not None:
            da = est.amplitude - tru.amplitude
            dm = est.mu - tru.mu
            ds = est.sigma - tru.sigma
            sq[i] = (da * da, dm * dm, ds * ds)
    present = ~np.isnan(sq)
    counts = present.sum(axis=0)
    with np.errstate(over="ignore"):
        sums = np.where(present, sq, 0.0).sum(axis=0)
    return np.where(counts > 0, sums / np.maximum(counts, 1), np.nan)


def _running_mse(pairs):
    cell = _CellAccumulator()
    for est, tru in pairs:
        cell.record(est, tru, True)
    return np.array(cell.mse())


# zero, subnormal and near-overflow magnitudes, so that differences vanish,
# squares underflow and squares or their sums overflow to inf
_EDGES = (0.0, 5e-324, 2.2e-308, 1e-160, 1.0, 1e150, 1e160, 1.7e308)
_positive = st.one_of(st.sampled_from(_EDGES[1:]),
                      st.floats(min_value=5e-324, max_value=1.7e308))
_finite = st.one_of(st.sampled_from(_EDGES), st.sampled_from(_EDGES).map(lambda v: -v),
                    st.floats(allow_nan=False, allow_infinity=False))
_params = st.builds(GaussianParams, _positive, _finite, _positive)


@settings(max_examples=300, deadline=None)
@given(pairs=st.lists(st.tuples(st.none() | _params, _params), max_size=300))
def test_cell_running_sums_equal_the_array_oracle(pairs):
    """Every bit of the running-sum MSE, NaN for a cell with no estimate,
    equals the array formulation's."""
    assert _running_mse(pairs).tobytes() == _array_mse(pairs).tobytes()


@pytest.mark.parametrize("seed", range(5))
def test_cell_running_sums_equal_the_array_oracle_on_long_cells(seed):
    """Thousands of rows with errors spread over 20 decades and 2% absent:
    numpy sums a C-ordered array down its columns row after row, as the
    running sums do."""
    gen = np.random.default_rng(seed)
    rows = int(gen.integers(1000, 5000))
    errs = gen.standard_cauchy((rows, 3)) * 10.0 ** gen.uniform(-10, 10, (rows, 3))
    tru = GaussianParams(1.0, 8.5, 1.15)
    pairs = [(None if gen.random() < 0.02 else
              GaussianParams(1.0 + abs(a), 8.5 + m, 1.15 + abs(s)), tru)
             for a, m, s in errs.tolist()]
    assert _running_mse(pairs).tobytes() == _array_mse(pairs).tobytes()


def test_config_validation():
    with pytest.raises(GaussFitError):
        BenchConfig(trials=0, master_seed=1)
    with pytest.raises(UnknownMethodError):
        BenchConfig(trials=1, master_seed=1, methods=("M7",))
    with pytest.raises(GaussFitError):
        BenchConfig(trials=1, master_seed=1, mu_low=9.0, mu_high=8.0)
    with pytest.raises(GaussFitError):
        BenchConfig(trials=1, master_seed=1, stage2_iters=0)
    with pytest.raises(GaussFitError, match="repeats"):
        BenchConfig(trials=1, master_seed=1, iter_sweep=(1, 2, 2, 2, 3))
    cfg = BenchConfig(trials=1, master_seed=1)
    assert cfg.n_samples == 1001
    assert len(cfg.snr_grid_db) == 61


def test_snr_report_shape_and_cells(erf_table):
    cfg = _tiny_snr_config()
    report = run_bench_snr(cfg, erf_table)
    assert len(report.rows) == 2 * 3 * 3  # sweep x methods x params
    for row in report.rows:
        assert row.trials == 4
        assert row.seed == 7
        assert row.mse >= 0 or np.isnan(row.mse)
    assert report.mse("M1", 12.0, "sigma") > 0


def test_snr_determinism_and_csv_bytes(tmp_path, erf_table):
    cfg = _tiny_snr_config()
    r1 = run_bench_snr(cfg, erf_table)
    r2 = run_bench_snr(cfg, erf_table)
    assert r1.rows == r2.rows
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_report_csv(r1, p1)
    write_report_csv(r2, p2)
    assert p1.read_bytes() == p2.read_bytes()
    header = p1.read_text().splitlines()[0]
    assert header == "method,sweep,param,mse,trials,degenerate,mean_time_us,seed"


def test_snr_parallel_equals_single(erf_table):
    serial = run_bench_snr(_tiny_snr_config(workers=1), erf_table)
    parallel = run_bench_snr(_tiny_snr_config(workers=2), erf_table)
    assert serial.rows == parallel.rows


def test_method_order_does_not_change_values(erf_table):
    fwd = run_bench_snr(_tiny_snr_config(methods=("M1", "M3")), erf_table)
    rev = run_bench_snr(_tiny_snr_config(methods=("M3", "M1")), erf_table)
    for mid in ("M1", "M3"):
        for param in ("A", "mu", "sigma"):
            assert fwd.mse(mid, 12.0, param) == rev.mse(mid, 12.0, param)


def test_master_seed_changes_results(erf_table):
    a = run_bench_snr(_tiny_snr_config(), erf_table)
    b = run_bench_snr(_tiny_snr_config(master_seed=8), erf_table)
    assert a.rows != b.rows


def test_full_default_sweep_row_count(erf_table):
    """5 methods x 3 parameters x 61 SNR points: every cell present."""
    cfg = BenchConfig(trials=1, master_seed=2)
    report = run_bench_snr(cfg, erf_table)
    assert len(report.rows) == 5 * 3 * 61
    combos = {(r.method, r.sweep, r.param) for r in report.rows}
    assert len(combos) == 5 * 3 * 61


def test_iters_report_shape(erf_table):
    cfg = BenchConfig(
        trials=3,
        master_seed=7,
        methods=("M1", "M4", "M5"),
        iter_sweep=(1,),
        fixed_snr_db=12.0,
    )
    report = run_bench_iters(cfg, erf_table)
    assert len(report.rows) == 3 * 1 * 3
    assert {row.sweep for row in report.rows} == {1.0}


def test_iters_flat_methods_are_constant_across_sweep(erf_table):
    cfg = BenchConfig(
        trials=5,
        master_seed=11,
        methods=("M1", "M3"),
        iter_sweep=(1, 2, 5),
        fixed_snr_db=12.0,
    )
    report = run_bench_iters(cfg, erf_table)
    for mid in ("M1", "M3"):
        for param in ("A", "mu", "sigma"):
            values = {report.mse(mid, float(k), param) for k in (1, 2, 5)}
            assert len(values) == 1


def test_iters_sweep_point_matches_direct_run(erf_table):
    """Every sweep point k of the shared trace equals a fresh k-iteration
    run of M2, M4 and M5, in MSE and in the degenerate count.  At 0 dB the
    trials include rank-deficient steps, non-Gaussian final iterates and an
    M4 stage-1 fallback; an M2 step that fails after iteration 2 must leave
    that trial's 2-iteration estimate standing."""
    methods = ("M2", "M4", "M5")
    for snr_db in (12.0, 0.0):
        common = dict(trials=40, master_seed=13, methods=methods)
        shared = run_bench_iters(
            BenchConfig(iter_sweep=(2, 4), fixed_snr_db=snr_db, **common), erf_table)
        for k in (2, 4):
            direct = run_bench_snr(
                BenchConfig(snr_start_db=snr_db, snr_step_db=1.0, snr_stop_db=snr_db,
                            stage2_iters=k, m5_iters=k, **common),
                erf_table,
            )
            # same derived seeds only if the sweep indexes match (both are point 0)
            for mid in methods:
                for param in ("A", "mu", "sigma"):
                    got = shared.cell(mid, float(k), param)
                    want = direct.cell(mid, snr_db, param)
                    assert got.mse == want.mse, (snr_db, k, mid, param)
                    assert got.degenerate == want.degenerate, (snr_db, k, mid, param)
                if snr_db == 0.0:
                    assert direct.cell(mid, snr_db, "A").degenerate > 0, (k, mid)


def test_iters_requires_sweep(erf_table):
    cfg = BenchConfig(trials=1, master_seed=1)
    with pytest.raises(GaussFitError):
        run_bench_iters(cfg, erf_table)


def test_csv_number_formatting(tmp_path, erf_table):
    report = run_bench_snr(_tiny_snr_config(methods=("M1",)), erf_table)
    path = tmp_path / "r.csv"
    write_report_csv(report, path)
    lines = path.read_text().splitlines()
    assert len(lines) == 1 + 2 * 1 * 3
    cells = lines[1].split(",")
    assert cells[0] == "M1"
    assert float(cells[1]) == 12.0
    # 17 significant digits round-trip the double exactly
    assert float(cells[3]) == report.rows[0].mse
