"""Linear (log-domain) Gaussian fitting with a fast split-area initializer.

The model ``A * exp(-(x - mu)^2 / (2 sigma^2))`` becomes a quadratic
after a log transform, so fitting reduces to linear least squares; the
catch is that the transform inflates noise wherever the signal is small.
This package provides the plain and iteratively reweighted linear fits,
initial estimators that stay accurate when the sampled window cuts the
bell off mid-tail, variance bounds for analysis, and a seeded Monte Carlo
benchmark harness comparing the method pipelines M1 through M5.
"""

from .bench import (
    BenchConfig,
    BenchReport,
    BenchRow,
    run_bench_iters,
    run_bench_snr,
    write_report_csv,
)
from .crlb import CrlbQuery, crlb_ratio, crlb_sigma, optimal_rho_oracle
from .errors import (
    DegenerateAreaError,
    DegenerateFisherError,
    DegenerateRhoError,
    GaussFitError,
    InvalidAmplitudeError,
    InvalidClampError,
    InvalidGridError,
    InvalidParamsError,
    InvalidWidthError,
    InvalidWindowError,
    NoPeakError,
    ParseError,
    ShapeError,
    SingularSystemError,
    UnknownMethodError,
)
from .initfit import (
    ErfTable,
    PartialAreas,
    PeakEstimate,
    build_erf_table,
    combine_sigma,
    default_erf_table,
    m3_initial_fit,
    naive_peak,
    partial_areas,
    read_erf_table_csv,
    refine_amplitude,
    rho_from_samples,
    sigma_area_m1,
    sigma_from_area,
    windowed_peak,
    write_erf_table_csv,
)
from .linfit import weights_from_params, wls_trace, wls_traces
from .methods import (
    METHOD_IDS,
    MethodSpec,
    run_method,
    stage_one,
    start_weights,
    trace_block,
)
from .results import CONVERGED, DEGENERATE_FALLBACK, FitResult, WlsStep, WlsTrace
from .signal import (
    GaussianParams,
    LogPolyCoeffs,
    NoiseSpec,
    SampledSignal,
    SignalBlock,
    coeffs_from_params,
    default_clamp_floor,
    eval_gaussian,
    log_transform,
    params_from_coeffs,
    read_signal_csv,
    read_two_column_csv,
    sample_gaussian,
    write_signal_csv,
)

__version__ = "0.1.0"
