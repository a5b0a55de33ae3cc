"""Compressed-sensing DOA estimation on a uniform linear array.

Single-snapshot direction-of-arrival estimation posed as sparse recovery on
an angle-grid dictionary: build the array manifold, compress with a random
measurement matrix, recover the sparse angle coefficients with OMP or
CoSaMP, and read the DOAs off the spectrum peaks. Includes a Monte Carlo
harness for RMSE-vs-SNR benchmarking and a CLI that emits plot-ready CSV.
"""

__version__ = "0.1.0"

from .array_model import (
    AMPLITUDE_MODELS,
    COMPLEX_GAUSSIAN,
    UNIT_MODULUS,
    AngleGrid,
    ArrayGeometry,
    Snapshot,
    SourceSet,
    build_manifold,
    make_grid,
    synthesize,
)
from .errors import (
    AngleOutOfRangeError,
    CsdoaError,
    DimensionMismatchError,
    EmptyGridError,
    InstanceTooLargeError,
    NonPositiveStepError,
    OffGridSourceError,
    RankDeficientError,
)
from .experiments import (
    ALGORITHMS,
    COSAMP,
    OMP,
    AlgorithmRmse,
    AlgorithmRun,
    MeasurementSpec,
    RmseCurve,
    Scenario,
    SingleRunResult,
    build_scenario,
    default_num_measurements,
    run_monte_carlo,
    run_single,
    trial_seeds,
)
from .recovery import (
    SolverConfig,
    SparseEstimate,
    correlate,
    cosamp,
    l0_oracle,
    least_squares,
    omp,
)
from .sensing import (
    GAUSSIAN,
    IDENTITY,
    MEASUREMENT_KINDS,
    SensingSystem,
    build_sensing_system,
    compress,
    draw_measurement_matrix,
    min_measurements,
)
from .spectrum import (
    MISS_PENALTY_DEG,
    AngleSpectrum,
    DoaEstimate,
    angle_spectrum,
    pick_peaks,
    trial_error,
)

__all__ = [
    "__version__",
    "AMPLITUDE_MODELS",
    "COMPLEX_GAUSSIAN",
    "UNIT_MODULUS",
    "AngleGrid",
    "ArrayGeometry",
    "Snapshot",
    "SourceSet",
    "build_manifold",
    "make_grid",
    "synthesize",
    "AngleOutOfRangeError",
    "CsdoaError",
    "DimensionMismatchError",
    "EmptyGridError",
    "InstanceTooLargeError",
    "NonPositiveStepError",
    "OffGridSourceError",
    "RankDeficientError",
    "ALGORITHMS",
    "COSAMP",
    "OMP",
    "AlgorithmRmse",
    "AlgorithmRun",
    "MeasurementSpec",
    "RmseCurve",
    "Scenario",
    "SingleRunResult",
    "build_scenario",
    "default_num_measurements",
    "run_monte_carlo",
    "run_single",
    "trial_seeds",
    "SolverConfig",
    "SparseEstimate",
    "correlate",
    "cosamp",
    "l0_oracle",
    "least_squares",
    "omp",
    "GAUSSIAN",
    "IDENTITY",
    "MEASUREMENT_KINDS",
    "SensingSystem",
    "build_sensing_system",
    "compress",
    "draw_measurement_matrix",
    "min_measurements",
    "MISS_PENALTY_DEG",
    "AngleSpectrum",
    "DoaEstimate",
    "angle_spectrum",
    "pick_peaks",
    "trial_error",
]
