"""cardsketch: one-pass streaming cardinality estimation.

Two sketch families over m seeded hash streams: maximal-term /
order-statistic sketches (continuous, geometric, Bernoulli, top-k) and
signed random-projection sketches with positive alpha-stable hashing.
Plus closed-form inference (Fisher information, relative efficiencies,
Chernoff tail bounds, sketch sizing), the classic baselines (LogLog,
HyperLogLog, MinCount) and a replicated simulation harness.
"""

from .baselines import HyperLogLogSketch, LogLogSketch, MinCountSketch
from .errors import (
    DegenerateSketchError,
    EmptySketchError,
    EstimationNumericError,
    IncompatibleSketchError,
    InsufficientDataError,
    SaturatedSketchError,
    SerializationError,
    SketchError,
    StreamIntegrityError,
    UnsupportedDeletionError,
)
from .estimate import Estimate, gamma_pivot_interval
from .experiment import ExperimentConfig, ExperimentReport, run_experiment
from .hashing import item_key, stable_log_variate
from .inference import (
    TailBound,
    are_bernoulli,
    chernoff_bounds,
    fisher_info_geometric,
    optimal_lambda,
    psi_infinity,
    required_m,
    sketch_storage_bits,
)
from .order_sketch import (
    BernoulliSketch,
    ContinuousMaxSketch,
    GeometricMaxSketch,
    KthOrderSketch,
    bernoulli_estimate,
    combine_kth,
    kth_root_estimate,
    merge,
)
from .projection import (
    CoupledRun,
    ProjectionSketch,
    coupled_residuals,
    stable_median_log,
)
from .serialize import dumps, loads, pack, unpack
from .streams import Stream, exact_count, generate_stream

__version__ = "0.1.0"

__all__ = [
    "BernoulliSketch",
    "ContinuousMaxSketch",
    "CoupledRun",
    "DegenerateSketchError",
    "EmptySketchError",
    "Estimate",
    "EstimationNumericError",
    "ExperimentConfig",
    "ExperimentReport",
    "GeometricMaxSketch",
    "HyperLogLogSketch",
    "IncompatibleSketchError",
    "InsufficientDataError",
    "KthOrderSketch",
    "LogLogSketch",
    "MinCountSketch",
    "ProjectionSketch",
    "SaturatedSketchError",
    "SerializationError",
    "SketchError",
    "Stream",
    "StreamIntegrityError",
    "TailBound",
    "UnsupportedDeletionError",
    "are_bernoulli",
    "bernoulli_estimate",
    "chernoff_bounds",
    "combine_kth",
    "coupled_residuals",
    "dumps",
    "exact_count",
    "fisher_info_geometric",
    "gamma_pivot_interval",
    "generate_stream",
    "item_key",
    "kth_root_estimate",
    "loads",
    "merge",
    "optimal_lambda",
    "pack",
    "psi_infinity",
    "required_m",
    "run_experiment",
    "sketch_storage_bits",
    "stable_log_variate",
    "stable_median_log",
    "unpack",
]
