"""cardsketch: one-pass streaming cardinality estimation.

Two sketch families over m seeded hash streams: maximal-term /
order-statistic sketches (continuous, geometric, Bernoulli, top-k) and
signed random-projection sketches with positive alpha-stable hashing.
Plus closed-form inference (Fisher information, relative efficiencies,
Chernoff tail bounds, sketch sizing), the classic baselines (LogLog,
HyperLogLog, MinCount) and a replicated simulation harness.

Names load on first use (PEP 562): ``import cardsketch`` runs none of the
package's modules, and ``cardsketch.ProjectionSketch`` imports
``projection`` and the modules it needs, no others.  A submodule, such as
``cardsketch.sampling``, is imported when first read as an attribute.
The codecs and the CLI load a sketch family (``baselines``,
``order_sketch`` or ``projection``) only when a sketch of it is first
built or decoded, and ``inference`` only for a max-geom estimate.
"""

import importlib

__version__ = "0.1.0"

# each public name, once, under the module that defines it
_PUBLIC = {
    "baselines": ("HyperLogLogSketch", "LogLogSketch", "MinCountSketch"),
    "errors": (
        "DegenerateSketchError",
        "EmptySketchError",
        "EstimationNumericError",
        "IncompatibleSketchError",
        "InsufficientDataError",
        "SaturatedSketchError",
        "SerializationError",
        "SketchError",
        "StreamIntegrityError",
        "UnsupportedDeletionError",
    ),
    "estimate": ("Estimate", "gamma_pivot_interval"),
    "experiment": ("ExperimentConfig", "ExperimentReport", "run_experiment"),
    "hashing": ("item_key", "stable_log_variate"),
    "inference": (
        "TailBound",
        "are_bernoulli",
        "chernoff_bounds",
        "fisher_info_geometric",
        "optimal_lambda",
        "psi_infinity",
        "required_m",
        "sketch_storage_bits",
    ),
    "order_sketch": (
        "BernoulliSketch",
        "ContinuousMaxSketch",
        "GeometricMaxSketch",
        "KthOrderSketch",
        "bernoulli_estimate",
        "combine_kth",
        "kth_root_estimate",
    ),
    "projection": ("CoupledRun", "ProjectionSketch", "coupled_residuals", "stable_median_log"),
    "serialize": ("dumps", "loads", "pack", "unpack"),
    "state": ("merge",),
    "streams": ("Stream", "exact_count", "generate_stream"),
}
_HOME = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _HOME:
        value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
        globals()[name] = value
        return value
    if not name.startswith("_"):
        try:
            return importlib.import_module(f".{name}", __name__)
        except ModuleNotFoundError as exc:
            if exc.name != f"{__name__}.{name}":
                raise
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list:
    return sorted(set(globals()) | set(__all__))
