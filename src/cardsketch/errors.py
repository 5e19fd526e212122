"""Exception types raised by sketches and estimators."""

import numpy as np


class SketchError(Exception):
    """Base class for sketch and estimation errors."""


class EmptySketchError(SketchError):
    """Estimation requested on a sketch with at least one empty slot."""


class DegenerateSketchError(SketchError):
    """Sketch state carries no usable information (e.g. zero pivot sum)."""


class IncompatibleSketchError(SketchError):
    """Merge of sketches with differing type, size, salt or parameters."""


class UnsupportedDeletionError(SketchError):
    """Negative or zero quantity fed to an insert-only sketch (the max
    family and the LogLog/HLL/MinCount baselines), which cannot delete."""


def reject_deletions(d, sketch) -> None:
    """Raise UnsupportedDeletionError unless every quantity in d (a scalar,
    an array, or None for all ones) is positive."""
    if d is not None and np.any(np.asarray(d) <= 0):
        raise UnsupportedDeletionError(
            f"{type(sketch).__name__} cannot delete; got a quantity <= 0")


class InsufficientDataError(SketchError):
    """Too few observations to apply the estimator (e.g. top-k list not full)."""


class SaturatedSketchError(SketchError):
    """All Bernoulli bits are set; only a lower confidence bound exists.

    Attributes:
        lower_bound: one-sided lower confidence bound for the cardinality.
        level: confidence level of that bound.
    """

    def __init__(self, msg, lower_bound=None, level=None):
        super().__init__(msg)
        self.lower_bound = lower_bound
        self.level = level


class EstimationNumericError(SketchError):
    """Iterative estimator failed to converge.

    Attributes:
        initial: the consistent initial estimate that seeded the iteration.
    """

    def __init__(self, msg, initial=None):
        super().__init__(msg)
        self.initial = initial


class StreamIntegrityError(ValueError):
    """A stream left an item with negative cumulative quantity, or carried
    a quantity that is not a finite number."""


class SerializationError(ValueError):
    """Malformed, unknown or version-incompatible serialized sketch."""
