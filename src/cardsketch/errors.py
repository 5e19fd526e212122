"""Exception types raised by sketches and estimators.

Quantities are checked in one place, ``state.Sketch.add_batch``: a
malformed one raises StreamIntegrityError, a deletion sent to an
insert-only sketch UnsupportedDeletionError.
"""


class SketchError(Exception):
    """Base class for sketch and estimation errors."""


class EmptySketchError(SketchError):
    """Estimation requested on a sketch with at least one empty slot."""


class DegenerateSketchError(SketchError):
    """Sketch state carries no usable information (e.g. zero pivot sum)."""


class IncompatibleSketchError(SketchError):
    """Merge of sketches with differing type, size, salt, parameters or hash
    scheme version, or items added to a state of an older hash scheme."""


class UnsupportedDeletionError(SketchError):
    """Negative or zero quantity fed to an insert-only sketch (the max
    family and the LogLog/HLL/MinCount baselines), which cannot delete."""


class InsufficientDataError(SketchError):
    """Too few observations to apply the estimator (e.g. top-k list not full)."""


class SaturatedSketchError(SketchError):
    """A state has reached the end of its range: all Bernoulli bits are set,
    so only a lower confidence bound exists, a geometric slot would pass
    the u32 maximum, or a sampled projection log-magnitude would pass
    double range.

    Attributes:
        lower_bound: one-sided lower confidence bound for the cardinality
            (Bernoulli only, else None).
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
    quantities that are not finite numbers, one per item."""


class SerializationError(ValueError):
    """Malformed, unknown or version-incompatible serialized sketch."""
