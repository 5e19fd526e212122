"""The sketch-type table: one entry per sketch type, the single list of
the nine types the CLI, the experiment runner and the codecs accept.

An entry gives a type's name and binary tag, its class with any fixed
constructor argument, its parameters and its exact sampler (the draw and
shape steps of the sampling module).  The state arrays are described
once, by the layout the class declares (see the state module): their
names, invariants, combine rule and encodings.  The CLI's ``--type``
choices and constructor, the experiment runner's algorithms, hash-mode
build, sampled-mode draw and shape and block estimates, and both codecs
are derived from the entry and that layout.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import sampling, state
from .baselines import HyperLogLogSketch, LogLogSketch, MinCountSketch
from .errors import SerializationError
from .order_sketch import (
    BernoulliSketch,
    ContinuousMaxSketch,
    GeometricMaxSketch,
    KthOrderSketch,
)
from .projection import ProjectionSketch


@dataclass(frozen=True)
class SketchType:
    name: str
    tag: int                  # binary frame type tag
    cls: type                 # a state.Sketch; cls.layout describes its arrays
    sampler: sampling.Steps   # draws and shapes the exact state
    params: tuple = ()        # (name, state.REAL or state.U16) pairs
    fixed: dict = field(default_factory=dict)  # fixed constructor arguments

    @property
    def param_names(self) -> tuple:
        return tuple(name for name, _ in self.params)

    def build(self, m: int, seed: int, params: dict):
        """An empty sketch."""
        return self.cls(m, seed=seed, **self.fixed, **params)

    def from_state(self, m: int, salt: int, arrays, params: dict, copy: bool = True):
        """The sketch of the state arrays, checked; with copy=False it may
        keep the arrays, which the caller then no longer holds."""
        return self.cls.from_arrays(m, salt, arrays, {**self.fixed, **params}, copy)

    def checked(self, m: int, arrays, params: dict) -> tuple:
        """A stack of states, one row per sketch, checked, as new arrays
        or the given ones."""
        return self.cls.layout.checked(m, *arrays, reps=len(arrays[0]), copy=False,
                                       **self.fixed, **params)

    def estimates(self, arrays, level: float, params: dict, median: bool = False):
        """The block estimates of a checked stack of states; with median,
        those of the projection's median estimator."""
        if median:
            return self.cls.median_estimates(*arrays, **params)
        return self.cls.estimates(*arrays, level=level, **self.fixed, **params)

    def describes(self, sk) -> bool:
        return type(sk) is self.cls and all(
            getattr(sk, k) == v for k, v in self.fixed.items())


TYPES = {t.name: t for t in (
    SketchType("max-uniform", 1, ContinuousMaxSketch, sampling.CONTINUOUS,
               fixed={"kind": "uniform"}),
    SketchType("max-exp", 2, ContinuousMaxSketch, sampling.CONTINUOUS,
               fixed={"kind": "exponential"}),
    SketchType("max-geom", 3, GeometricMaxSketch, sampling.GEOMETRIC,
               params=(("q", state.REAL),)),
    SketchType("kth", 4, KthOrderSketch, sampling.KTH, params=(("k", state.U16),)),
    SketchType("bernoulli", 5, BernoulliSketch, sampling.BERNOULLI,
               params=(("p", state.REAL),)),
    SketchType("projection", 6, ProjectionSketch, sampling.PROJECTION,
               params=(("alpha", state.REAL),)),
    SketchType("loglog", 7, LogLogSketch, sampling.RANKS),
    SketchType("hll", 8, HyperLogLogSketch, sampling.RANKS),
    SketchType("mincount", 9, MinCountSketch, sampling.MINCOUNT),
)}
BY_TAG = {t.tag: t for t in TYPES.values()}


def type_of(sk) -> SketchType:
    for t in TYPES.values():
        if t.describes(sk):
            return t
    raise SerializationError(f"unknown sketch class {type(sk).__name__}")
