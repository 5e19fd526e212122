"""The sketch-type table: one entry per sketch type, the single list of
the nine types the CLI, the experiment runner and the codecs accept.

An entry gives a type's name and binary tag, its class with any fixed
constructor argument, its parameters and its exact sampler.  The state
arrays are described once, by the layout the class declares (see the
state module): their names, invariants, combine rule and encodings.  The
CLI's ``--type`` choices and constructor, the experiment runner's
algorithms, hash-mode build and sampled-mode draw, and both codecs are
derived from the entry and that layout.
Samplers are looked up on the sampling module at call time, so a wrapper
installed there is honoured.
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
    sampler: str              # sampling module function drawing the exact state
    params: tuple = ()        # (name, state.REAL or state.U16) pairs
    fixed: dict = field(default_factory=dict)  # fixed constructor arguments

    @property
    def param_names(self) -> tuple:
        return tuple(name for name, _ in self.params)

    def build(self, m: int, seed: int, params: dict):
        """An empty sketch."""
        return self.cls(m, seed=seed, **self.fixed, **params)

    def from_state(self, m: int, salt: int, arrays, params: dict):
        return self.cls.from_state(m, salt, *arrays, **self.fixed, **params)

    def sample(self, c: int, m: int, rng, params: dict):
        """A state drawn from its exact law at c distinct items."""
        sample = getattr(sampling, self.sampler)
        return sample(c=c, m=m, rng=rng, **self.fixed, **params)

    def describes(self, sk) -> bool:
        return type(sk) is self.cls and all(
            getattr(sk, k) == v for k, v in self.fixed.items())


TYPES = {t.name: t for t in (
    SketchType("max-uniform", 1, ContinuousMaxSketch, "sample_continuous",
               fixed={"kind": "uniform"}),
    SketchType("max-exp", 2, ContinuousMaxSketch, "sample_continuous",
               fixed={"kind": "exponential"}),
    SketchType("max-geom", 3, GeometricMaxSketch, "sample_geometric",
               params=(("q", state.REAL),)),
    SketchType("kth", 4, KthOrderSketch, "sample_kth", params=(("k", state.U16),)),
    SketchType("bernoulli", 5, BernoulliSketch, "sample_bernoulli",
               params=(("p", state.REAL),)),
    SketchType("projection", 6, ProjectionSketch, "sample_projection",
               params=(("alpha", state.REAL),)),
    SketchType("loglog", 7, LogLogSketch, "sample_loglog"),
    SketchType("hll", 8, HyperLogLogSketch, "sample_hll"),
    SketchType("mincount", 9, MinCountSketch, "sample_mincount"),
)}
BY_TAG = {t.tag: t for t in TYPES.values()}


def type_of(sk) -> SketchType:
    for t in TYPES.values():
        if t.describes(sk):
            return t
    raise SerializationError(f"unknown sketch class {type(sk).__name__}")
