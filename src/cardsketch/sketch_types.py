"""The sketch-type table: one entry per sketch type, the single list of
the nine types the CLI, the experiment runner and the codecs accept.

An entry gives a type's name and binary tag, its parameters, and the
names of its class, with any fixed constructor argument, and of its
exact sampler (the draw and shape steps of the sampling module).  The
state arrays are described once, by the layout the class declares (see
the state module): their names, invariants, combine rule and encodings.
The CLI's ``--type`` choices and constructor, the experiment runner's
algorithms, hash-mode build, sampled-mode draw and shape and block
estimates, and both codecs are derived from the entry and that layout.

An entry's ``cls`` and ``sampler`` import their module on first read,
and the entry keeps what they found for the rest of the process: reading
the table loads no sketch family, so a process that builds, decodes or
estimates only HLL sketches never imports ``order_sketch``,
``projection`` or ``sampling``.
``describes`` and ``type_of`` import nothing, as a sketch's own class is
loaded already.
"""

from __future__ import annotations

import functools
import importlib
import sys
from dataclasses import dataclass, field

from . import state
from .errors import SerializationError


@dataclass(frozen=True)
class SketchType:
    name: str
    tag: int                  # binary frame type tag
    home: str                 # "module.Class" of its state.Sketch, read as cls
    steps: str                # the name of its sampling.Steps, read as sampler
    params: tuple = ()        # (name, state.REAL or state.U16) pairs
    fixed: dict = field(default_factory=dict)  # fixed constructor arguments

    @functools.cached_property
    def cls(self) -> type:
        """The state.Sketch class; cls.layout describes its arrays."""
        module, name = self.home.split(".")
        return getattr(importlib.import_module(f".{module}", __package__), name)

    @functools.cached_property
    def sampler(self):
        """The sampling.Steps that draw and shape the exact state."""
        return getattr(importlib.import_module(".sampling", __package__), self.steps)

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
        """The block estimates of a checked stack of states, row i what
        sketch i's ``estimate`` (with median, ``median_estimate``) gives."""
        if median:
            return self.cls.median_estimates(*arrays, **params)
        return self.cls.estimates(*arrays, level=level, **self.fixed, **params)

    def describes(self, sk) -> bool:
        """Whether sk is a sketch of this type: its class is this entry's,
        found among the loaded modules, and its fixed arguments match."""
        module, name = self.home.split(".")
        loaded = sys.modules.get(f"{__package__}.{module}")
        return type(sk) is getattr(loaded, name, None) and all(
            getattr(sk, k) == v for k, v in self.fixed.items())


TYPES = {t.name: t for t in (
    SketchType("max-uniform", 1, "order_sketch.ContinuousMaxSketch", "CONTINUOUS",
               fixed={"kind": "uniform"}),
    SketchType("max-exp", 2, "order_sketch.ContinuousMaxSketch", "CONTINUOUS",
               fixed={"kind": "exponential"}),
    SketchType("max-geom", 3, "order_sketch.GeometricMaxSketch", "GEOMETRIC",
               params=(("q", state.REAL),)),
    SketchType("kth", 4, "order_sketch.KthOrderSketch", "KTH", params=(("k", state.U16),)),
    SketchType("bernoulli", 5, "order_sketch.BernoulliSketch", "BERNOULLI",
               params=(("p", state.REAL),)),
    SketchType("projection", 6, "projection.ProjectionSketch", "PROJECTION",
               params=(("alpha", state.REAL),)),
    SketchType("loglog", 7, "baselines.LogLogSketch", "RANKS"),
    SketchType("hll", 8, "baselines.HyperLogLogSketch", "RANKS"),
    SketchType("mincount", 9, "baselines.MinCountSketch", "MINCOUNT"),
)}
BY_TAG = {t.tag: t for t in TYPES.values()}


def type_of(sk) -> SketchType:
    for t in TYPES.values():
        if t.describes(sk):
            return t
    raise SerializationError(f"unknown sketch class {type(sk).__name__}")
