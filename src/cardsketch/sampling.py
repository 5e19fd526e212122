"""Exact-distribution sketch-state samplers for replicated experiments.

Under the idealized truly-random hash model, the state of every sketch here
has a known sampling distribution when the stream holds c distinct items.
Drawing states directly from that law is orders of magnitude cheaper than
hashing every item of every replicate and is statistically indistinguishable
from honest ingestion (the equivalence is pinned by two-sample tests in the
suite).  Replication experiments at c*m beyond desk scale use these; every
correctness test of ingestion itself runs the real hash path.

Each sampler is two steps (a ``Steps`` pair):

- ``draw(c, m, rng, **params)`` makes one replicate's generator calls, in
  a fixed order, and returns its raw variates as a tuple of arrays.  A
  state that cannot be drawn raises after exactly the calls made so far
  (MinCount refuses after its multinomial, before its beta draw), so the
  replicates after it draw what they would have drawn anyway;
- ``shape(c, m, *draws, **params)`` turns a stack of draws, one row per
  replicate, into a stack of state arrays, and returns them with, per
  row, None or the error that keeps the row from being a state.  The
  projection's c may be an array, one value per row.

Neither step checks m or the parameters: the sketch's constructor does,
before the first draw.  ``sample_*`` builds an empty sketch first, so a
refused m or parameter raises its constructor's ValueError with the
generator untouched; it refuses the same way a c that ``Steps.check``
refuses (not a finite number > 0, or above the draw's ``c_max``: the
bucket baselines' multinomial takes c below 2**63), and then makes a
one-row call of both steps; the experiment runner builds one per type,
and in sampled mode checks c, before its first replicate, then draws
per replicate and shapes per block.  All samplers consume a numpy
Generator, so a seeded run is reproducible.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, NamedTuple

import numpy as np

from . import hashing
from .baselines import MINCOUNT_K, HyperLogLogSketch, LogLogSketch, MinCountSketch, max_rank
from .errors import InsufficientDataError, SaturatedSketchError
from .estimate import block_row, fail
from .order_sketch import (
    BernoulliSketch,
    ContinuousMaxSketch,
    GeometricMaxSketch,
    KthOrderSketch,
    geometric_slot_rows,
)
from .projection import ProjectionSketch


class Steps(NamedTuple):
    draw: Callable
    shape: Callable
    c_max: float = math.inf  # the largest c the draw takes

    def check(self, c) -> None:
        """Raise ValueError unless c is a finite number > 0 and at most c_max."""
        try:
            valid = math.isfinite(c) and c > 0
        except (TypeError, OverflowError):
            valid = False
        if not valid:
            raise ValueError(f"c must be a finite number > 0, got {c!r}")
        if c > self.c_max:
            raise ValueError(f"c must be at most {self.c_max} for this sampler, got {c!r}")


def _fine(rows: int) -> list:
    return [None] * rows


# -- continuous and geometric: log of the maximum of c uniforms, log(U)/c

def _uniforms(c, m: int, rng) -> tuple:
    return (rng.random(m),)


def _continuous_shape(c, m: int, u) -> tuple:
    return (np.log(u) / c,), _fine(len(u))


def _geometric_draw(c, m: int, rng, q: float) -> tuple:
    return _uniforms(c, m, rng)


def _geometric_shape(c, m: int, u, q: float) -> tuple:
    errors = _fine(len(u))
    return (geometric_slot_rows(np.log(u) / c, q, errors),), errors


CONTINUOUS = Steps(_uniforms, _continuous_shape)
GEOMETRIC = Steps(_geometric_draw, _geometric_shape)


# -- top-k: the descending beta recursion U_(c-i) = U_(c-i+1) * B**(1/(c-i))

def _kth_draw(c, m: int, rng, k: int) -> tuple:
    if c < k:
        raise InsufficientDataError(f"need c >= k, got c={c}, k={k}")
    return (rng.random((m, k)),)


def _kth_shape(c, m: int, u, k: int) -> tuple:
    tops = np.log(u)
    tops /= c - np.arange(k, dtype=np.float64)
    np.cumsum(tops, axis=-1, out=tops)
    return (np.exp(tops, out=tops),), _fine(len(u))


KTH = Steps(_kth_draw, _kth_shape)


# -- Bernoulli: the number of set bits is Binomial(m, 1 - (1 - p)**c)

def _bernoulli_draw(c, m: int, rng, p: float) -> tuple:
    hit = -math.expm1(c * math.log1p(-p))
    return (np.array(int(rng.binomial(m, hit))),)


def _bernoulli_shape(c, m: int, ones, p: float) -> tuple:
    return ((np.arange(m) < ones[:, None]).astype(np.uint8),), _fine(len(ones))


BERNOULLI = Steps(_bernoulli_draw, _bernoulli_shape)


# -- projection: log V_j for a stream with sum_i D_i**alpha = c, D_i the
# total quantity of item i; stability collapses the sum to c**(1/alpha)
# times one stable draw

def _projection_draw(c, m: int, rng, alpha: float) -> tuple:
    return rng.random(m), rng.exponential(size=m)


def _projection_shape(c, m: int, u, w, alpha: float) -> tuple:
    """The states, with a SaturatedSketchError and ones in place of a row
    whose log-magnitudes leave double range: log(c) / alpha does at the
    smallest alpha once c passes about 6.6e17."""
    errors = _fine(len(u))
    scale = np.array([math.log(x) for x in np.broadcast_to(c, len(u)).tolist()])
    with np.errstate(over="ignore"):
        scale /= alpha
        logmag = scale[:, None] + hashing.stable_log_variate(u, w, alpha)
    out = ~np.isfinite(logmag).all(axis=1)
    fail(errors, out, lambda i: SaturatedSketchError(
        f"a projection log-magnitude passes double range: log(c) / alpha = "
        f"{scale[i]:.4g} at alpha = {alpha}"))
    logmag[out] = 0.0
    return (np.ones(logmag.shape, dtype=np.int8), logmag), errors


PROJECTION = Steps(_projection_draw, _projection_shape)


# -- the bucket baselines: multinomial bucket loads, whose count numpy
# takes as a signed 64-bit integer

@functools.lru_cache(maxsize=16)
def _uniform_p(m: int) -> np.ndarray:
    """The multinomial's m bucket probabilities 1/m, built once per m and
    read-only, as every draw shares it."""
    p = np.full(m, 1.0 / m)
    p.flags.writeable = False
    return p


def _bucket_counts(c, m: int, rng) -> np.ndarray:
    return rng.multinomial(c, _uniform_p(m))


def _ranks_draw(c, m: int, rng) -> tuple:
    return _bucket_counts(c, m, rng), rng.random(m)


def _ranks_shape(c, m: int, n, u) -> tuple:
    """Per-bucket maxima of first-1-bit ranks: the max of n geometric(1/2)
    ranks inverts (1 - 2**-r)**n."""
    top = max_rank(m)
    out = np.zeros(n.shape, dtype=np.uint8)
    live = n > 0
    t = -np.expm1(np.log(u[live]) / n[live])  # smallest 2**-r below this
    r = np.ceil(-np.log2(np.maximum(t, 2.0 ** -(top + 1))))
    out[live] = np.clip(r, 1, top).astype(np.uint8)
    return (out,), _fine(len(n))


def _mincount_draw(c, m: int, rng) -> tuple:
    """Third minima of per-bucket uniforms: Beta(3, n-2) exactly."""
    n = _bucket_counts(c, m, rng)
    if np.any(n < MINCOUNT_K):
        raise InsufficientDataError(
            f"a bucket drew fewer than {MINCOUNT_K} items (c too small for m)")
    return (rng.beta(MINCOUNT_K, n - MINCOUNT_K + 1),)


def _mincount_shape(c, m: int, third) -> tuple:
    state = np.empty(third.shape + (MINCOUNT_K,))
    state[..., MINCOUNT_K - 1] = third
    # lower minima are never read by the estimator; fill with a valid chain
    state[..., 0] = third / 3.0
    state[..., 1] = 2.0 * third / 3.0
    return (state,), _fine(len(third))


RANKS = Steps(_ranks_draw, _ranks_shape, 2**63 - 1)
MINCOUNT = Steps(_mincount_draw, _mincount_shape, 2**63 - 1)


# -- one-row samplers ----------------------------------------------------

def _one_row(steps: Steps, cls, c, m: int, rng, fixed=None, **params):
    """The sketch of one replicate: a one-row draw and shape, once the
    constructor has accepted m and the parameters, and the steps have
    accepted c."""
    args = {**(fixed or {}), **params}
    cls(m, **args)
    steps.check(c)
    draws = steps.draw(c, m, rng, **params)
    arrays, errors = steps.shape(c, m, *(d[None] for d in draws), **params)
    return cls.from_arrays(m, 0, [block_row(a, errors) for a in arrays], args, copy=False)


def sample_continuous(c: int, m: int, rng, kind: str = "uniform") -> ContinuousMaxSketch:
    return _one_row(CONTINUOUS, ContinuousMaxSketch, c, m, rng, {"kind": kind})


def sample_geometric(c: int, m: int, q: float, rng) -> GeometricMaxSketch:
    return _one_row(GEOMETRIC, GeometricMaxSketch, c, m, rng, q=q)


def sample_kth(c: int, k: int, m: int, rng) -> KthOrderSketch:
    """Top-k order statistics of c uniforms per stream."""
    return _one_row(KTH, KthOrderSketch, c, m, rng, k=k)


def sample_bernoulli(c: int, m: int, p: float, rng) -> BernoulliSketch:
    return _one_row(BERNOULLI, BernoulliSketch, c, m, rng, p=p)


def sample_projection(c: float, m: int, alpha: float, rng) -> ProjectionSketch:
    """The projection state of a stream whose live items have total
    quantities D_i with sum_i D_i**alpha = c: c distinct items of unit
    quantity give c, and R repeats of each give c * R**alpha.  An item
    inserted and deleted again has D_i = 0 and adds nothing."""
    return _one_row(PROJECTION, ProjectionSketch, c, m, rng, alpha=alpha)


def sample_loglog(c: int, m: int, rng) -> LogLogSketch:
    return _one_row(RANKS, LogLogSketch, c, m, rng)


def sample_hll(c: int, m: int, rng) -> HyperLogLogSketch:
    return _one_row(RANKS, HyperLogLogSketch, c, m, rng)


def sample_mincount(c: int, m: int, rng) -> MinCountSketch:
    return _one_row(MINCOUNT, MinCountSketch, c, m, rng)
