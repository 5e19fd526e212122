"""Exact-distribution sketch-state samplers for replicated experiments.

Under the idealized truly-random hash model, the state of every sketch here
has a known sampling distribution when the stream holds c distinct items.
Drawing states directly from that law is orders of magnitude cheaper than
hashing c*m variates per replicate and is statistically indistinguishable
from honest ingestion (the equivalence is pinned by two-sample tests in the
suite).  Replication experiments at c*m beyond desk scale use these; every
correctness test of ingestion itself runs the real hash path.

All samplers consume a numpy Generator, so a seeded run is reproducible.
"""

from __future__ import annotations

import math

import numpy as np

from . import hashing
from .baselines import MINCOUNT_K, HyperLogLogSketch, LogLogSketch, MinCountSketch, max_rank
from .errors import InsufficientDataError
from .order_sketch import (
    BernoulliSketch,
    ContinuousMaxSketch,
    GeometricMaxSketch,
    KthOrderSketch,
)
from .projection import ProjectionSketch


def continuous_slots(c: int, m: int, rng) -> np.ndarray:
    """log of the maximum of c uniforms per stream: log(U)/c exactly."""
    return np.log(rng.random(m)) / c


def sample_continuous(c: int, m: int, rng, kind: str = "uniform") -> ContinuousMaxSketch:
    return ContinuousMaxSketch.from_state(m, 0, continuous_slots(c, m, rng), kind)


def geometric_slots_from_continuous(log_y: np.ndarray, q: float) -> np.ndarray:
    """Couple a geometric max to a continuous max built from the same
    uniforms: the geometric variate is a monotone rounding of the uniform
    one, so max and rounding commute exactly."""
    y = np.ceil(np.log(-np.expm1(log_y)) / math.log(q))
    return np.maximum(y, 1.0).astype(np.uint32)


def sample_geometric(c: int, m: int, q: float, rng) -> GeometricMaxSketch:
    slots = geometric_slots_from_continuous(continuous_slots(c, m, rng), q)
    return GeometricMaxSketch.from_state(m, 0, slots, q)


def sample_kth(c: int, k: int, m: int, rng) -> KthOrderSketch:
    """Top-k order statistics of c uniforms per stream via the descending
    beta recursion U_(c-i) = U_(c-i+1) * B**(1/(c-i))."""
    if c < k:
        raise InsufficientDataError(f"need c >= k, got c={c}, k={k}")
    log_u = np.log(rng.random((m, k)))
    denom = c - np.arange(k, dtype=np.float64)
    log_tops = np.cumsum(log_u / denom, axis=1)
    return KthOrderSketch.from_state(m, 0, np.exp(log_tops), k)


def sample_bernoulli(c: int, m: int, p: float, rng) -> BernoulliSketch:
    hit = -math.expm1(c * math.log1p(-p))  # 1-(1-p)^c
    ones = int(rng.binomial(m, hit))
    bits = np.zeros(m, dtype=np.uint8)
    bits[:ones] = 1
    return BernoulliSketch.from_state(m, 0, bits, p)


def projection_logmag(c: float, m: int, alpha: float, rng) -> np.ndarray:
    """log V_j for a stream with sum_i D_i**alpha = c, D_i the total
    quantity of item i: stability collapses the sum to c**(1/alpha) times
    one stable draw."""
    u = rng.random(m)
    w = rng.exponential(size=m)
    return math.log(c) / alpha + hashing.stable_log_variate(u, w, alpha)


def sample_projection(c: float, m: int, alpha: float, rng) -> ProjectionSketch:
    """The projection state of a stream whose live items have total
    quantities D_i with sum_i D_i**alpha = c: c distinct items of unit
    quantity give c, and R repeats of each give c * R**alpha.  An item
    inserted and deleted again has D_i = 0 and adds nothing."""
    logmag = projection_logmag(c, m, alpha, rng)
    return ProjectionSketch.from_state(m, 0, np.ones(m, dtype=np.int8), logmag, alpha)


def _bucket_counts(c: int, m: int, rng) -> np.ndarray:
    return rng.multinomial(c, np.full(m, 1.0 / m))


def rank_registers(c: int, m: int, rng) -> np.ndarray:
    """Per-bucket maxima of first-1-bit ranks: bucket loads are multinomial
    and the max of n geometric(1/2) ranks inverts (1 - 2**-r)**n."""
    top = max_rank(m)
    n = _bucket_counts(c, m, rng)
    u = rng.random(m)
    out = np.zeros(m, dtype=np.uint8)
    live = n > 0
    t = -np.expm1(np.log(u[live]) / n[live])  # smallest 2**-r below this
    r = np.ceil(-np.log2(np.maximum(t, 2.0 ** -(top + 1))))
    out[live] = np.clip(r, 1, top).astype(np.uint8)
    return out


def sample_loglog(c: int, m: int, rng) -> LogLogSketch:
    return LogLogSketch.from_state(m, 0, rank_registers(c, m, rng))


def sample_hll(c: int, m: int, rng) -> HyperLogLogSketch:
    return HyperLogLogSketch.from_state(m, 0, rank_registers(c, m, rng))


def sample_mincount(c: int, m: int, rng) -> MinCountSketch:
    """Third minima of per-bucket uniforms: Beta(3, n-2) exactly."""
    n = _bucket_counts(c, m, rng)
    if np.any(n < MINCOUNT_K):
        raise InsufficientDataError(
            f"a bucket drew fewer than {MINCOUNT_K} items (c too small for m)")
    third = rng.beta(MINCOUNT_K, n - MINCOUNT_K + 1)
    state = np.zeros((m, MINCOUNT_K))
    state[:, MINCOUNT_K - 1] = third
    # lower minima are never read by the estimator; fill with a valid chain
    state[:, 0] = third / 3.0
    state[:, 1] = 2.0 * third / 3.0
    return MinCountSketch.from_state(m, 0, state)
