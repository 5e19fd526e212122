"""Maximal-term and k-th order-statistic sketches over m hash streams.

Each sketch keeps one monotone slot per hash stream (here a register): a
function of the earliest first arrivals of the distinct items seen in
that register.  Slots only move one way, so ingestion is
duplicate-insensitive and order-invariant, merge is the slot-wise
combine, and merge(sketch(A), sketch(B)) is bit-identical to a single
pass over A union B.

Ingestion reads ``hashing.first_arrivals``: every item has a rate-m
Poisson process of arrivals, each in a uniformly chosen register, and its
first arrival in each register is an Exp(1) time E, independent across
registers.  A register's slot is a function of the smallest such E over
the items, E_j:

- continuous: -E_j, the log of e**-E_j, which is distributed as the
  largest of c uniforms;
- geometric: the rounding ceil(log(1 - e**-E_j) / log q);
- Bernoulli: the bit E_j < -log(1 - p);
- top-k: the k smallest first arrivals, stored as e**-E, descending.

Each sketch tells the arrivals, per register, the time from which an
arrival can no longer change its slot, so an item stops after an arrival
or two once the slots have filled.  Thresholds read back from stored
values (the top-k sketch's -log u, the geometric -log(1 - q**y)) are
padded upward, so an item may be followed too long, never dropped early.

The hash scheme is recorded as the sketch's ``version``: 2 for these
arrivals.  A state decoded from a version-1 document (one hash column per
stream) keeps version 1; it can be estimated and merged with other
version-1 states, and refuses new items.

Sketches are single-writer.  To ingest concurrently, shard the stream, build
one sketch per shard and merge; estimation is read-only and safe to call
concurrently once writers have stopped.
"""

from __future__ import annotations

import math

import numpy as np

from . import hashing, state
from .errors import (
    DegenerateSketchError,
    EmptySketchError,
    EstimationNumericError,
    InsufficientDataError,
    SaturatedSketchError,
)
from .estimate import Estimate, gamma_estimate, normal_estimate
from .inference import psi_infinity

_LOG_HALF = math.log(0.5)


# relative padding of the thresholds read back from stored values, applied
# both to the stored value and to the time: far above the few ulps that
# evaluating either loses
_PAD = 2.0**-40

# the largest q: a hashed first arrival is at least -log(1 - 2**-53) / m,
# about 2**-85 for m < 2**32, so a geometric slot is at most
# 85 log 2 / -log q, about 3.95e9 here, below the u32 maximum 2**32 - 1
_Q_MAX = 1.0 - 2.0**-26


def _first_arrival_minima(sk, keys: np.ndarray, reach: np.ndarray) -> np.ndarray:
    """The earliest first arrival of the keys in each of the sketch's
    registers, inf where none came before reach, the time from which an
    arrival in that register no longer changes the state."""
    bound = np.array(reach, dtype=np.float64)
    lowest = np.full(sk.m, np.inf)
    for _, regs, t in hashing.first_arrivals(keys, sk.salt, sk.m, bound):
        np.minimum.at(lowest, regs, t)
        np.minimum(bound, lowest, out=bound)
    return lowest


class ContinuousMaxSketch(state.Sketch):
    """Max sketch with continuous hashing ("uniform" or "exponential").

    Slots store log F(M_j) <= 0, the log-CDF of the running maximum, with
    -inf marking an empty stream: -E_j, minus the earliest first arrival
    in register j, since e**-E_j has the law of the largest of c uniforms.
    For any continuous hashing distribution F(h(u)) is identically the
    underlying uniform u (probability integral transform), so uniform and
    exponential hashing produce bit-identical pivots by construction.  A
    single float per stream, and the pivot sum -sum(slots) is exactly the
    merge-consistent sufficient statistic.
    """

    params = ("kind",)
    layout = state.Vector("slots", "<f8", 0.0, "continuous log-CDF slots")
    version = 2

    def __init__(self, m: int, seed: int = 0, kind: str = "uniform"):
        if kind not in ("uniform", "exponential"):
            raise ValueError(f"continuous kind must be uniform or exponential, got {kind!r}")
        self.kind = kind
        super().__init__(m, seed)

    def _absorb(self, keys: np.ndarray, d: np.ndarray) -> None:
        earliest = _first_arrival_minima(self, keys, -self.slots)
        np.maximum(self.slots, -earliest, out=self.slots)

    def max_values(self) -> np.ndarray:
        """Running maxima in the hash domain (uniform: M_j, exponential: -log(1-M_j))."""
        if self.kind == "uniform":
            return np.exp(self.slots)
        return -np.log1p(-np.exp(self.slots))

    def pivot_sum(self) -> float:
        """S = -sum_j log F(M_j); c*S is a Gamma(m,1) pivot."""
        if np.any(np.isneginf(self.slots)):
            raise EmptySketchError("some hash streams saw no items")
        with np.errstate(over="ignore"):  # gamma_estimate refuses an infinite sum
            return float(-self.slots.sum())

    def estimate(self, level: float = 0.95) -> Estimate:
        """MLE m/S with the exact Gamma-pivot confidence interval."""
        s = self.pivot_sum()
        if s <= 0.0:
            raise DegenerateSketchError("all slots at the distribution supremum")
        return gamma_estimate(s, self.m, level, f"max-{self.kind}")


class GeometricMaxSketch(state.Sketch):
    """Max sketch hashing to the geometric law with CDF 1 - q**x on x=1,2,...

    Slots are small unsigned integers (the expected maximum grows like
    log(c), so 32 bits cover any feasible cardinality); 0 marks empty.
    """

    params = ("q",)
    layout = state.Vector("slots", "<u4", state.U32_MAX, "geometric slots")
    version = 2

    def __init__(self, m: int, q: float, seed: int = 0):
        self.q = check_geometric_q(q)
        super().__init__(m, seed)

    def _absorb(self, keys: np.ndarray, d: np.ndarray) -> None:
        # an arrival at t raises slot y exactly when 1 - e**-t < q**y,
        # padded up in q**y (inf if that reaches 1, as for an empty slot)
        qy = np.minimum(self.q ** self.slots.astype(np.float64) * (1.0 + _PAD), 1.0)
        with np.errstate(divide="ignore"):
            reach = -np.log1p(-qy) * (1.0 + _PAD)
        earliest = _first_arrival_minima(self, keys, reach)
        hit = earliest < reach
        self.slots[hit] = np.maximum(self.slots[hit], geometric_slots(-earliest[hit], self.q))

    def estimate(self, level: float = 0.95) -> Estimate:
        """Maximum-likelihood estimate via the score equation of the
        max-of-c-geometrics law, solved by damped Newton-Raphson."""
        if np.any(self.slots == 0):
            raise EmptySketchError("some hash streams saw no items")
        c_hat, c0 = solve_geometric_mle(self.slots, self.q)
        se = c_hat / math.sqrt(self.m * psi_infinity(self.q))
        return normal_estimate(c_hat, se, level, "max-geometric", self.m)

    def recursive_estimate(self, continuity_correction: bool = False) -> float:
        """Exponential-approximation estimator -m / log prod(1 - q**Y_j).

        The statistic is a function of the slot-wise maxima alone, so it is
        consistent under merge and recomputable by summation; accurate for
        q near 1.  Because the slots are integer ceilings of the underlying
        continuous variable, the raw statistic overestimates by a factor of
        about 1 + log(1/q)/2 (4.8% at q=10/11); continuity_correction
        evaluates the statistic at Y_j - 1/2, which cancels that bias while
        remaining a function of the merged state.
        """
        if np.any(self.slots == 0):
            raise EmptySketchError("some hash streams saw no items")
        y = self.slots.astype(np.float64)
        if continuity_correction:
            y = y - 0.5
        return _exponential_approximation(self.m, float(_log1m_qpow(y, self.q).sum()))


def check_geometric_q(q: float) -> float:
    """q as a float; ValueError unless 0 < q <= 1 - 2**-26."""
    if not 0.0 < q <= _Q_MAX:
        raise ValueError(f"q must lie in (0, 1 - 2**-26], got {q}")
    return float(q)


def geometric_slots(log_u: np.ndarray, q: float) -> np.ndarray:
    """The geometric slots ceil(log(1 - u) / log q), at least 1, of the
    uniforms u given by their logs: a monotone rounding of the continuous
    slot, so max and rounding commute exactly.

    Raises SaturatedSketchError if a slot passes the u32 maximum.  A
    hashed slot cannot (see _Q_MAX), but a sampled continuous one can:
    log u = log(U) / c comes as close to 0 as c is large.
    """
    y = np.ceil(np.log(-np.expm1(log_u)) / math.log(q))
    if y.max(initial=0.0) > state.U32_MAX:
        raise SaturatedSketchError(
            f"a geometric slot of {y.max():.4g} passes the u32 maximum at q = {q}")
    return np.maximum(y, 1.0).astype(np.uint32)


def _log1m_qpow(y: np.ndarray, q: float) -> np.ndarray:
    """log(1 - q**y) evaluated stably for large y."""
    return np.log1p(-np.exp(y * math.log(q)))


def _exponential_approximation(m: int, log_s: float) -> float:
    """-m / log_s, log_s the sum of log(1 - q**y) over the m slots; slots so
    large that the quotient overflows raise EstimationNumericError."""
    c = -m / log_s if log_s else math.inf
    if c == math.inf:
        raise EstimationNumericError("every q**y underflows: the estimate exceeds double range")
    return c


def geometric_score(y: np.ndarray, counts: np.ndarray, q: float, c: float):
    """Score and its derivative for the max-of-c-geometrics likelihood.

    Each slot value y contributes
        (a*A**c - b*B**c) / (A**c - B**c),  A = 1-q**y, B = 1-q**(y-1),
        a = log A, b = log B,
    which is evaluated as (a - b*e**d) / (-expm1(d)) with d = c*(b-a) <= 0,
    so terms where A**c or B**c underflow stay finite.  Its derivative in c
    is -((a-b) / expm1(d))**2 * e**d: the ratio is squared, not (a-b) and
    expm1(d) apart, which underflow once q**y < ~1e-154.  y = 1 contributes
    the constant log(1-q).  A slot so large that its term leaves double
    range (d and em1 round to 0, so 0/0) gives a NaN score or derivative,
    on which ``solve_geometric_mle`` raises.
    """
    a = _log1m_qpow(y, q)
    score = np.where(y == 1, math.log1p(-q), 0.0)
    dscore = np.zeros_like(a)
    mask = y > 1
    if np.any(mask):
        b = _log1m_qpow(y[mask] - 1, q)
        d = c * (b - a[mask])
        ed = np.exp(d)
        em1 = np.expm1(d)
        with np.errstate(divide="ignore", invalid="ignore"):
            score[mask] = (a[mask] - b * ed) / -em1
            dscore[mask] = -((a[mask] - b) / em1) ** 2 * ed
    return float((score * counts).sum()), float((dscore * counts).sum())


# Newton's relative step tolerance and iteration limit for each root
_GEOM_TOL, _GEOM_MAX_ITER = 1e-9, 50
_KTH_TOL, _KTH_MAX_ITER = 1e-12, 100


def solve_geometric_mle(slots: np.ndarray, q: float) -> tuple[float, float]:
    """Newton-Raphson on the geometric score equation.

    Starts from the consistent estimator log(r/m)/log(1-q**n) with
    n = floor(log_q(1/2)) and r = #{y_j <= n}; when r is 0 or m that
    initializer is undefined and the exponential-approximation estimator
    seeds the iteration instead.  Returns (root, initializer).
    """
    m = len(slots)
    y, counts = np.unique(slots, return_counts=True)
    y = y.astype(np.float64)
    counts = counts.astype(np.float64)

    n = math.floor(_LOG_HALF / math.log(q))
    r = float(counts[y <= n].sum())
    if r in (0.0, float(m)):
        c0 = _exponential_approximation(m, float((_log1m_qpow(y, q) * counts).sum()))
    else:
        c0 = math.log(r / m) / math.log1p(-(q ** n))
    c0 = max(c0, 1e-12)

    if y.max() == 1.0:
        # score is the constant m*log(1-q): no interior root, the likelihood
        # is maximised at the small-c boundary; report the exponential-
        # approximation value
        return -1.0 / math.log1p(-q), c0

    c = c0
    for _ in range(_GEOM_MAX_ITER):
        s, ds = geometric_score(y, counts, q, c)
        if not (math.isfinite(s) and math.isfinite(ds)):
            raise EstimationNumericError(
                f"geometric score is not finite at c={c}: the likelihood term "
                f"of slot {y.max():.0f} leaves double range", initial=c0)
        if ds == 0.0:
            break
        step = s / ds
        nxt = c - step
        while nxt <= 0.0:
            step *= 0.5
            nxt = c - step
        if abs(nxt - c) < _GEOM_TOL * max(c, 1.0):
            return float(nxt), float(c0)
        c = nxt
    raise EstimationNumericError(
        f"geometric MLE did not converge within {_GEOM_MAX_ITER} iterations", initial=c0
    )


class KthOrderSketch(state.Sketch):
    """Keeps the k largest distinct uniform hash values per stream: the
    values e**-E of the k earliest first arrivals of distinct items in
    each register.

    Rows are stored descending with NaN padding; bit-exact duplicate hash
    values are kept once (set semantics), so repeated items never change
    the state.
    """

    params = ("k",)
    layout = state.Rows("topk", np.nan, "k", "top-k rows")
    version = 2

    def __init__(self, m: int, k: int, seed: int = 0):
        if not 1 <= k <= state.U16_MAX:
            raise ValueError(f"k must lie in [1, 2**16), got {k}")
        self.k = int(k)
        super().__init__(m, seed)

    def _absorb(self, keys: np.ndarray, d: np.ndarray) -> None:
        bound = _kth_reach(self.topk[:, -1])
        for _, regs, t in hashing.first_arrivals(keys, self.salt, self.m, bound):
            self.topk = self.layout.joined(self.topk, _register_rows(regs, np.exp(-t), self.m))[0]
            bound[:] = _kth_reach(self.topk[:, -1])

    def kth_values(self) -> np.ndarray:
        """The k-th largest value per stream; errors if any stream has fewer."""
        y = self.topk[:, self.k - 1]
        if np.any(np.isnan(y)):
            raise InsufficientDataError(
                f"some streams hold fewer than k={self.k} values (cardinality < k?)"
            )
        return y

    def estimate(self, level: float = 0.95) -> Estimate:
        c_hat = kth_root_estimate(self.kth_values(), self.k)
        se = c_hat / math.sqrt(self.k * self.m)
        return normal_estimate(c_hat, se, level, "max-kth", self.m)


def _kth_reach(kth: np.ndarray) -> np.ndarray:
    """The time from which a first arrival no longer enters each row, given
    its k-th value u (NaN while the row has room): -log u, padded down in u
    and up in time, or inf."""
    reach = -np.log(kth * (1.0 - _PAD)) * (1.0 + _PAD)
    return np.where(np.isnan(reach), np.inf, reach)


def _register_rows(regs: np.ndarray, values: np.ndarray, m: int) -> np.ndarray:
    """The values grouped into one NaN-padded row per register, unsorted."""
    order = np.argsort(regs, kind="stable")
    regs, values = regs[order], values[order]
    rank = np.arange(len(regs)) - np.searchsorted(regs, regs)
    rows = np.full((m, int(rank.max(initial=0)) + 1), np.nan)
    rows[regs, rank] = values
    return rows


def kth_closed_form(y: np.ndarray, k: int) -> float:
    """Large-c starting point k / (1 - prod(y_j)**(1/m)).  Every y_j at 1,
    the uniforms' supremum, raises DegenerateSketchError."""
    log_prod = float(np.log(y).sum())
    t = -math.expm1(log_prod / len(y))
    if t == 0.0:
        raise DegenerateSketchError("every k-th value at the supremum 1")
    return k / t


def kth_root_estimate(y: np.ndarray, k: int) -> float:
    """Unique root c > k-1 of  sum_j log y_j + m * sum_{i=1..k} 1/(c-i+1) = 0.

    The left side is strictly decreasing in c, from +inf at c -> (k-1)+ to
    the negative value sum log y_j; Newton from the closed-form start (which
    always exceeds k) converges monotonically in practice and is damped
    against overshooting the pole.
    """
    y = np.asarray(y, dtype=np.float64)
    m = len(y)
    log_prod = float(np.log(y).sum())
    offsets = np.arange(k, dtype=np.float64) - (k - 1)  # c-i+1 = c + offsets
    c = kth_closed_form(y, k)
    for _ in range(_KTH_MAX_ITER):
        denom = c + offsets
        f = log_prod + m * float((1.0 / denom).sum())
        df = -m * float((1.0 / denom**2).sum())
        step = f / df
        nxt = c - step
        while nxt <= k - 1:
            step *= 0.5
            nxt = c - step
        if abs(nxt - c) < _KTH_TOL * max(c, 1.0):
            return float(nxt)
        c = nxt
    raise EstimationNumericError("k-th order-statistic root search did not converge",
                                 initial=kth_closed_form(y, k))


def combine_kth(c1: float, m1: int, c2: float, m2: int, k: int) -> float:
    """Pool two k-th order-statistic estimates of the same cardinality.

    Returns k / (1 - [(1-k/c1)**m1 * (1-k/c2)**m2]**(1/(m1+m2))), the
    large-c approximation to re-solving the score equation on the combined
    sample of m1+m2 streams.  A sample with m_i = 0 is ignored, so pooling
    with an empty side returns the other estimate unchanged.
    """
    if m1 < 0 or m2 < 0 or m1 + m2 < 1:
        raise ValueError("need m1, m2 >= 0 with m1 + m2 >= 1")
    log_terms = 0.0
    for c_i, m_i in ((c1, m1), (c2, m2)):
        if m_i == 0:
            continue
        if c_i <= k:
            raise ValueError(f"estimates must exceed k={k}, got {c_i}")
        log_terms += m_i * math.log1p(-k / c_i)
    return k / -math.expm1(log_terms / (m1 + m2))


class BernoulliSketch(state.Sketch):
    """m-bit sketch: bit j is set once any item's j-th uniform falls below
    p, that is, once a first arrival in register j comes before -log(1-p).

    Choose p about 1.594/c0 for a prior guess c0 of the cardinality; the
    estimator stays within 25% relative efficiency of continuous hashing
    for true c anywhere in (0.3*c0, 4.3*c0).
    """

    params = ("p",)
    layout = state.Bits("bits", "<u1", 1, "bernoulli bits")
    version = 2

    def __init__(self, m: int, p: float, seed: int = 0):
        if not 0.0 < p < 1.0:
            raise ValueError("p must lie strictly inside (0,1)")
        self.p = float(p)
        super().__init__(m, seed)

    def _absorb(self, keys: np.ndarray, d: np.ndarray) -> None:
        # bit j is set by a first arrival before -log(1 - p), once
        reach = -math.log1p(-self.p)
        earliest = _first_arrival_minima(self, keys, np.where(self.bits, 0.0, reach))
        np.maximum(self.bits, (earliest < reach).astype(np.uint8), out=self.bits)

    def ones(self) -> int:
        return int(self.bits.sum())

    def estimate(self, level: float = 0.95) -> Estimate:
        return bernoulli_estimate(self.ones(), self.m, self.p, level)

    def state_bytes(self) -> int:
        return (self.m + 7) // 8


def bernoulli_fisher_info(c: float, m: int, p: float) -> float:
    """Fisher information m * q**c * log(q)**2 / (1 - q**c), q = 1-p."""
    logq = math.log1p(-p)
    qc = math.exp(c * logq)
    return m * qc * logq * logq / (1.0 - qc)


def bernoulli_estimate(ones: int, m: int, p: float, level: float = 0.95) -> Estimate:
    """MLE log(1 - ones/m)/log(1-p) with Fisher-information standard error.

    ones == 0 returns the boundary estimate 0 with a one-sided upper bound;
    ones == m raises SaturatedSketchError carrying the exact one-sided lower
    confidence bound (the MLE is infinite).
    """
    if not 0 <= ones <= m:
        raise ValueError(f"ones must lie in [0, m], got {ones}")
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie strictly inside (0,1)")
    logq = math.log1p(-p)
    if ones == m:
        # smallest c with P(all bits set | c) >= 1-level
        lower = math.log(-math.expm1(math.log1p(-level) / m)) / logq
        raise SaturatedSketchError(
            "all bits set; cardinality unbounded above at this p",
            lower_bound=lower, level=level,
        )
    if ones == 0:
        # largest c with P(no bit set | c) >= 1-level
        upper = math.log1p(-level) / (m * logq)
        return Estimate(0.0, 0.0, (0.0, upper), level, "bernoulli", m)
    c_hat = math.log1p(-ones / m) / logq
    info = bernoulli_fisher_info(c_hat, m, p)
    if not info > 0.0:
        raise EstimationNumericError(f"Fisher information underflows at p={p}")
    se = 1.0 / math.sqrt(info)
    return normal_estimate(c_hat, se, level, "bernoulli", m)


def merge(*sketches):
    """Fold any number of same-configuration sketches into one."""
    if not sketches:
        raise ValueError("nothing to merge")
    out = sketches[0]
    for other in sketches[1:]:
        out = out.merge(other)
    return out
