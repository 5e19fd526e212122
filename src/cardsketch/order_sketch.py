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
- top-k: the k smallest first arrivals, stored as e**-E, descending; each
  chunk of arrivals joins only the rows it reaches (``state.Rows.absorbed``).

A batch's repeated keys are folded first, with one sort (``_distinct``):
a repeat has its key's arrivals, so it adds nothing to any slot, and
ingest cost follows the distinct keys, not the rows.  Each sketch tells
the arrivals, per register, the time from which an arrival can no longer
change its slot, so an item stops after an arrival or two once the slots
have filled.  Thresholds read back from stored values (the top-k sketch's
-log u, the geometric -log(1 - q**y)) are padded upward, so an item may be
followed too long, never dropped early.

The hash scheme is recorded as the sketch's ``version``: 2 for these
arrivals.  A state decoded from a version-1 document (one hash column per
stream) keeps version 1; it can be estimated and merged with other
version-1 states, and refuses new items.

Each class estimates a stack of states, one row per sketch, with its
classmethod ``estimates`` (see ``estimate``); each accessor or function
here that reads one sketch is a one-row call of it or its steps.  The
geometric MLE and the k-th root are solved for all rows at once by one
damped Newton driver, ``_newton``.

Sketches are single-writer.  To ingest concurrently, shard the stream, build
one sketch per shard and merge; estimation is read-only and safe to call
concurrently once writers have stopped.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from . import hashing, state
from .errors import (
    DegenerateSketchError,
    EmptySketchError,
    EstimationNumericError,
    InsufficientDataError,
    SaturatedSketchError,
    SketchError,
)
from .estimate import (Estimate, Estimates, block_row, fail, gamma_estimates,
                       normal_estimates, normal_interval, one_row, _level_failed)
from .state import merge  # noqa: F401  (defined with the sketch base, importable here)

_LOG_HALF = math.log(0.5)


# relative padding of the thresholds read back from stored values, applied
# both to the stored value and to the time: far above the few ulps that
# evaluating either loses
_PAD = 2.0**-40

# the largest q: a hashed first arrival is at least -log(1 - 2**-53) / m,
# about 2**-85 for m < 2**32, so a geometric slot is at most
# 85 log 2 / -log q, about 3.95e9 here, below the u32 maximum 2**32 - 1
_Q_MAX = 1.0 - 2.0**-26


def _distinct(keys: np.ndarray) -> np.ndarray:
    """The distinct keys of a batch, ascending.  A repeated key has its
    first copy's arrivals, so it cannot change a state, and folding the
    repeats before ``hashing.first_arrivals`` makes ingest cost follow the
    distinct keys: a heavy hitter's copies no longer crowd every chunk."""
    keys = np.sort(keys)
    # np.compress, as a boolean index takes about four times as long on a
    # mask of mostly distinct keys
    return np.compress(hashing.run_starts(keys), keys)


def _first_arrival_minima(sk, keys: np.ndarray, reach: np.ndarray) -> np.ndarray:
    """The earliest first arrival of the distinct keys in each of the
    sketch's registers, inf where none came before reach, the time from
    which an arrival in that register no longer changes the state."""
    bound = np.array(reach, dtype=np.float64)
    lowest = np.full(sk.m, np.inf)
    for _, regs, t in hashing.first_arrivals(_distinct(keys), sk.salt, sk.m, bound):
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

    def pivot_sum(self) -> float:
        """S = -sum_j log F(M_j); c*S is a Gamma(m,1) pivot."""
        with np.errstate(over="ignore"):  # gamma_estimates refuses an infinite sum
            return float(one_row(_pivot_sums, self.slots))

    @classmethod
    def estimates(cls, slots, level: float, kind: str) -> Estimates:
        """MLEs m/S with the exact Gamma-pivot confidence interval, one per
        row of the (sketches, m) slots."""
        errors = [None] * len(slots)
        with np.errstate(all="ignore"):
            s = _pivot_sums(slots, errors)
            return gamma_estimates(s, slots.shape[1], level, f"max-{kind}", errors, lambda i: (
                DegenerateSketchError("all slots at the distribution supremum")
                if s[i] <= 0.0 else None))


def _filled(slots: np.ndarray, empty, errors: list) -> np.ndarray:
    """The rows of slots, each holding the empty value given its error."""
    fail(errors, [v == empty for v in np.minimum.reduce(slots, axis=1).tolist()],
         lambda i: EmptySketchError("some hash streams saw no items"))
    return slots


def _pivot_sums(slots: np.ndarray, errors: list) -> np.ndarray:
    """-sum(slots) of each row of continuous slots, checked filled: only an
    empty slot, -inf, or an overflow makes a row's sum +inf."""
    s = -np.add.reduce(slots, axis=1)
    fail(errors, [v == math.inf for v in s.tolist()], lambda i: EmptySketchError(
        "some hash streams saw no items") if np.isneginf(slots[i]).any() else None)
    return s


class GeometricMaxSketch(state.Sketch):
    """Max sketch hashing to the geometric law with CDF 1 - q**x on x=1,2,...

    Slots are small unsigned integers (the expected maximum grows like
    log(c), so 32 bits cover any feasible cardinality); 0 marks empty.
    """

    params = ("q",)
    layout = state.Vector("slots", "<u4", state.U32_MAX, "geometric slots")
    version = 2

    def __init__(self, m: int, q: float, seed: int = 0):
        self.q = _checked_q(q)
        super().__init__(m, seed)

    def _absorb(self, keys: np.ndarray, d: np.ndarray) -> None:
        # an arrival at t raises slot y exactly when 1 - e**-t < q**y,
        # padded up in q**y (inf if that reaches 1, as for an empty slot)
        qy = np.minimum(self.q ** self.slots.astype(np.float64) * (1.0 + _PAD), 1.0)
        with np.errstate(divide="ignore"):
            reach = -np.log1p(-qy) * (1.0 + _PAD)
        earliest = _first_arrival_minima(self, keys, reach)
        hit = earliest < reach
        # a hashed slot cannot pass the u32 maximum (see _Q_MAX)
        slots = geometric_slot_rows(-earliest[hit][None], self.q, [None])[0]
        self.slots[hit] = np.maximum(self.slots[hit], slots)

    @classmethod
    def estimates(cls, slots, level: float, q: float) -> Estimates:
        """Maximum-likelihood estimates, one per row of the (sketches, m)
        slots, via the score equation of the max-of-c-geometrics law solved
        by damped Newton-Raphson, with Fisher-information standard errors."""
        errors = [None] * len(slots)
        from .inference import psi_infinity  # loaded by max-geom estimates alone
        m = slots.shape[1]
        with np.errstate(all="ignore"):
            c_hat, _ = geometric_mles(_filled(slots, 0, errors), q, errors)
            return normal_estimates(c_hat, m * psi_infinity(q), level, "max-geometric", m, errors)

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
        y = one_row(_filled, self.slots, empty=0).astype(np.float64)
        if continuity_correction:
            y = y - 0.5
        return _exponential_approximation(self.m, float(_log1m_qpow(y, self.q).sum()))


def _checked_q(q) -> float:
    """q as a float, or the ValueError GeometricMaxSketch refuses it with."""
    if not 0.0 < q <= _Q_MAX:
        raise ValueError(f"q must lie in (0, 1 - 2**-26], got {q}")
    # the max-geom standard error's psi_infinity(q) takes exp(-2 log q),
    # which overflows unless log q >= -log(DBL_MAX)/2, q about 7.46e-155
    if math.log(q) < -0.5 * math.log(sys.float_info.max):
        raise ValueError(f"q must lie at or above about 7.46e-155, got {q}")
    return float(q)


def geometric_slots(log_u: np.ndarray, q: float) -> np.ndarray:
    """The geometric slots ceil(log(1 - u) / log q), at least 1, of the
    uniforms u given by their logs: a monotone rounding of the continuous
    slot, so max and rounding commute exactly.

    Refuses a q that GeometricMaxSketch refuses, with its ValueError.
    Raises SaturatedSketchError if a slot passes the u32 maximum.  A
    hashed slot cannot (see _Q_MAX), but a sampled continuous one can:
    log u = log(U) / c comes as close to 0 as c is large.
    """
    return one_row(geometric_slot_rows, log_u, q=_checked_q(q))


def geometric_slot_rows(log_u: np.ndarray, q: float, errors: list) -> np.ndarray:
    """``geometric_slots`` of each row of log_u, with 1 in a row that
    passes the u32 maximum and its SaturatedSketchError in errors."""
    y = np.ceil(np.log(-np.expm1(log_u)) / math.log(q))
    top = y.max(axis=tuple(range(1, y.ndim)), initial=0.0)
    over = [v > state.U32_MAX for v in top.tolist()]
    fail(errors, over, lambda i: SaturatedSketchError(
        f"a geometric slot of {top[i]:.4g} passes the u32 maximum at q = {q}"))
    y[over] = 1.0
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


# Newton's relative step tolerance and iteration limit for each root
_GEOM_TOL, _GEOM_MAX_ITER = 1e-9, 50
_KTH_TOL, _KTH_MAX_ITER = 1e-12, 100


def solve_geometric_mle(slots: np.ndarray, q: float) -> tuple[float, float]:
    """Newton-Raphson on the geometric score equation: a one-row
    ``geometric_mles``.  Returns (root, initializer).  Refuses a q that
    GeometricMaxSketch refuses, with its ValueError, and a slot that is
    not a whole number with ValueError; a slot of 0 marks an empty stream
    and raises EmptySketchError, as the sketch's estimate does."""
    q = _checked_q(q)
    slots = np.asarray(slots)
    y = slots.astype(np.float64)  # a slot past int64 is an object array
    bad = ~((y >= 0.0) & (y < math.inf) & (y == np.floor(y)))
    if bad.any():
        raise ValueError(f"slots must be whole numbers >= 1 (0 for an empty stream), "
                         f"got {slots[bad][0]}")
    errors = [None]
    with np.errstate(all="ignore"):
        roots, initials = geometric_mles(_filled(y[None], 0, errors), q, errors)
    return float(block_row(roots, errors)), float(initials[0])


def geometric_mles(slots: np.ndarray, q: float, errors: list):
    """Roots of the score equation of the max-of-c-geometrics likelihood,
    one per row of the (sketches, m) slots, and their initializers.

    Each row starts from the consistent estimator log(r/m)/log(1-q**n)
    with n = floor(log_q(1/2)) and r = #{y_j <= n}; when r is 0 or m that
    initializer is undefined and the exponential-approximation estimator
    seeds the iteration instead.  A row of slots all 1 has no interior
    root: the likelihood is maximised at the small-c boundary, and the row
    gets the exponential-approximation value -1/log(1-q).

    The score is a sum over a row's distinct slot values y, each counted
    as often as it occurs, of
        (a*A**c - b*B**c) / (A**c - B**c),  A = 1-q**y, B = 1-q**(y-1),
        a = log A, b = log B,
    evaluated as (a - b*e**d) / (-expm1(d)) with d = c*(b-a) <= 0, so terms
    where A**c or B**c underflow stay finite; y = 1 contributes the
    constant log(1-q).  Its derivative in c is -((a-b) / expm1(d))**2 * e**d:
    the ratio is squared, not (a-b) and expm1(d) apart, which underflow
    once q**y < ~1e-154.  The ratio is at most about max(1/c, 1), so the
    derivative is finite wherever the score is at every c the steps reach.
    A slot so large that its term leaves double range gives a NaN score,
    and its row an EstimationNumericError.
    """
    m = slots.shape[1]
    y, counts, distinct = _distinct_rows(slots)
    n = math.floor(_LOG_HALF / math.log(q))
    log_1mq = math.log1p(-q)
    one = y == 1.0
    groups = _length_groups(distinct)
    log_s = _row_sums(_log1m_qpow(y, q) * counts, groups).tolist()
    # y = 1 (and the padding) reads as slot 2 in the terms below, which
    # take it with weight 0; it adds the constant log(1-q) instead
    safe = y + one
    a = _log1m_qpow(safe, q)
    b = _log1m_qpow(safe - 1.0, q)
    b_minus_a, a_minus_b = b - a, a - b
    weight = counts * ~one
    constant = log_1mq * counts * one
    r = np.add.reduce(slots <= n, axis=1).tolist()
    top = np.maximum.reduce(y, axis=1).tolist()

    # the starts stay on scalar math: numpy's log, log1p and expm1 may
    # differ from libm's in the last bit (on AVX-512 builds, on about one
    # value in 600 to 20,000 each), and a start an ulp away can end its
    # row's iteration on a different root within the tolerance
    c0, c = [], []
    for i, (ri, li) in enumerate(zip(r, log_s)):
        try:
            if errors[i] is not None:  # an empty stream has none at n = 0
                start = math.nan
            elif ri in (0, m):
                start = _exponential_approximation(m, li)
            else:
                start = math.log(ri / m) / math.log1p(-(q ** n))
        except EstimationNumericError as exc:
            errors[i] = exc
            start = math.nan
        start = max(start, 1e-12)
        c0.append(start)
        c.append(-1.0 / log_1mq if top[i] == 1.0 else start)
    live = [i for i in range(len(c)) if errors[i] is None and top[i] > 1.0]
    rows = len(c)
    groups = _length_groups(np.concatenate([distinct, distinct]))
    terms = np.empty((2 * rows, y.shape[1]))
    score, slope = terms[:rows], terms[rows:]

    def step(c):
        d = c[:, None] * b_minus_a
        ed = np.exp(d)
        em1 = np.expm1(d)
        # (a - b e**d) / -expm1(d), negated twice exactly
        np.multiply(b, ed, out=score)
        np.subtract(score, a, out=score)
        np.divide(score, em1, out=score)
        np.multiply(score, weight, out=score)
        np.add(score, constant, out=score)
        # minus the derivative, negated back after its sum
        np.divide(a_minus_b, em1, out=slope)
        np.multiply(slope, slope, out=slope)
        np.multiply(slope, ed, out=slope)
        np.multiply(slope, weight, out=slope)
        sums = _row_sums(terms, groups)
        return sums[:rows] / -sums[rows:]

    c0 = np.array(c0)
    return _newton(np.array(c), c0, step, 0.0, _GEOM_TOL, _GEOM_MAX_ITER,
                   np.array(live, dtype=np.intp), errors, "geometric MLE"), c0


def _newton(c, c0, step, floor: float, tol: float, max_iter: int, live, errors: list,
            why: str) -> np.ndarray:
    """Damped Newton, in place, on the rows live (indices) of c, started
    from c0.  step(c) gives f/f' at every row; each live row moves to
    c - step, the step halved until the result lies above floor, and
    stops once it moves less than tol * max(c, 1).  A row whose step is
    not finite, or that still moves after max_iter steps, gets an
    EstimationNumericError naming why, with c0 as its initial."""
    floor, tol, one = np.array(floor), np.array(tol), np.array(1.0)  # 0-d: no float to convert
    for _ in range(max_iter):
        if not len(live):
            return c
        at = c[live]
        s = step(c)[live]
        nxt = at - s
        finite = np.isfinite(s)
        if np.count_nonzero(finite & (nxt > floor)) < len(live):
            for i in live[~finite].tolist():
                errors[i] = EstimationNumericError(
                    f"{why} Newton step is not finite at c={c[i]}", initial=float(c0[i]))
            live, at, s, nxt = live[finite], at[finite], s[finite], nxt[finite]
            while np.count_nonzero(low := nxt <= floor):
                s[low] *= 0.5
                nxt[low] = at[low] - s[low]
        c[live] = nxt
        live = live[np.abs(nxt - at) >= tol * np.maximum(at, one)]
    for i in live.tolist():
        errors[i] = EstimationNumericError(
            f"{why} did not converge within {max_iter} iterations", initial=float(c0[i]))
    return c


def _distinct_rows(slots: np.ndarray):
    """Each row's distinct values, ascending, as float64, with how often
    each occurs, packed to the left of a (rows, most distinct) array (the
    padding is 1 with count 0), and the number of distinct values per row."""
    rows, m = slots.shape
    srt = np.sort(slots, axis=1)
    new = np.empty(srt.shape, dtype=bool)
    new[:, 0] = True
    np.not_equal(srt[:, 1:], srt[:, :-1], out=new[:, 1:])
    starts = new.ravel().nonzero()[0]  # each row starts a run, so no run spans two
    distinct = np.bincount(starts // m, minlength=rows)
    # each row's runs packed to the left, where a boolean index fills them in order
    filled = np.arange(max(distinct.tolist())) < distinct[:, None]
    y = np.ones(filled.shape)
    y[filled] = srt.ravel()[starts]
    counts = np.zeros(filled.shape)
    counts[filled] = np.concatenate((starts[1:], [srt.size])) - starts  # np.diff(append=) is slower
    return y, counts, distinct


def _length_groups(n: np.ndarray) -> list:
    """(rows, k) for each distinct value k of n, ascending, rows the indices
    i, ascending, with n[i] == k; a slice of every row when n holds one
    value."""
    lengths = n.tolist()
    ks = sorted(set(lengths))
    if len(ks) == 1:
        return [(slice(None), ks[0])]
    return [(np.flatnonzero(n == k), k) for k in ks]


def _row_sums(v: np.ndarray, groups: list) -> np.ndarray:
    """sum(v[i, :k]) for each row i of the (rows, k) ``_length_groups``:
    one numpy sum per length, over the rows of that length, which
    sums each row as a one-row sum does (its first value plus the pairwise
    sum of the rest), so the values are bit for bit those of per-row sums."""
    out = np.empty(len(v))
    for rows, k in groups:
        out[rows] = np.add.reduce(v[rows, :k], axis=1)
    return out


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
        self.k = _checked_k(k)
        super().__init__(m, seed)

    def _absorb(self, keys: np.ndarray, d: np.ndarray) -> None:
        bound = _kth_reach(self.topk[:, -1])
        for _, regs, t in hashing.first_arrivals(_distinct(keys), self.salt, self.m, bound):
            self.layout.absorbed(self.topk, regs, np.exp(-t))
            bound[:] = _kth_reach(self.topk[:, -1])

    def kth_values(self) -> np.ndarray:
        """The k-th largest value per stream; errors if any stream has fewer."""
        return one_row(_kth_rows, self.topk, k=self.k)

    @classmethod
    def estimates(cls, topk, level: float, k: int) -> Estimates:
        """Root estimates (``kth_roots``), one per (m, k) matrix of the
        (sketches, m, k) stack, with standard errors c_hat / sqrt(k m)."""
        errors = [None] * len(topk)
        m = topk.shape[1]
        with np.errstate(all="ignore"):
            c_hat = kth_roots(_kth_rows(topk, k, errors), k, errors)
            return normal_estimates(c_hat, k * m, level, "max-kth", m, errors)


def _checked_k(k) -> int:
    """k as an int, or the ValueError KthOrderSketch refuses it with."""
    if not 1 <= k <= state.U16_MAX:
        raise ValueError(f"k must lie in [1, 2**16), got {k}")
    return int(k)


def _kth_rows(topk: np.ndarray, k: int, errors: list) -> np.ndarray:
    """The k-th values of each (m, k) matrix of a stack, checked present."""
    y = topk[:, :, k - 1]
    # values lie in (0, 1], so a row sums to NaN exactly when it holds NaN padding
    fail(errors, [math.isnan(v) for v in np.add.reduce(y, axis=1).tolist()],
         lambda i: InsufficientDataError(
             f"some streams hold fewer than k={k} values (cardinality < k?)"))
    return y


def _kth_reach(kth: np.ndarray) -> np.ndarray:
    """The time from which a first arrival no longer enters each row, given
    its k-th value u (NaN while the row has room): -log u, padded down in u
    and up in time, or inf."""
    reach = -np.log(kth * (1.0 - _PAD)) * (1.0 + _PAD)
    return np.where(np.isnan(reach), np.inf, reach)


def kth_closed_form(y: np.ndarray, k: int) -> float:
    """Large-c starting point k / (1 - prod(y_j)**(1/m)).  Every y_j at 1,
    the uniforms' supremum, raises DegenerateSketchError; a k that
    KthOrderSketch refuses, its ValueError."""
    k = _checked_k(k)
    y = np.asarray(y, dtype=np.float64)
    with np.errstate(all="ignore"):  # log(0) = -inf; a negative y's NaN is refused
        return float(one_row(_kth_starts, np.log(y).sum(), m=len(y), k=k))


def _kth_starts(log_prod: np.ndarray, m: int, k: int, errors: list) -> np.ndarray:
    """``kth_closed_form`` per row, from the rows' sums of log y_j; a start
    not above the pole k - 1 gets an EstimationNumericError."""
    t = [-math.expm1(v / m) for v in log_prod.tolist()]  # on math: see geometric_mles
    fail(errors, [v == 0.0 for v in t],
         lambda i: DegenerateSketchError("every k-th value at the supremum 1"))
    c0 = k / np.array(t)
    # a k-th value above 1, or NaN, puts the start at or below the pole
    fail(errors, [not v > k - 1 for v in c0.tolist()], lambda i: EstimationNumericError(
        f"k-th root start {c0[i]} is not above k - 1 = {k - 1}: every k-th value "
        "must lie in (0, 1)", initial=float(c0[i])))
    return c0


def kth_root_estimate(y: np.ndarray, k: int) -> float:
    """Unique root c > k-1 of  sum_j log y_j + m * sum_{i=1..k} 1/(c-i+1) = 0:
    a one-row ``kth_roots``.  Refuses a k that KthOrderSketch refuses, with
    its ValueError."""
    k = _checked_k(k)
    with np.errstate(all="ignore"):
        return float(one_row(kth_roots, np.asarray(y, dtype=np.float64), k=k))


def kth_roots(y: np.ndarray, k: int, errors: list) -> np.ndarray:
    """``kth_root_estimate`` of each row of the (sketches, m) k-th values.

    The left side is strictly decreasing in c, from +inf at c -> (k-1)+ to
    the negative value sum log y_j; Newton from the closed-form start (which
    always exceeds k) converges monotonically in practice and is damped
    against overshooting the pole.
    """
    m = y.shape[1]
    offsets = np.arange(k, dtype=np.float64) - (k - 1)  # c-i+1 = c + offsets
    log_prod = np.add.reduce(np.log(y), axis=1)
    c0 = _kth_starts(log_prod, m, k, errors)
    live = np.array([i for i, e in enumerate(errors) if e is None], dtype=np.intp)

    def step(c):
        denom = c[:, None] + offsets
        f = log_prod + m * np.add.reduce(1.0 / denom, axis=1)
        df = -m * np.add.reduce(1.0 / denom**2, axis=1)
        return f / df

    return _newton(c0.copy(), c0, step, k - 1, _KTH_TOL, _KTH_MAX_ITER, live, errors,
                   "k-th order-statistic root")


def combine_kth(c1: float, m1: int, c2: float, m2: int, k: int) -> float:
    """Pool two k-th order-statistic estimates of the same cardinality.

    Returns k / (1 - [(1-k/c1)**m1 * (1-k/c2)**m2]**(1/(m1+m2))), the
    large-c approximation to re-solving the score equation on the combined
    sample of m1+m2 streams.  A sample with m_i = 0 is ignored, so pooling
    with an empty side returns the other estimate unchanged.

    A k that KthOrderSketch refuses, sizes that are not finite m1, m2 >= 0
    with m1 + m2 >= 1, or an estimate not above k or not finite raises
    ValueError; a pooled estimate past double range raises
    EstimationNumericError.
    """
    k = _checked_k(k)
    if not (0 <= m1 < math.inf and 0 <= m2 < math.inf and m1 + m2 >= 1):
        raise ValueError("need finite m1, m2 >= 0 with m1 + m2 >= 1")
    log_terms = 0.0
    for c_i, m_i in ((c1, m1), (c2, m2)):
        if m_i == 0:
            continue
        if not k < c_i < math.inf:
            raise ValueError(f"estimates must be finite and exceed k={k}, got {c_i}")
        log_terms += m_i * math.log1p(-k / c_i)
    t = -math.expm1(log_terms / (m1 + m2))
    c = k / t if t else math.inf
    if not c < math.inf:
        raise EstimationNumericError(f"the pooled estimate of {c1} and {c2} exceeds double range")
    return c


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

    @classmethod
    def estimates(cls, bits, level: float, p: float) -> Estimates:
        """``bernoulli_estimates`` of the set bits of each row of the
        (sketches, m) bits."""
        return bernoulli_estimates(np.add.reduce(bits, axis=1), bits.shape[1], p, level)

    def state_bytes(self) -> int:
        return (self.m + 7) // 8


def bernoulli_fisher_info(c: float, m: int, p: float) -> float:
    """Fisher information m * q**c * log(q)**2 / (1 - q**c), q = 1-p."""
    logq = math.log1p(-p)
    qc = math.exp(c * logq)
    return m * qc * logq * logq / (1.0 - qc)


def bernoulli_estimate(ones: int, m: int, p: float, level: float = 0.95) -> Estimate:
    """MLE log(1 - ones/m)/log(1-p) with Fisher-information standard error:
    a one-row ``bernoulli_estimates``.

    ones == 0 returns the boundary estimate 0 with a one-sided upper bound;
    ones == m raises SaturatedSketchError carrying the exact one-sided lower
    confidence bound (the MLE is infinite).
    """
    return bernoulli_estimates(np.array([ones]), m, p, level).estimate()


def bernoulli_estimates(ones, m: int, p: float, level: float = 0.95) -> Estimates:
    """``bernoulli_estimate`` of each count of set bits in ones.  A state is
    its count alone, so each distinct count is estimated once."""
    ones = np.asarray(ones)
    x = ones.astype(np.float64)  # a count past int64 is an object array
    bad = ~((x >= 0) & (x <= m) & (x == np.floor(x)))
    if np.count_nonzero(bad):  # a fraction of bad.any()'s cost on one count
        raise ValueError(f"ones must be a whole number in [0, m], got {ones[bad][0]}")
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie strictly inside (0,1)")
    counts = ones.tolist()
    errors = [None] * len(counts)
    if _level_failed(errors, level):  # before any count, saturated or empty
        return Estimates(np.full(len(counts), math.nan), errors, "bernoulli", m, level)
    found = {}  # count -> (c_hat, se, lo, hi) and None, or NaNs and its error
    for v in set(counts):
        try:
            found[v] = _bernoulli_count(v, m, p, level), None
        except (SketchError, ValueError) as exc:
            found[v] = (math.nan,) * 4, exc
    c_hat, se, lo, hi = np.array([found[v][0] for v in counts]).T
    errors = [found[v][1] for v in counts]
    return Estimates(c_hat, errors, "bernoulli", m, level, se, lo, hi)


def _bernoulli_count(ones: int, m: int, p: float, level: float) -> tuple:
    """The estimate, standard error and interval bounds at one count of set
    bits, or its error raised."""
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
        return 0.0, 0.0, 0.0, upper
    c_hat = math.log1p(-ones / m) / logq
    info = bernoulli_fisher_info(c_hat, m, p)
    if not info > 0.0:
        raise EstimationNumericError(f"Fisher information underflows at p={p}")
    se = 1.0 / math.sqrt(info)
    return c_hat, se, *normal_interval(c_hat, se, level)
