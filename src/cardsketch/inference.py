"""Closed-form statistical analysis: Fisher information, relative
efficiencies, optimal Bernoulli rate, Chernoff tail bounds and sketch
sizing.  Pure functions, safe for unrestricted concurrent use.

Each function refuses, before its arithmetic, an argument at which that
arithmetic would leave double range or lose the result, naming the bound
in its message; where the value is defined in double (are_bernoulli of a
large lambda), it is returned."""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

# Infinite sums are truncated when a term falls below this fraction of the
# running total; all the summands decay at least geometrically, so the
# discarded tail is of the same order as the last kept term.
_REL_TOL = 1e-15

_LOG_MAX = math.log(sys.float_info.max)
_FISHER_TERMS = 10**6  # the most slot values fisher_info_geometric sums
_FISHER_BLOCK = 1 << 16  # and the most it sums in one block


def _log_exp_diff(a: float, b: float) -> float:
    """log(e**a - e**b) for a > b, stable for tiny and huge gaps."""
    d = a - b
    if d > 1.0:
        return a + math.log1p(-math.exp(-d))
    return b + math.log(math.expm1(d))


@lru_cache(maxsize=None)
def psi_infinity(q: float) -> float:
    """Large-c limit of c**2 times the per-observation Fisher information
    for geometric hashing:

        sum_{k=-inf..inf} q**(2k) (1/q - 1)**2 / (exp(q**(k-1)) - exp(q**k))

    Equals the asymptotic relative efficiency of the geometric maximal-term
    estimator against continuous hashing; 0.9304 at q=1/2, 0.9985 at q=10/11,
    and -> 1 as q -> 1.  A q below about 7.46e-155, where the k = -1
    term's q**-2 overflows, raises OverflowError.

    Up to q = 0.999 the terms, some 35 / (1 - q), are summed.  Above it the
    sum is, to rounding, trigamma(1/(1-q)) / log(1/q) (by Poisson summation
    they differ by about exp(-pi**2 / log(1/q))), from the trigamma's series
    in e = 1 - q: 1 - (e**3/6 + e**4/4 + 7 e**5/30 + ...) / log(1/q).
    """
    if not 0.0 < q < 1.0:
        raise ValueError("q must lie strictly inside (0,1)")
    logq = math.log(q)
    if logq < -0.5 * _LOG_MAX:
        raise OverflowError(f"q must lie at or above about 7.46e-155, got {q}")
    if q > 0.999:
        e = 1.0 - q  # exact
        return 1.0 + e**3 * (1 / 6 + e * (1 / 4 + e * (7 / 30 + e / 6))) / logq
    log_coeff = 2.0 * math.log(1.0 / q - 1.0)

    def term(k: int) -> float:
        a = math.exp((k - 1) * logq)
        b = math.exp(k * logq)
        return math.exp(2 * k * logq + log_coeff - _log_exp_diff(a, b))

    total = term(0)
    for direction in (1, -1):
        for k in itertools.count(direction, direction):
            t = term(k)
            total += t
            if t < _REL_TOL * total:
                break
    return total


def fisher_info_geometric(c: int, q: float) -> float:
    """Per-observation Fisher information for the maximum of c geometric
    variates, summed over the support until terms fall below 1e-15 relative.

    c**2 * I(c) approaches psi_infinity(q) as c grows (through powers of
    1/q exactly; in between the value oscillates by a few parts in 1e4,
    which is reported, not suppressed).  At powers of 1/q, I is
    psi_infinity(q) / c**2 with psi_infinity at least 0.58, so it leaves
    double range past c = sqrt(DBL_MAX), about 1.34e154; the terms square
    powers of q, which underflow below q = 1/sqrt(DBL_MAX), about
    7.46e-155 (psi_infinity's bound).  Past either bound, ValueError.  In
    between powers of a small q, I may still underflow to 0.

    The sum stops only in the tail, past the slot y with log(1 - q**y) =
    -1/c where the score changes sign, some (log(c) + 35) / log(1/q) terms
    in; a q so close to 1 that this passes 10**6 terms raises ValueError.
    """
    if not c >= 1:
        raise ValueError("c must be >= 1")
    if math.log(c) > 0.5 * _LOG_MAX:
        raise ValueError(f"c must lie at or below about 1.34e154, got {c}")
    if not 0.0 < q < 1.0:
        raise ValueError("q must lie strictly inside (0,1)")
    logq = math.log(q)
    if logq < -0.5 * _LOG_MAX:
        raise ValueError(f"q must lie at or above about 7.46e-155, got {q}")
    cross = math.log(-math.expm1(-1.0 / c)) / logq
    if cross - 40.0 / logq > _FISHER_TERMS:
        raise ValueError(f"q = {q} is too close to 1 at c = {c}: the sum would need more "
                         f"than {_FISHER_TERMS} terms; psi_infinity(q) / c**2 is its limit")
    a = math.log1p(-math.exp(logq))
    total = a * a * math.exp(c * a)  # the slot y = 1
    # the terms of slots y = lo..hi-1 in one numpy block, summed in order
    # by cumsum: the first block about as long as the sum (the bound
    # above), each later one twice the last, up to _FISHER_BLOCK terms
    lo, size = 2, min(max(16, math.ceil(cross - 40.0 / logq)), _FISHER_BLOCK)
    while lo < _FISHER_TERMS:
        hi = min(lo + size, _FISHER_TERMS)
        logs = np.log1p(-np.exp(np.arange(lo - 1, hi) * logq))
        # from the first slot where q**(y-1) underflows, every term is 0
        n = np.count_nonzero(logs[:-1])
        a, b = logs[1:n + 1], logs[:n]
        d = c * (b - a)  # <= 0
        num = a - b * np.exp(d)
        term = np.exp(c * a) * num * num / -np.expm1(d)
        sums = np.cumsum(np.r_[total, term])[1:]
        stop = np.flatnonzero((term < _REL_TOL * sums) & (np.arange(lo, lo + n) > max(2, cross + 2)))
        if len(stop):
            return float(sums[stop[0]])
        total = float(sums[-1]) if n else total
        if lo + n < hi:
            break
        lo, size = hi, min(2 * size, _FISHER_BLOCK)
    return total


def are_bernoulli(lam: float) -> float:
    """Asymptotic relative efficiency lambda**2/(e**lambda - 1) of Bernoulli
    hashing at rate p = lambda/c, against continuous hashing.  Past
    log(DBL_MAX), where e**lambda overflows, it is lambda**2 e**-lambda in
    double, 0.0 from about 760 on."""
    if not lam > 0.0:
        raise ValueError("lambda must be positive")
    if lam > _LOG_MAX:
        return math.exp(2.0 * math.log(lam) - lam) if lam < math.inf else 0.0
    return lam * lam / math.expm1(lam)


_LAMBDA_TOL = 1e-13  # Newton's absolute step tolerance in optimal_lambda


def optimal_lambda() -> float:
    """Positive root of lambda = 2*(1 - e**-lambda), the rate maximising
    Bernoulli Fisher information; approximately 1.594."""
    lam = 1.6
    for _ in range(100):
        f = lam - 2.0 * -math.expm1(-lam)
        df = 1.0 - 2.0 * math.exp(-lam)
        nxt = lam - f / df
        if abs(nxt - lam) < _LAMBDA_TOL:
            return nxt
        lam = nxt
    return lam


@dataclass(frozen=True)
class TailBound:
    """Chernoff bounds on both relative-error tails of the maximal-term MLE.

    P(c_hat >= (1+eps)c) <= upper = exp(-m eps^2 / c1) and
    P(c_hat <= (1-eps)c) <= lower = exp(-m eps^2 / c2); c1 and c2 tend to 2
    as eps -> 0.
    """

    epsilon: float
    m: int
    upper: float
    lower: float
    c1: float
    c2: float


def chernoff_bounds(epsilon: float, m: int) -> TailBound:
    """Exponential tail bounds derived from the Gamma(m,1) pivot's moment
    generating function.

    The denominators of c1 and c2 are about eps**2/2, the difference of
    terms of size eps, so they keep about log2(eps) + 52 bits: an epsilon
    below 2**-26, where fewer than half the digits are left (and below
    about 5.5e-16 none, or a division by zero), raises ValueError.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie strictly inside (0,1)")
    if epsilon < 2.0**-26:
        raise ValueError(f"epsilon must lie at or above 2**-26 (about 1.49e-08), "
                         f"got {epsilon}")
    if not m >= 1:
        raise ValueError("m must be >= 1")
    e2 = epsilon * epsilon
    c1 = e2 * (1.0 + epsilon) / (-epsilon + (1.0 + epsilon) * math.log1p(epsilon))
    c2 = e2 * (1.0 - epsilon) / (epsilon + (1.0 - epsilon) * math.log1p(-epsilon))
    return TailBound(
        epsilon=epsilon,
        m=m,
        upper=math.exp(-m * e2 / c1),
        lower=math.exp(-m * e2 / c2),
        c1=c1,
        c2=c2,
    )


def required_m(epsilon: float, delta: float) -> int:
    """Smallest m whose Chernoff bounds put both tails at or below delta,
    giving an (epsilon, delta)-approximation with m = O(eps**-2).

    A subnormal delta, below 2**-1022, raises ValueError: the tails' exp
    keeps too few bits there for the search over m to end, and 1/delta
    can overflow.  So does an epsilon that ``chernoff_bounds`` refuses.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie strictly inside (0,1)")
    if not 0.0 < delta <= 1.0:
        raise ValueError("delta must lie in (0,1]")
    if delta < sys.float_info.min:
        raise ValueError(f"delta must lie at or above 2**-1022 (about 2.23e-308), got {delta}")
    b = chernoff_bounds(epsilon, 1)
    worst = max(b.c1, b.c2)
    m = max(1, math.ceil(worst * math.log(1.0 / delta) / (epsilon * epsilon)))

    def ok(mm: int) -> bool:
        t = chernoff_bounds(epsilon, mm)
        return max(t.upper, t.lower) <= delta

    while not ok(m):
        m += 1
    while m > 1 and ok(m - 1):
        m -= 1
    return m


def geometric_register_bits(c: float, q: float) -> int:
    """Bits per register for geometric hashing at cardinality about c.

    The expected slot maximum is log(c)/log(1/q) + O(1); two extra bits of
    headroom cover the fluctuation of the maximum.  An infinite c, whose
    log leaves double range, raises ValueError.
    """
    if not c >= 1:
        raise ValueError("c must be >= 1")
    if c == math.inf:
        raise ValueError(f"c must be finite, got {c}")
    if not 0.0 < q < 1.0:
        raise ValueError("q must lie strictly inside (0,1)")
    expected_max = max(1.0, math.log(max(c, 2.0)) / -math.log(q))
    return max(1, math.ceil(math.log2(expected_max))) + 2


def sketch_storage_bits(epsilon: float, delta: float, c: float, q: float) -> tuple[int, int]:
    """(m, total bits) for an (epsilon, delta)-approximation with geometric
    registers; total storage is O(eps**-2 * log log c)."""
    m = required_m(epsilon, delta)
    return m, m * geometric_register_bits(c, q)
