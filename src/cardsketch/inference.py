"""Closed-form statistical analysis: Fisher information, relative
efficiencies, optimal Bernoulli rate, Chernoff tail bounds and sketch
sizing.  Pure functions, safe for unrestricted concurrent use."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

# Infinite sums are truncated when a term falls below this fraction of the
# running total; all the summands decay at least geometrically, so the
# discarded tail is of the same order as the last kept term.
_REL_TOL = 1e-15


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
    and -> 1 as q -> 1.
    """
    if not 0.0 < q < 1.0:
        raise ValueError("q must lie strictly inside (0,1)")
    logq = math.log(q)
    log_coeff = 2.0 * math.log(1.0 / q - 1.0)

    def term(k: int) -> float:
        a = math.exp((k - 1) * logq)
        b = math.exp(k * logq)
        return math.exp(2 * k * logq + log_coeff - _log_exp_diff(a, b))

    total = term(0)
    for direction in (1, -1):
        k = direction
        while abs(k) < 100000:
            t = term(k)
            total += t
            if t < _REL_TOL * total:
                break
            k += direction
    return total


def fisher_info_geometric(c: int, q: float) -> float:
    """Per-observation Fisher information for the maximum of c geometric
    variates, summed over the support until terms fall below 1e-15 relative.

    c**2 * I(c) approaches psi_infinity(q) as c grows (through powers of
    1/q exactly; in between the value oscillates by a few parts in 1e4,
    which is reported, not suppressed).
    """
    if c < 1:
        raise ValueError("c must be >= 1")
    if not 0.0 < q < 1.0:
        raise ValueError("q must lie strictly inside (0,1)")
    logq = math.log(q)
    total = 0.0
    y = 1
    while y < 1000000:
        a = math.log1p(-math.exp(y * logq))
        if y == 1:
            term = a * a * math.exp(c * a)
        else:
            b = math.log1p(-math.exp((y - 1) * logq))
            d = c * (b - a)  # <= 0
            ed = math.exp(d)
            num = a - b * ed
            term = math.exp(c * a) * num * num / -math.expm1(d)
        total += term
        if y > 2 and term < _REL_TOL * total:
            break
        y += 1
    return total


def are_bernoulli(lam: float) -> float:
    """Asymptotic relative efficiency lambda**2/(e**lambda - 1) of Bernoulli
    hashing at rate p = lambda/c, against continuous hashing."""
    if lam <= 0.0:
        raise ValueError("lambda must be positive")
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
    generating function."""
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie strictly inside (0,1)")
    if m < 1:
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
    giving an (epsilon, delta)-approximation with m = O(eps**-2)."""
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie strictly inside (0,1)")
    if not 0.0 < delta <= 1.0:
        raise ValueError("delta must lie in (0,1]")
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
    headroom cover the fluctuation of the maximum.
    """
    if c < 1:
        raise ValueError("c must be >= 1")
    if not 0.0 < q < 1.0:
        raise ValueError("q must lie strictly inside (0,1)")
    expected_max = max(1.0, math.log(max(c, 2.0)) / -math.log(q))
    return max(1, math.ceil(math.log2(expected_max))) + 2


def sketch_storage_bits(epsilon: float, delta: float, c: float, q: float) -> tuple[int, int]:
    """(m, total bits) for an (epsilon, delta)-approximation with geometric
    registers; total storage is O(eps**-2 * log log c)."""
    m = required_m(epsilon, delta)
    return m, m * geometric_register_bits(c, q)
