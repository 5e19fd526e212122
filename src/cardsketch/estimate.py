"""Point estimates with standard errors and confidence intervals.

Every sketch type estimates a stack of states at once, one row per
sketch, into an ``Estimates``: per-row arrays of the estimate, its
standard error and interval bounds, and per row the exception that row's
one-row call raises, or None.  ``gamma_estimates`` and
``normal_estimates`` finish the two interval kinds for a stack, with
each quantile computed once per (m, level); a single ``Estimate`` is row
``i`` of such a block.  ``block_row`` reads a row, or raises its error;
per-row steps record errors with ``fail`` in a list their caller passes,
under the errstate their entry point opens (``one_row`` opens none).

The exact interval of the maximal-term sketches needs quantiles of the
Gamma(m) law, the inverse in x of the regularized incomplete gamma
P(m, x).  ``incomplete_gamma`` evaluates P by its power series below
x = m + 1 and Q = 1 - P by the finite Poisson sum of integer m above it,
both vectorized, the common factor x**m e**-x / m! taken through
Stirling's series so that it keeps its relative precision at large m.
``gamma_quantile`` solves P(m, x) = p by Halley steps from the
Wilson-Hilferty start; m = 1 has the closed form -log(1 - p).  Above
m = 2**20, where the sums would need some 8 sqrt(m) terms, the
Cornish-Fisher expansion of DiDonato & Morris (ACM TOMS 1986) is the
answer: its error falls as m**-3 and is below rounding there.  The
quantiles agree with a reference inverse to 1e-12 relative (most to the
last bit) for m up to 2**20 and levels up to 0.999 (tests/test_estimate.py);
where the two differ in the far tails of large m, a 30-digit evaluation
of P sides with these.  Each (m, p) is solved once and kept in a bounded
cache.  Normal quantiles come from ``statistics.NormalDist``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .errors import EstimationNumericError


@dataclass(frozen=True)
class Estimate:
    """A cardinality estimate with its uncertainty.

    ci is (lower, upper) at the given confidence level; estimator names the
    procedure that produced it; m is the sketch size used.  An estimate, a
    standard error or a bound that is not finite, or an interval that does
    not bracket the estimate, raises EstimationNumericError.
    """

    c_hat: float
    std_error: float
    ci: tuple[float, float]
    level: float
    estimator: str
    m: int

    def __post_init__(self):
        lo, hi = self.ci
        if not all(map(math.isfinite, (self.c_hat, self.std_error, lo, hi))):
            raise EstimationNumericError(
                f"{self.estimator} estimate {self.c_hat} (se {self.std_error}, "
                f"interval ({lo}, {hi})) is outside double range")
        if not (lo <= self.c_hat <= hi):
            raise EstimationNumericError(
                f"interval ({lo}, {hi}) does not bracket {self.c_hat}")

    def covers(self, c: float) -> bool:
        return self.ci[0] <= c <= self.ci[1]

    def to_dict(self) -> dict:
        return {
            "c_hat": self.c_hat,
            "std_error": self.std_error,
            "ci": [self.ci[0], self.ci[1]],
            "level": self.level,
            "estimator": self.estimator,
            "m": self.m,
        }


class Estimates:
    """Estimates of a stack of sketch states, one row per sketch.

    c_hat holds the estimates; std_error, ci_lo and ci_hi the standard
    errors and interval bounds, or None for an estimator with no interval
    (the projection's median); pivot the pivot sums S of a gamma-pivot
    estimator, else None.  errors holds, per row, None or the exception
    that row's one-row call raises; the values of such a row mean nothing.
    """

    def __init__(self, c_hat, errors: list, estimator: str, m: int, level=None,
                 std_error=None, ci_lo=None, ci_hi=None, pivot=None):
        self.c_hat = c_hat
        self.estimator = estimator
        self.m = m
        self.level = level
        self.std_error = std_error
        self.ci_lo = ci_lo
        self.ci_hi = ci_hi
        self.pivot = pivot
        self._errors = errors
        self._unchecked = ci_lo is not None  # rows whose Estimate may refuse them

    @property
    def errors(self) -> list:
        """Per row None or its exception, the Estimate checks included: a
        row whose values an Estimate refuses gets that EstimationNumericError."""
        if self._unchecked:
            self._unchecked = False
            c, se, lo, hi = self.c_hat, self.std_error, self.ci_lo, self.ci_hi
            good = np.isfinite(c) & np.isfinite(se) & np.isfinite(lo) & np.isfinite(hi)
            good &= lo <= c
            good &= c <= hi
            for i in (~good).nonzero()[0].tolist():
                if self._errors[i] is None:
                    try:
                        self.estimate(i)
                    except EstimationNumericError as exc:
                        self._errors[i] = exc
        return self._errors

    def value(self, i: int = 0) -> float:
        """Row i's estimate, or its exception raised."""
        return float(block_row(self.c_hat, self.errors, i))

    def estimate(self, i: int = 0) -> Estimate:
        """Row i as an Estimate, or its exception raised (the Estimate's
        own checks raise what ``errors`` records for them)."""
        return Estimate(float(block_row(self.c_hat, self._errors, i)), float(self.std_error[i]),
                        (float(self.ci_lo[i]), float(self.ci_hi[i])),
                        self.level, self.estimator, self.m)


def fail(errors: list, rows, error) -> None:
    """Give each row flagged in rows that has no error yet the exception
    error(i): a row keeps the first error its scalar path would meet."""
    for i in rows.nonzero()[0].tolist():
        if errors[i] is None:
            errors[i] = error(i)


def block_row(block, errors: list, i: int = 0):
    """Row i (by default of a one-row call) of a block, or its error raised."""
    if errors[i] is not None:
        raise errors[i]
    return block[i]


def one_row(step, *rows, **params):
    """The one-row call of a per-row step: its row, or that row's error raised."""
    errors = [None]
    return block_row(step(*(np.asarray(r)[None] for r in rows), errors=errors, **params), errors)


def _check_m(m) -> None:
    if not (m >= 1 and m % 1 == 0):
        raise ValueError(f"m must be a positive integer, got {m}")


def _check_level(level: float) -> None:
    if not 0.0 < level < 1.0:
        raise ValueError(f"confidence level must lie in (0,1), got {level}")


def _level_failed(errors: list, level: float) -> bool:
    """Whether level is refused; if so every row left gets the ValueError."""
    try:
        _check_level(level)
    except ValueError as exc:
        fail(errors, np.ones(len(errors), dtype=bool), lambda i: ValueError(*exc.args))
        return True
    return False


def gamma_pivot_interval(pivot_sum, m: int, level: float):
    """Exact interval for c when c * pivot_sum ~ Gamma(m, 1).

    pivot_sum is the observed sum S (or an array of them) with the property
    that c*S follows the unit-scale Gamma(m) law; the interval is
    [g_lo/S, g_hi/S] with g_p the Gamma(m) quantiles at (1-level)/2 and
    (1+level)/2.

    A level outside (0, 1), an m that is not a positive integer or a
    pivot sum that is not positive and finite raises ValueError; a pivot
    sum so small that a bound leaves double range, EstimationNumericError.
    """
    _check_level(level)
    _check_m(m)
    s = np.asarray(pivot_sum)
    low = float(s.min())
    if not (low > 0.0 and s.max() < math.inf):
        raise ValueError("pivot sum must be positive and finite")
    g_lo, g_hi = _gamma_bounds(1.0, m, level)  # the quantiles themselves
    if g_hi / low == math.inf:  # the largest bound, at the smallest sum
        raise EstimationNumericError(
            f"the interval at pivot sum {low}, m = {m}, level = {level} leaves double range")
    return g_lo / pivot_sum, g_hi / pivot_sum


def _gamma_bounds(pivot_sum, m: int, level: float):
    """``gamma_pivot_interval`` unchecked."""
    return (gamma_quantile(m, (1.0 - level) / 2.0) / pivot_sum,
            gamma_quantile(m, (1.0 + level) / 2.0) / pivot_sum)


@functools.lru_cache(maxsize=256)
def _normal_z(level: float) -> float:
    p = (1.0 + level) / 2.0  # rounds to 1 for a level within 2**-53 of 1
    return _NORMAL.inv_cdf(p) if p < 1.0 else math.inf


def normal_interval(c_hat, std_error, level: float):
    """Large-sample normal interval, clipped at zero; element-wise when
    c_hat and std_error are arrays."""
    _check_level(level)
    half = _normal_z(level) * std_error
    lo = c_hat - half
    if isinstance(lo, np.ndarray):
        return np.where(lo > 0.0, lo, 0.0), c_hat + half
    return max(0.0, lo), c_hat + half


def normal_estimates(c_hat, std_error, level: float, estimator: str, m: int,
                     errors: list) -> Estimates:
    """Rows c_hat with standard errors std_error and the clipped normal
    interval, under the caller's np.errstate: failed rows hold inf or NaN."""
    if _level_failed(errors, level):
        return Estimates(c_hat, errors, estimator, m, level)
    return Estimates(c_hat, errors, estimator, m, level, std_error,
                     *normal_interval(c_hat, std_error, level))


def gamma_estimates(pivot_sum, m: int, level: float, estimator: str,
                    errors: list) -> Estimates:
    """Rows of MLEs m/S with the exact Gamma-pivot interval and std error
    c_hat/sqrt(m), S the rows' pivot sums.  A pivot sum that underflowed
    to 0 or overflowed to inf gives its row an EstimationNumericError; under
    the caller's np.errstate, what else overflows the Estimate checks refuse."""
    fail(errors, ~((pivot_sum > 0.0) & (pivot_sum < math.inf)),
         lambda i: EstimationNumericError(
             f"pivot sum {float(pivot_sum[i])} is outside double range"))
    if _level_failed(errors, level):
        return Estimates(pivot_sum, errors, estimator, m, level, pivot=pivot_sum)
    c_hat = m / pivot_sum
    return Estimates(c_hat, errors, estimator, m, level, c_hat / math.sqrt(m),
                     *_gamma_bounds(pivot_sum, m, level), pivot=pivot_sum)


# -- the incomplete gamma function and its inverse -------------------------

_NORMAL = NormalDist()
_ASYMPTOTIC_M = 2**20  # above it gamma_quantile takes the Cornish-Fisher expansion
_SERIES_BLOCK = 1 << 16  # array elements per block of a sum, bounding its memory
_HALLEY_STEPS = 40


def _log_stirling(m: int) -> float:
    """log(m!) - m log(m) + m; from m = 20 on by Stirling's series, whose
    next term 1/(1188 m**9) is below 2e-15 there."""
    if m < 20:
        return math.lgamma(m + 1.0) - m * math.log(m) + m
    r = 1.0 / (m * m)
    return (0.5 * math.log(2.0 * math.pi * m)
            + (1 / 12 - r * (1 / 360 - r * (1 / 1260 - r / 1680))) / m)


def _front(m: int, x: np.ndarray) -> np.ndarray:
    """x**m e**-x / m!, as exp(m (log(1+t) - t) - log_stirling(m)) with t = x/m - 1."""
    t = (x - m) / m
    with np.errstate(divide="ignore"):  # x = 0 gives exp(-inf) = 0
        # x - m is exact from x = m/2 up; below it log(x/m) keeps x's precision
        log_ratio = np.where(x < 0.5 * m, np.log(x / m), np.log1p(t))
        return np.exp(m * (log_ratio - t) - _log_stirling(m))


def incomplete_gamma(m: int, x) -> tuple[np.ndarray, np.ndarray]:
    """The regularized incomplete gamma functions P(m, x) and Q(m, x) = 1 - P
    for an integer m >= 1, element-wise over finite x >= 0.

    With front = x**m e**-x / m!, below x = m + 1
    P = front * sum_n prod_{k<=n} x/(m+k), the power series, and above it
    Q = (m/x) front sum_{j<m} prod_{k<=j} (m-k)/x, the Poisson sum
    e**-x sum_{j<m} x**j/j! read from its largest term down.  On either side
    the terms fall below 1e-21 of the first within 32 + 10 sqrt(m) of them.
    """
    _check_m(m)
    x = np.asarray(x, dtype=np.float64)
    k = np.arange(1.0, 33 + 10 * math.isqrt(int(m)))
    rows = max(1, _SERIES_BLOCK // len(k))

    def series(xs, ratios):  # 1 + sum_n prod_{k<=n} ratios(xs)[k], per element
        out = np.empty_like(xs)
        for i in range(0, len(xs), rows):
            out[i:i + rows] = 1.0 + np.cumprod(ratios(xs[i:i + rows, None]), axis=1).sum(axis=1)
        return out

    front = _front(m, x)
    fall = np.maximum(m - k, 0.0)
    below = x < m + 1
    p, q = np.empty_like(x), np.empty_like(x)
    p[below] = front[below] * series(x[below], lambda r: r / (m + k))
    q[~below] = m / x[~below] * front[~below] * series(x[~below], lambda r: fall / r)
    q[below] = 1.0 - p[below]
    p[~below] = 1.0 - q[~below]
    return p, q


@functools.lru_cache(maxsize=1024)
def gamma_quantile(m: int, p: float) -> float:
    """The p-quantile of the Gamma(m, 1) law: x with P(m, x) = p, for
    integer m >= 1 and p above 1e-200 (intervals ask for p >= 2**-54)."""
    if p >= 1.0:  # (1 + level)/2 rounds to 1 for a level within 2**-53 of 1
        return math.inf
    if m == 1:
        return -math.log1p(-p)
    z = _NORMAL.inv_cdf(p)
    r = math.sqrt(m)
    if m > _ASYMPTOTIC_M:
        return (m + z * r + (z * z - 1.0) / 3.0 + (z**3 - 7.0 * z) / (36.0 * r)
                - (3.0 * z**4 + 7.0 * z * z - 16.0) / (810.0 * m)
                + (9.0 * z**5 + 256.0 * z**3 - 433.0 * z) / (38880.0 * m * r))
    base = 1.0 - 1.0 / (9.0 * m) + z / (3.0 * r)
    if base > 0.25:
        x = m * base**3
    else:  # far in the lower tail, where P(m, x) ~ x**m / m!
        x = math.exp((math.log(p) + math.lgamma(m + 1.0)) / m)
    # Halley steps on g = log(P/p) below m + 1 and log(Q/(1-p)) above it,
    # where the direct sum keeps its relative precision; Gamma(m >= 1) is
    # log-concave, so both g are concave and the steps hold their course
    # even from far in either tail
    for _ in range(_HALLEY_STEPS):
        (lower,), (upper,) = incomplete_gamma(m, np.array([x]))
        density = m / x * float(_front(m, np.array(x)))
        if x < m + 1:
            g, slope = math.log(lower / p), density / lower
        else:
            g, slope = math.log(upper / (1.0 - p)), -density / upper
        u = g / slope
        dx = u / (1.0 - 0.5 * u * ((m - 1.0) / x - 1.0 - slope))
        x = x - dx if dx < x else 0.5 * x
        if abs(dx) <= 1e-15 * x:
            break
    return float(x)
