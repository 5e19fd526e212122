"""Point estimates with standard errors and confidence intervals."""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy.special import gammaincinv, ndtri

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


def _check_level(level: float) -> None:
    if not 0.0 < level < 1.0:
        raise ValueError(f"confidence level must lie in (0,1), got {level}")


def gamma_pivot_interval(pivot_sum: float, m: int, level: float) -> tuple[float, float]:
    """Exact interval for c when c * pivot_sum ~ Gamma(m, 1).

    pivot_sum is the observed sum S with the property that c*S follows the
    unit-scale Gamma(m) law; the interval is [g_lo/S, g_hi/S] with g_p the
    Gamma(m) quantiles at (1-level)/2 and (1+level)/2.
    """
    _check_level(level)
    if pivot_sum <= 0.0:
        raise ValueError("pivot sum must be positive")
    g_lo = float(gammaincinv(m, (1.0 - level) / 2.0))
    g_hi = float(gammaincinv(m, (1.0 + level) / 2.0))
    return (g_lo / pivot_sum, g_hi / pivot_sum)


def normal_interval(c_hat: float, std_error: float, level: float) -> tuple[float, float]:
    """Large-sample normal interval, clipped at zero."""
    _check_level(level)
    z = float(ndtri((1.0 + level) / 2.0))
    half = z * std_error
    return (max(0.0, c_hat - half), c_hat + half)


def normal_estimate(c_hat: float, se: float, level: float, estimator: str,
                    m: int) -> Estimate:
    """c_hat with standard error se and the clipped normal interval."""
    return Estimate(c_hat, se, normal_interval(c_hat, se, level), level, estimator, m)


def gamma_estimate(pivot_sum: float, m: int, level: float, estimator: str) -> Estimate:
    """MLE m/S with exact Gamma-pivot interval and std error c_hat/sqrt(m).

    A pivot sum that underflowed to 0 or overflowed to inf raises
    EstimationNumericError."""
    if not 0.0 < pivot_sum < math.inf:
        raise EstimationNumericError(f"pivot sum {pivot_sum} is outside double range")
    c_hat = m / pivot_sum
    return Estimate(
        c_hat=c_hat,
        std_error=c_hat / math.sqrt(m),
        ci=gamma_pivot_interval(pivot_sum, m, level),
        level=level,
        estimator=estimator,
        m=m,
    )
