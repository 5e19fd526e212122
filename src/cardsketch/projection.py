"""Random-projection sketch: per-stream accumulators V_j = sum_t d_t * h_j(i_t)
with positive alpha-stable hashing.

All accumulation runs in signed log space (sign in {-1,0,+1} plus
log-magnitude): at alpha = 0.05 raw stable variates span exp(+-hundreds),
far outside float64 range.  Linearity makes the sketch additive, so signed
quantities are supported and deletions work: an item inserted then removed
cancels exactly when the two contributions meet with equal magnitude.

A batch is hashed in the row tiles of ``hashing.stable_log_tiles``.  Its
insertion terms and its deletion terms are each summed per stream, the
running sum carried from tile to tile: a tile's terms and the running sum
are shifted by their largest value, so each term costs one exp and the new
sum is that maximum plus the log of the shifted sum.  The state is updated
once per batch: ``state.signed_add``, the combine rule of the sketch's
layout, adds the insertion sum, then the deletion sum (or another sketch),
element-wise.

Caveat of fixed-precision log arithmetic: a term more than ~36 log-units
above the rest of the sum absorbs it, so deleting an item whose variate
dwarfs the surviving mass can destroy that stream's residual.  At alpha
below ~0.1 heavy insert-delete traffic on tiny live sets is where this
bites; larger alpha shrinks the dynamic range.

Single-writer; shard the stream and merge for parallel ingestion.
"""

from __future__ import annotations

import functools
import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import roots_legendre

from . import hashing, state
from .errors import (DegenerateSketchError, EstimationNumericError, StreamIntegrityError,
                     UnsupportedDeletionError)
from .estimate import Estimate, gamma_estimate
from .state import signed_add

_LOG_MAX = math.log(sys.float_info.max)

def _log_sum_rows(total, terms):
    """log(exp(total) + sum of exp(terms) down each column), per stream.

    Each stream is shifted by its maximum, so every term costs one exp and
    the largest shifted value is exactly 1.  ``terms`` is overwritten.
    """
    if not len(terms):
        return total
    top = np.maximum(total, terms.max(axis=0))
    terms -= top
    return top + np.log(np.exp(terms, out=terms).sum(axis=0) + np.exp(total - top))


class ProjectionSketch(state.Sketch):
    """m signed log-space accumulators under stable hashing of index alpha.

    Under cash-register input every accumulator is positive once any
    element arrives; with signed input (a negative d deletes) the estimate
    holds while every cumulative item quantity is nonnegative at query time.
    """

    params = ("alpha",)
    layout = state.SignedLog()

    def __init__(self, m: int, alpha: float = 0.05, seed: int = 0):
        super().__init__(m, seed)
        if not 0.0 < alpha < 1.0:
            raise ValueError("alpha must lie strictly inside (0,1)")
        self.alpha = float(alpha)
        self.signs = np.zeros(self.m, dtype=np.int8)
        self.logmag = np.full(self.m, -np.inf)

    # -- ingestion --------------------------------------------------------

    def add_batch(self, items, d=None) -> None:
        """Ingest many elements; d defaults to all ones."""
        keys, dvals = _keys_and_quantities(items, d)
        live = dvals != 0
        keys, dvals = keys[live], dvals[live]
        logd = np.log(np.abs(dvals))
        pos = dvals > 0
        # per-stream sums of the insertion and the deletion terms, each tile
        # folded onto the running sum; a side with no rows sums to -inf,
        # which adds nothing, so its update is skipped
        ins = dels = np.full(self.m, -np.inf)
        for rows, terms in hashing.stable_log_tiles(keys, self.salt, self.m, self.alpha):
            terms += logd[rows, None]
            p = pos[rows]
            ins = _log_sum_rows(ins, terms[p])
            dels = _log_sum_rows(dels, terms[~p])
        if pos.any():
            self.signs, self.logmag = signed_add(self.signs, self.logmag, 1, ins)
        if not pos.all():
            self.signs, self.logmag = signed_add(self.signs, self.logmag, -1, dels)

    # -- estimation -------------------------------------------------------

    def _require_positive(self) -> None:
        if np.any(self.signs <= 0):
            raise DegenerateSketchError(
                "estimation needs every accumulator positive (nonnegative "
                "cumulative quantities at query time)"
            )

    def pivot_sum(self) -> float:
        """S = sum_j V_j**(-alpha); c*S is an approximate Gamma(m,1) pivot
        for small alpha."""
        self._require_positive()
        with np.errstate(over="ignore"):  # gamma_estimate refuses an infinite sum
            return float(np.exp(-self.alpha * self.logmag).sum())

    def estimate(self, level: float = 0.95) -> Estimate:
        """m / sum V_j**(-alpha), with the approximate Gamma-pivot interval."""
        if self.alpha > 0.1:
            warnings.warn(
                f"alpha={self.alpha} is large; the estimator and its interval "
                "are derived in the small-alpha limit",
                stacklevel=2,
            )
        return gamma_estimate(self.pivot_sum(), self.m, level, "projection")

    def median_estimate(self) -> float:
        """(sample median of V / median of the stable law)**alpha.

        Acts on log V, where the median commutes with exp; m odd avoids
        interpolating between two stream values.  An estimate outside
        double range raises EstimationNumericError.
        """
        self._require_positive()
        med_log_v = float(np.median(self.logmag))
        log_c = self.alpha * (med_log_v - stable_median_log(self.alpha))
        if not -_LOG_MAX < log_c < _LOG_MAX:
            raise EstimationNumericError(
                f"median estimate exp({log_c}) is outside double range")
        return math.exp(log_c)


def _keys_and_quantities(items, d) -> tuple[np.ndarray, np.ndarray]:
    """uint64 keys and finite float64 quantities (default all ones) of a stream."""
    keys = hashing.keys_array(items)
    if d is None:
        return keys, np.ones(len(keys))
    dvals = np.asarray(d, dtype=np.float64)
    if dvals.shape != keys.shape:
        raise ValueError("d must match items in length")
    if not np.isfinite(dvals).all():
        raise StreamIntegrityError("quantities must be finite numbers")
    return keys, dvals


# -- the stable law's median --------------------------------------------

_MEDIAN_NODES = 512


@functools.cache
def stable_median_log(alpha: float) -> float:
    """log of the median of the positive stable law with index alpha.

    Kanter's form of the law of ``hashing.stable_log_variate`` (Kanter 1975;
    Zolotarev 1986) is F(x) = (1/pi) int_0^pi exp(-x**(-alpha/(1-alpha)) A(u)) du
    with A(u) = sin(alpha u)**(alpha/(1-alpha)) sin((1-alpha) u) / sin(u)**(1/(1-alpha)).
    F(x) = 1/2 is solved by bisection in log x, down to adjacent floats, on a
    _MEDIAN_NODES-point Gauss-Legendre sum.  Doubling the nodes moves the
    value by under 1e-13 relative for alpha in [0.005, 0.99] and by 8e-11 at
    alpha = 0.001, where A steepens near u = pi.  At alpha = 1/2 it matches
    the closed form log(1/(2 z**2)), z the normal 75th percentile, to 2e-14.
    As alpha -> 0, alpha * log(median) -> -log(log 2).
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly inside (0,1)")
    nodes, weights = roots_legendre(_MEDIAN_NODES)
    # log sin(u), log sin(alpha u) and log sin((1-alpha) u) at u = pi x
    log_s, log_sa, log_sb = np.log(hashing.kanter_sines(0.5 * (nodes + 1.0), alpha))
    r = alpha / (1.0 - alpha)
    log_a = r * log_sa + log_sb - log_s / (1.0 - alpha)
    # 2 F = sum(weights * exp(-exp(log_a - s))) at s = r log x; every term
    # is below exp(-e) < 1/2 at lo and above exp(-1/e) > 1/2 at hi
    lo, hi = log_a.min() - 1.0, log_a.max() + 1.0
    mid = 0.5 * (lo + hi)
    with np.errstate(over="ignore"):  # exp(log_a - s) = inf is a zero term
        while lo < mid < hi:
            if weights @ np.exp(-np.exp(log_a - mid)) < 1.0:
                lo = mid
            else:
                hi = mid
            mid = 0.5 * (lo + hi)
    return float(mid / r)


# -- coupled maximal-term / projection run -------------------------------

@dataclass
class CoupledRun:
    """One-pass diagnostics coupling both sketch families on shared variates.

    residuals: per-stream V**(-alpha) + log G(M) with the small-alpha limit
        log G(y) = -1/y standing in for the stable max-law CDF.
    ratio_log: per-stream log(V**alpha / M) at end of stream.
    sandwich_low / sandwich_high: worst signed violations, checked after
        every element, of 1 <= V**alpha / M <= (sum d)**alpha; nonpositive
        values mean the bounds held throughout.
    """

    alpha: float
    m: int
    c: int
    total_weight: float
    residuals: np.ndarray
    ratio_log: np.ndarray
    sandwich_low: float
    sandwich_high: float

    @property
    def sandwich_ok(self) -> bool:
        return self.sandwich_low <= 1e-9 and self.sandwich_high <= 1e-9


def coupled_residuals(items, m: int, alpha: float, seed: int = 0, d=None) -> CoupledRun:
    """Build the projection sketch and the maximal-term sketch over the
    alpha-th power of the same stable variates in one pass.

    Requires a cash-register stream (all quantities positive).  The two
    pivots agree as alpha -> 0: residuals V**(-alpha) - 1/M shrink toward
    zero, while the ratio V**alpha / M always sits between 1 and
    (sum of quantities)**alpha; both facts are checked element by element.
    """
    keys, dvals = _keys_and_quantities(items, d)
    if np.any(dvals <= 0):
        raise UnsupportedDeletionError("coupled run requires a cash-register stream")

    # running log V_j and max log X_j (log M_j = alpha * max_lx) after every
    # element; a tile starts from the previous tile's last row
    log_v = max_lx = np.full((1, m), -np.inf)
    totals = np.cumsum(dvals)
    worst_low = worst_high = -math.inf
    for rows, lx in hashing.stable_log_tiles(keys, seed, m, alpha):
        terms = lx + np.log(dvals[rows])[:, None]
        log_v = np.logaddexp.accumulate(np.vstack([log_v[-1:], terms]), axis=0)[1:]
        max_lx = np.maximum.accumulate(np.vstack([max_lx[-1:], lx]), axis=0)[1:]
        gap = log_v - max_lx  # log(V) - (1/alpha) log M
        worst_low = max(worst_low, float((-gap).max()))
        worst_high = max(worst_high, float((gap - np.log(totals[rows])[:, None]).max()))
    log_v, max_lx = log_v[-1], max_lx[-1]

    ratio_log = alpha * (log_v - max_lx)
    residuals = np.exp(-alpha * log_v) - np.exp(-alpha * max_lx)
    return CoupledRun(
        alpha=alpha,
        m=m,
        c=len(np.unique(keys)),
        total_weight=float(totals[-1]) if len(totals) else 0.0,
        residuals=residuals,
        ratio_log=ratio_log,
        sandwich_low=worst_low * alpha,
        sandwich_high=worst_high * alpha,
    )
