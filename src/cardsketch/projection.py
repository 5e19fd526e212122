"""Random-projection sketch: per-stream accumulators V_j = sum_t d_t * h_j(i_t)
with positive alpha-stable hashing.

All accumulation runs in signed log space (sign in {-1,0,+1} plus
log-magnitude): at alpha = 0.05 raw stable variates span exp(+-hundreds),
far outside float64 range.  Linearity makes the sketch additive, so signed
quantities are supported and deletions work: an item inserted then removed
cancels exactly when the two contributions meet with equal magnitude.

``state.Sketch.add_batch`` checks a batch's quantities, which here may be
negative or zero (zero adds nothing).  The batch is then netted by key:
each key is kept once, in the order of its first row, at the sum of its
quantities, and a key whose sum is 0 is dropped, so an item inserted and
deleted within one batch is never hashed and leaves no trace.  A sum
beyond double range raises StreamIntegrityError with the state unchanged.
A batch of distinct keys is hashed as it stands.  The netted batch's
insertion rows and its deletion rows are hashed as two passes of the row
tiles of
``hashing.stable_log_tiles``, so every tile has one sign and is summed as
it comes, with no copy of its terms per sign.  Each side is summed per
stream, the running sum carried from tile to tile: a tile's terms and the
running sum are shifted by their largest value, so each term costs one
exp and the new sum is that maximum plus the log of the shifted sum.
``state.signed_add``, the combine rule of the sketch's layout, adds the
insertion sum to the state, then the deletion sum (or another sketch),
element-wise.  A mixed batch of distinct keys thus leaves, bit for bit,
the state of its insertion rows and then its deletion rows added as two
batches.

Caveat of fixed-precision log arithmetic: a term more than ~36 log-units
above the rest of the sum absorbs it, so deleting an item whose variate
dwarfs the surviving mass can destroy that stream's residual.  Netting
cancels an insertion and its deletion exactly only when both fall in one
batch; across batches, or merged sketches, they still meet in log space.
At alpha below ~0.1 heavy insert-delete traffic on tiny live sets is
where this bites; larger alpha shrinks the dynamic range.

Single-writer; shard the stream and merge for parallel ingestion.
"""

from __future__ import annotations

import functools
import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from . import hashing, state
from .errors import (DegenerateSketchError, EstimationNumericError, StreamIntegrityError,
                     UnsupportedDeletionError)
from .estimate import Estimates, fail, gamma_estimates, one_row
from .hashing import _ALPHA_MIN  # noqa: F401  (the constructor's bound, importable here)
from .state import signed_add

_LOG_MAX = math.log(sys.float_info.max)


def _log_sum_rows(total, terms):
    """log(exp(total) + sum of exp(terms) down each column), per stream, for
    terms of at least one row.

    Each stream is shifted by its maximum, so every term costs one exp and
    the largest shifted value is exactly 1.  ``terms`` is overwritten.
    """
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
    deletes = True

    def __init__(self, m: int, alpha: float = 0.05, seed: int = 0):
        self.alpha = hashing.checked_alpha(alpha)
        super().__init__(m, seed)

    # -- ingestion --------------------------------------------------------

    def _absorb(self, keys: np.ndarray, d: np.ndarray) -> None:
        # each key once at its net quantity, then the insertion rows and the
        # deletion rows, each hashed in tiles of one sign and folded onto
        # their side's running sum; d = 0 adds nothing
        keys, d = _net_by_key(keys, d)
        for sign, side in ((1, d > 0), (-1, d < 0)):
            if not side.any():
                continue
            logd = np.log(np.abs(d[side]))
            total = np.full(self.m, -np.inf)
            for rows, terms in hashing.stable_log_tiles(keys[side], self.salt, self.m,
                                                        self.alpha):
                terms += logd[rows, None]
                total = _log_sum_rows(total, terms)
            self.signs, self.logmag = signed_add(self.signs, self.logmag, sign, total)

    # -- estimation -------------------------------------------------------

    def pivot_sum(self) -> float:
        """S = sum_j V_j**(-alpha); c*S is an approximate Gamma(m,1) pivot
        for small alpha."""
        with np.errstate(over="ignore"):  # gamma_estimates refuses an infinite sum
            return float(one_row(_pivot_sums, self.signs, self.logmag, alpha=self.alpha))

    @classmethod
    def estimates(cls, signs, logmag, level: float, alpha: float) -> Estimates:
        """m / sum V_j**(-alpha) per row of the (sketches, m) accumulators,
        with the approximate Gamma-pivot interval; an alpha above 0.1 warns."""
        if alpha > 0.1:
            warnings.warn(
                f"alpha={alpha} is large; the estimator and its interval "
                "are derived in the small-alpha limit",
                stacklevel=3,
            )
        errors = [None] * len(signs)
        with np.errstate(all="ignore"):  # gamma_estimates refuses an infinite sum
            s = _pivot_sums(signs, logmag, alpha, errors)
            return gamma_estimates(s, signs.shape[1], level, "projection", errors)

    @classmethod
    def median_estimates(cls, signs, logmag, alpha: float) -> Estimates:
        """``median_estimate`` of each row of the (sketches, m) accumulators."""
        errors = [None] * len(signs)
        _positive_rows(signs, errors)
        with np.errstate(invalid="ignore"):
            log_c = alpha * (np.median(logmag, axis=1) - stable_median_log(alpha))
        fail(errors, ~((-_LOG_MAX < log_c) & (log_c < _LOG_MAX)),
             lambda i: EstimationNumericError(
                 f"median estimate exp({float(log_c[i])}) is outside double range"))
        c_hat = np.array([math.exp(v) if e is None else math.nan
                          for v, e in zip(log_c.tolist(), errors)])
        return Estimates(c_hat, errors, "projection-median", signs.shape[1])

    def median_estimate(self) -> float:
        """(sample median of V / median of the stable law)**alpha.

        Acts on log V, where the median commutes with exp; m odd avoids
        interpolating between two stream values.  An estimate outside
        double range raises EstimationNumericError.
        """
        return self.median_estimates(self.signs[None], self.logmag[None], self.alpha).value()


def _net_by_key(keys: np.ndarray, d: np.ndarray) -> tuple:
    """The batch with each key once, at the sum of its quantities, in the
    order of first appearance, and the keys whose sum is 0 dropped; a batch
    with no repeated key is returned as it is.  A sum beyond double range
    raises StreamIntegrityError."""
    by_key = np.argsort(keys)
    srt = keys[by_key]
    new = hashing.run_starts(srt)
    starts = np.flatnonzero(new)
    if len(starts) == len(keys):
        return keys, d
    # each row's key group, in row order: bincount sums a key's quantities
    # in the order of the batch
    inverse = np.empty(len(keys), dtype=np.intp)
    inverse[by_key] = np.cumsum(new) - 1
    total = np.bincount(inverse, weights=d, minlength=len(starts))
    if not np.isfinite(total).all():
        raise StreamIntegrityError("a key's net quantity in the batch passes double range")
    order = np.argsort(np.minimum.reduceat(by_key, starts))
    order = order[total[order] != 0.0]
    return srt[starts][order], total[order]


def _positive_rows(signs, errors: list) -> None:
    """Give each row of stacked signs with an accumulator <= 0 its error."""
    fail(errors, (signs <= 0).any(axis=1), lambda i: DegenerateSketchError(
        "estimation needs every accumulator positive (nonnegative "
        "cumulative quantities at query time)"))


def _pivot_sums(signs, logmag, alpha: float, errors: list) -> np.ndarray:
    """sum_j V_j**(-alpha) of each row of stacked accumulators, checked positive."""
    _positive_rows(signs, errors)
    return np.exp(-alpha * logmag).sum(axis=1)


# -- the stable law's median --------------------------------------------

_MEDIAN_NODES = 512

# the first zeros of the Bessel function J0, the start of Newton's method
# for the Gauss-Legendre nodes nearest +-1
_J0_ZEROS = (2.4048255576957724, 5.520078110286311, 8.653727912911013,
             11.791534439014281, 14.930917708487787, 18.071063967910924,
             21.21163662987926, 24.352471530749302, 27.493479132040253,
             30.634606468431976)


def _gauss_legendre(n: int) -> tuple:
    """The nodes, ascending, and weights of the n-point Gauss-Legendre rule
    on [-1, 1], for n even.

    Newton's method on P_n, evaluated by its three-term recurrence, from
    asymptotic starting points (Hale & Townsend, SIAM J. Sci. Comput.
    2013): Tricomi's expansion in the interior and, for the nodes nearest
    +-1, the Bessel-zero form, both accurate to about 1e-11 at n = 512,
    where one pass converges.  A pass is n numpy steps over the n/2
    positive nodes; a step dx leaves an error of about dx**2 x / (1 - x**2),
    so passes repeat until that is below an ulp.  The weights are
    2 / ((1 - x**2) P_n'(x)**2), P_n' carried to the last step's node by
    the Legendre equation.
    """
    half = n // 2
    v = n + 0.5
    phi = (np.arange(1, half + 1) - 0.25) * (math.pi / v)
    x = np.cos(phi) * (1.0 - (n - 1) / (8.0 * n**3)
                       - (39.0 - 28.0 / np.sin(phi)**2) / (384.0 * n**4))
    edge = min(half, len(_J0_ZEROS))
    phi = np.array(_J0_ZEROS[:edge]) / v
    x[:edge] = np.cos(phi + (phi / np.tan(phi) - 1.0) / (8.0 * phi * v * v))
    t = np.empty(half)
    while True:
        one_minus_x2 = (1.0 - x) * (1.0 + x)
        # p_j = x p_{j-1} + (j-1)/j (x p_{j-1} - p_{j-2}), in place
        p0, p1 = np.ones(half), x.copy()
        for j in range(2, n + 1):
            np.multiply(x, p1, out=t)
            p0 -= t
            p0 *= (1 - j) / j
            p0 += t
            p0, p1 = p1, p0
        dp = n * (p0 - x * p1) / one_minus_x2
        dx = p1 / dp
        x = x - dx
        if (dx * dx <= 2.0**-52 * one_minus_x2).all():
            break
    # P_n'' = (2 x P_n' - n (n+1) P_n) / (1 - x**2) at the node before the step
    dp -= (2.0 * (x + dx) * dp - n * (n + 1) * p1) / one_minus_x2 * dx
    w = 2.0 / ((1.0 - x) * (1.0 + x) * dp * dp)
    return np.concatenate((-x, x[::-1])), np.concatenate((w, w[::-1]))


@functools.cache
def stable_median_log(alpha: float) -> float:
    """log of the median of the positive stable law with index alpha.

    Kanter's form of the law of ``hashing.stable_log_variate`` (Kanter 1975;
    Zolotarev 1986) is F(x) = (1/pi) int_0^pi exp(-x**(-alpha/(1-alpha)) A(u)) du
    with A(u) = sin(alpha u)**(alpha/(1-alpha)) sin((1-alpha) u) / sin(u)**(1/(1-alpha)).
    F(x) = 1/2 is solved by bisection in log x, down to adjacent floats, on a
    _MEDIAN_NODES-point Gauss-Legendre sum, its nodes and weights found by
    Newton's method on the Legendre recurrence (``_gauss_legendre``): no
    eigensolve, and about 3 ms for a first call per alpha.
    Doubling the nodes moves the value by under 1e-13 relative for alpha in
    [0.005, 0.99] and by 8e-11 at alpha = 0.001, where A steepens near
    u = pi.  At alpha = 1/2 it matches the closed form log(1/(2 z**2)), z
    the normal 75th percentile, to 2e-15.
    As alpha -> 0, alpha * log(median) -> -log(log 2).
    """
    hashing.checked_alpha(alpha)
    nodes, weights = _gauss_legendre(_MEDIAN_NODES)
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
    An m, alpha or seed that ProjectionSketch refuses raises its ValueError
    before anything is hashed.
    """
    ProjectionSketch(m, alpha, seed)
    keys, dvals = state.keys_and_quantities(items, d)
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
