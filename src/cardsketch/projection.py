"""Random-projection sketch: per-stream accumulators V_j = sum_t d_t * h_j(i_t)
with positive alpha-stable hashing.

All accumulation runs in signed log space (sign in {-1,0,+1} plus
log-magnitude): at alpha = 0.05 raw stable variates span exp(+-hundreds),
far outside float64 range.  Linearity makes the sketch additive, so signed
quantities are supported and deletions work: an item inserted then removed
cancels exactly when the two contributions meet with equal magnitude.

Caveat of fixed-precision log arithmetic: a term more than ~36 log-units
above the rest of the sum absorbs it, so deleting an item whose variate
dwarfs the surviving mass can destroy that stream's residual.  At alpha
below ~0.1 heavy insert-delete traffic on tiny live sets is where this
bites; larger alpha shrinks the dynamic range.

Single-writer; shard the stream and merge for parallel ingestion.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import hashing, state
from .errors import DegenerateSketchError, IncompatibleSketchError, UnsupportedDeletionError
from .estimate import Estimate, gamma_estimate

_CHUNK_ELEMS = 1 << 22
_LOG2 = math.log(2.0)


def log_add(a: float, b: float) -> float:
    """log(e**a + e**b); exact when one side is -inf, and a + log(2) when equal."""
    if a == b:
        return a if a == -math.inf else a + _LOG2
    hi, lo = (a, b) if a > b else (b, a)
    if lo == -math.inf:
        return hi
    return hi + math.log1p(math.exp(lo - hi))


def log_sub(hi: float, lo: float) -> float:
    """log(e**hi - e**lo) for hi > lo."""
    d = lo - hi
    if d > -_LOG2:
        return hi + math.log(-math.expm1(d))
    return hi + math.log1p(-math.exp(d))


def signed_log_add(s1: int, l1: float, s2: int, l2: float) -> tuple[int, float]:
    """Add two signed log-space numbers; (0, -inf) is the zero element."""
    if s1 == 0:
        return s2, l2
    if s2 == 0:
        return s1, l1
    if s1 == s2:
        return s1, log_add(l1, l2)
    if l1 == l2:
        return 0, -math.inf
    if l1 > l2:
        return s1, log_sub(l1, l2)
    return s2, log_sub(l2, l1)


class ProjectionSketch:
    """m signed log-space accumulators under stable hashing of index alpha.

    Under cash-register input every accumulator is positive once any
    element arrives; with signed input the estimate is valid whenever all
    cumulative item quantities are nonnegative at query time.
    """

    kind = "projection"

    def __init__(self, m: int, alpha: float = 0.05, seed: int = 0):
        self.m, self.salt = state.header(m, seed)
        if not 0.0 < alpha < 1.0:
            raise ValueError("alpha must lie strictly inside (0,1)")
        self.alpha = float(alpha)
        self.signs = np.zeros(self.m, dtype=np.int8)
        self.logmag = np.full(self.m, -np.inf)

    @classmethod
    def from_state(cls, m, seed, signs, logmag, alpha):
        signs, logmag = state.signed_log(signs, logmag, m)
        sk = cls(m, alpha, seed)
        sk.signs, sk.logmag = signs, logmag
        return sk

    def _check_compatible(self, other) -> None:
        if not isinstance(other, ProjectionSketch):
            raise IncompatibleSketchError("can only merge projection sketches together")
        if (self.m, self.salt, self.alpha) != (other.m, other.salt, other.alpha):
            raise IncompatibleSketchError("sketch configurations differ")

    # -- ingestion --------------------------------------------------------

    def add(self, item, d: int = 1) -> None:
        """Accumulate d * h_j(item) into every stream; d may be negative."""
        self.add_batch([item], [d])

    def add_batch(self, items, d=None) -> None:
        """Ingest many elements; d defaults to all ones."""
        keys = hashing.keys_array(items)
        if d is None:
            dvals = np.ones(len(keys))
        else:
            dvals = np.asarray(d, dtype=np.float64)
            if dvals.shape != keys.shape:
                raise ValueError("d must match items in length")
        rows = max(1, _CHUNK_ELEMS // (2 * self.m))
        for lo in range(0, len(keys), rows):
            self._absorb_chunk(keys[lo:lo + rows], dvals[lo:lo + rows])

    def _absorb_chunk(self, keys: np.ndarray, dvals: np.ndarray) -> None:
        live = dvals != 0
        keys, dvals = keys[live], dvals[live]
        if len(keys) == 0:
            return
        logx = hashing.stable_log_block(keys, self.salt, self.m, self.alpha)
        terms = logx + np.log(np.abs(dvals))[:, None]
        pos = dvals > 0
        if np.any(pos):
            self._absorb_terms(+1, _reduce_log_sum(terms[pos]))
        if np.any(~pos):
            self._absorb_terms(-1, _reduce_log_sum(terms[~pos]))

    def _absorb_terms(self, sign: int, logvals: np.ndarray) -> None:
        for j in range(self.m):
            if logvals[j] == -math.inf:
                continue
            self.signs[j], self.logmag[j] = signed_log_add(
                int(self.signs[j]), float(self.logmag[j]), sign, float(logvals[j])
            )

    def merge(self, other: "ProjectionSketch") -> "ProjectionSketch":
        """Stream-wise signed addition; equals a single pass over the
        concatenated streams up to float associativity."""
        self._check_compatible(other)
        out = ProjectionSketch(self.m, self.alpha, self.salt)
        out.signs = self.signs.copy()
        out.logmag = self.logmag.copy()
        for j in range(self.m):
            out.signs[j], out.logmag[j] = signed_log_add(
                int(out.signs[j]), float(out.logmag[j]),
                int(other.signs[j]), float(other.logmag[j]),
            )
        return out

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
        interpolating between two stream values.
        """
        self._require_positive()
        med_log_v = float(np.median(self.logmag))
        return math.exp(self.alpha * (med_log_v - stable_median_log(self.alpha)))

    def state_bytes(self) -> int:
        return self.signs.nbytes + self.logmag.nbytes


def _reduce_log_sum(terms: np.ndarray) -> np.ndarray:
    """Column-wise log-sum-exp in fixed (row) order."""
    out = terms[0].copy()
    for i in range(1, terms.shape[0]):
        np.logaddexp(out, terms[i], out=out)
    return out


# -- the stable law's median --------------------------------------------

_MEDIAN_CACHE: dict[float, float] = {}
_MEDIAN_SAMPLES = 10**7


def stable_median_log(alpha: float) -> float:
    """log of the median of the positive stable law with index alpha.

    No closed form exists for general alpha, so the median is read off a
    deterministic large-sample quantile: 10**7 low-discrepancy pairs (a 2-D
    Hammersley set: stratified u, bit-reversed w) pushed through the same
    log-space construction as the hash variates.  Cached per alpha, so the
    median estimator is reproducible.  As alpha -> 0 the value obeys
    alpha * log(median) -> -log(log 2); at alpha = 1/2 it matches the
    closed form 1/(2 z**2) with z the normal 75th-percentile.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly inside (0,1)")
    cached = _MEDIAN_CACHE.get(alpha)
    if cached is not None:
        return cached
    n = _MEDIAN_SAMPLES
    out = np.empty(n)
    chunk = 10**6
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        idx = np.arange(lo, hi, dtype=np.uint32)
        u = (np.arange(lo, hi, dtype=np.float64) + 0.5) / n
        v = (_bit_reverse32(idx).astype(np.float64) + 0.5) / 2.0**32
        out[lo:hi] = hashing.stable_log_variate(u, -np.log1p(-v), alpha)
    med = float(np.median(out))
    _MEDIAN_CACHE[alpha] = med
    return med


def _bit_reverse32(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.uint32)
    x = ((x & np.uint32(0x55555555)) << np.uint32(1)) | ((x >> np.uint32(1)) & np.uint32(0x55555555))
    x = ((x & np.uint32(0x33333333)) << np.uint32(2)) | ((x >> np.uint32(2)) & np.uint32(0x33333333))
    x = ((x & np.uint32(0x0F0F0F0F)) << np.uint32(4)) | ((x >> np.uint32(4)) & np.uint32(0x0F0F0F0F))
    x = ((x & np.uint32(0x00FF00FF)) << np.uint32(8)) | ((x >> np.uint32(8)) & np.uint32(0x00FF00FF))
    return (x << np.uint32(16)) | (x >> np.uint32(16))


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
    keys = hashing.keys_array(items)
    if d is None:
        dvals = np.ones(len(keys))
    else:
        dvals = np.asarray(d, dtype=np.float64)
    if np.any(dvals <= 0):
        raise UnsupportedDeletionError("coupled run requires a cash-register stream")

    log_v = np.full(m, -np.inf)   # log V_j
    max_lx = np.full(m, -np.inf)  # max_j log X, so log M_j = alpha * max_lx
    seen = set()
    total = 0.0
    worst_low = -math.inf
    worst_high = -math.inf
    for key, dv in zip(keys.tolist(), dvals.tolist()):
        lx = hashing.stable_log_block(
            np.array([key], dtype=np.uint64), seed, m, alpha
        )[0]
        np.logaddexp(log_v, lx + math.log(dv), out=log_v)
        seen.add(key)
        total += dv
        np.maximum(max_lx, lx, out=max_lx)
        gap = log_v - max_lx  # log(V) - (1/alpha) log M
        worst_low = max(worst_low, float((-gap).max()))
        worst_high = max(worst_high, float((gap - math.log(total)).max()))

    ratio_log = alpha * (log_v - max_lx)
    residuals = np.exp(-alpha * log_v) - np.exp(-alpha * max_lx)
    return CoupledRun(
        alpha=alpha,
        m=m,
        c=len(seen),
        total_weight=total,
        residuals=residuals,
        ratio_log=ratio_log,
        sandwich_low=worst_low * alpha,
        sandwich_high=worst_high * alpha,
    )
