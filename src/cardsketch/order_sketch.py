"""Maximal-term and k-th order-statistic sketches over m hash streams.

Each sketch keeps one monotone slot per hash stream: the running maximum of
that stream's hash variates over all distinct items seen.  Slots only grow,
so ingestion is duplicate-insensitive and order-invariant, merge is the
slot-wise maximum, and merge(sketch(A), sketch(B)) is bit-identical to a
single pass over A union B.

Ingestion streams the raw hash words in cache-sized row tiles
(``hashing.word_tiles``) and reduces each tile column-wise before any
transform: the maximum word for the continuous and geometric sketches, the
minimum word for the Bernoulli sketch, the k largest words for the top-k
sketch.  The word-to-uniform map ``((w >> 11) + 0.5) * 2**-53`` and every
variate transform after it are monotone, so the transformed extreme equals
the extreme of the transformed values bit for bit; only m values are ever
transformed.

The top-k sketch joins its rows to the candidate uniforms of a batch, or to
another sketch's rows, in one array operation (the combine rule of its
``state.Rows`` layout): every row keeps its k largest distinct values.
Only a column whose candidates hold one uniform twice is redone, alone,
from all its words.

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


def _column_words(sk, keys: np.ndarray, extreme) -> np.ndarray:
    """The extreme raw hash word of each of the sketch's m streams over the
    keys, where extreme is np.maximum (largest word) or np.minimum."""
    acc = None
    for words in hashing.word_tiles(keys, sk.salt, sk.m):
        part = extreme.reduce(words, axis=0)
        acc = part if acc is None else extreme(acc, part, out=acc)
    return acc


class ContinuousMaxSketch(state.Sketch):
    """Max sketch with continuous hashing ("uniform" or "exponential").

    Slots store log F(M_j) <= 0, the log-CDF of the running maximum, with
    -inf marking an empty stream.  For any continuous hashing distribution
    F(h(u)) is identically the underlying uniform u (probability integral
    transform), so the slot update is max with log u regardless of kind and
    uniform/exponential hashing produce bit-identical pivots by construction.
    A single float per stream, and the pivot sum -sum(slots) is exactly the
    merge-consistent sufficient statistic.
    """

    params = ("kind",)
    layout = state.Vector("slots", "<f8", 0.0, "continuous log-CDF slots")

    def __init__(self, m: int, seed: int = 0, kind: str = "uniform"):
        super().__init__(m, seed)
        if kind not in ("uniform", "exponential"):
            raise ValueError(f"continuous kind must be uniform or exponential, got {kind!r}")
        self.kind = kind
        self.slots = np.full(m, -np.inf)

    def _absorb(self, keys: np.ndarray, d: np.ndarray) -> None:
        u = hashing.unit_array(_column_words(self, keys, np.maximum))
        np.maximum(self.slots, np.log(u), out=self.slots)

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

    def __init__(self, m: int, q: float, seed: int = 0):
        super().__init__(m, seed)
        if not 0.0 < q < 1.0:
            raise ValueError("q must lie strictly inside (0,1)")
        self.q = float(q)
        self.slots = np.zeros(m, dtype=np.uint32)

    def _absorb(self, keys: np.ndarray, d: np.ndarray) -> None:
        u = hashing.unit_array(_column_words(self, keys, np.maximum))
        np.maximum(self.slots, hashing.geometric_variate(u, self.q), out=self.slots)

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


def solve_geometric_mle(slots: np.ndarray, q: float, tol: float = 1e-9,
                        max_iter: int = 50) -> tuple[float, float]:
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
    for _ in range(max_iter):
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
        if abs(nxt - c) < tol * max(c, 1.0):
            return float(nxt), float(c0)
        c = nxt
    raise EstimationNumericError(
        f"geometric MLE did not converge within {max_iter} iterations", initial=c0
    )


class KthOrderSketch(state.Sketch):
    """Keeps the k largest distinct uniform hash values per stream.

    Rows are stored descending with NaN padding; bit-exact duplicate hash
    values are kept once (set semantics), so repeated items never change
    the state.
    """

    params = ("k",)
    layout = state.Rows("topk", np.nan, "k", "top-k rows")

    def __init__(self, m: int, k: int, seed: int = 0):
        super().__init__(m, seed)
        if not 1 <= k <= state.U16_MAX:
            raise ValueError(f"k must lie in [1, 2**16), got {k}")
        self.k = int(k)
        self.topk = np.full((m, k), np.nan)

    def _absorb(self, keys: np.ndarray, d: np.ndarray) -> None:
        # distinct keys give distinct words in every column (the digest,
        # the counter offset and mix64 are bijections), so the k largest
        # words of a column carry its k largest distinct uniforms unless
        # two of them map to the same uniform
        keys = np.unique(keys)
        top = top_words(hashing.word_tiles(keys, self.salt, self.m), self.k)
        u = hashing.unit_array(top)
        merged = self.layout.joined(self.topk, u.T)[0]
        for j in np.flatnonzero(tied_columns(u)):
            col = hashing.uniform_block(keys, self.salt, j, j + 1)
            merged[j] = self.layout.joined(self.topk[j:j + 1], col.T)[0][0]
        self.topk = merged

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


def top_words(tiles, k: int) -> np.ndarray:
    """The min(k, rows) largest words of each column over a sequence of
    (rows, m) word tiles, as a (min(k, rows), m) matrix in no set order.

    After the first k rows only the few words above a column's running
    k-th largest can enter, so each later tile costs one comparison per
    word plus a small sort of the entrants.
    """
    top = None
    for words in tiles:
        if top is None or len(top) < k:
            pool = words.copy() if top is None else np.concatenate([top, words])
            if len(pool) > k:
                pool = np.partition(pool, len(pool) - k, axis=0)[len(pool) - k:]
            top = pool
            continue
        flat = np.flatnonzero(words > top.min(axis=0))
        if len(flat) == 0:
            continue
        m = top.shape[1]
        values = np.concatenate([top.ravel(), words.ravel()[flat]])
        owner = np.concatenate([np.tile(np.arange(m), k), flat % m])
        order = np.lexsort((values, owner))
        ends = np.cumsum(np.bincount(owner, minlength=m))
        top = values[order][ends[None, :] - k + np.arange(k)[:, None]]
    return top


def tied_columns(u: np.ndarray) -> np.ndarray:
    """Columns of the uniforms of a top_words matrix that hold one value
    twice; those columns need every word.

    The word-to-uniform map is monotone but not injective: two words that
    differ only in the 11 low bits it drops give one uniform, and so do
    neighbouring 53-bit values above 1/2, where the + 0.5 offset rounds.
    """
    s = np.sort(u, axis=0)
    return (s[1:] == s[:-1]).any(axis=0)


def kth_closed_form(y: np.ndarray, k: int) -> float:
    """Large-c starting point k / (1 - prod(y_j)**(1/m)).  Every y_j at 1,
    the uniforms' supremum, raises DegenerateSketchError."""
    log_prod = float(np.log(y).sum())
    t = -math.expm1(log_prod / len(y))
    if t == 0.0:
        raise DegenerateSketchError("every k-th value at the supremum 1")
    return k / t


def kth_root_estimate(y: np.ndarray, k: int, tol: float = 1e-12,
                      max_iter: int = 100) -> float:
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
    for _ in range(max_iter):
        denom = c + offsets
        f = log_prod + m * float((1.0 / denom).sum())
        df = -m * float((1.0 / denom**2).sum())
        step = f / df
        nxt = c - step
        while nxt <= k - 1:
            step *= 0.5
            nxt = c - step
        if abs(nxt - c) < tol * max(c, 1.0):
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
    """m-bit sketch: bit j is set once any item's j-th uniform falls below p.

    Choose p about 1.594/c0 for a prior guess c0 of the cardinality; the
    estimator stays within 25% relative efficiency of continuous hashing
    for true c anywhere in (0.3*c0, 4.3*c0).
    """

    params = ("p",)
    layout = state.Bits("bits", "<u1", 1, "bernoulli bits")

    def __init__(self, m: int, p: float, seed: int = 0):
        super().__init__(m, seed)
        if not 0.0 < p < 1.0:
            raise ValueError("p must lie strictly inside (0,1)")
        self.p = float(p)
        self.bits = np.zeros(m, dtype=np.uint8)

    def _absorb(self, keys: np.ndarray, d: np.ndarray) -> None:
        hit = hashing.unit_array(_column_words(self, keys, np.minimum)) < self.p
        np.maximum(self.bits, hit.astype(np.uint8), out=self.bits)

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
