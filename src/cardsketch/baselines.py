"""Reference competitors: LogLog, HyperLogLog and MinCount, all with
stochastic averaging (items split into m buckets by leading hash bits, one
register per bucket).

Each item consumes one 64-bit hash word, counter 0 of its stream, read
through ``hashing.word_tiles``: the top log2(m) bits pick the bucket, the
remaining bits feed the register.  With 64-bit words the
classic 32-bit large-range saturation correction never applies at the
scales this library supports, so it is omitted.
"""

from __future__ import annotations

import math

import numpy as np

from . import hashing, state
from .errors import DegenerateSketchError, InsufficientDataError, reject_deletions
from .estimate import Estimate, normal_estimate

# Asymptotic relative efficiencies (ratio of c^2/m to the estimator's
# asymptotic variance), used for reported standard errors.
BASELINE_ARE = {"loglog": 0.592, "hll": 0.925, "mincount": 1.00}

MINCOUNT_K = 3


def _leading_zeros64(w: np.ndarray) -> np.ndarray:
    """Exact count of leading zero bits of uint64 values (64 for zero), from
    the bit length of each 32-bit half: its frexp exponent."""
    w = np.asarray(w, dtype=np.uint64)
    hi = np.frexp((w >> np.uint64(32)).astype(np.float64))[1]
    lo = np.frexp((w & np.uint64(0xFFFFFFFF)).astype(np.float64))[1]
    return np.where(hi > 0, 32 - hi, 64 - lo).astype(np.int64)


class _BucketSketch(state.Sketch):
    def __init__(self, m: int, seed: int = 0):
        if m < 2 or m & (m - 1):
            raise ValueError(f"m must be a power of two >= 2, got {m}")
        super().__init__(m, seed)
        self.p = self.m.bit_length() - 1

    def add_batch(self, items, d=None) -> None:
        """Ingest many items at once; these sketches cannot delete, so
        quantities, if given, must all be positive."""
        reject_deletions(d, self)
        for words in hashing.word_tiles(hashing.keys_array(items), self.salt, 1):
            self._absorb_words(words[:, 0])

    def _absorb_words(self, words: np.ndarray) -> None:
        """Fold one tile of words into the state, keeping no reference to it."""
        raise NotImplementedError


def max_rank(m: int) -> int:
    """Largest first-1-bit rank of the 64 - log2(m) bits after the bucket."""
    return 64 - (int(m).bit_length() - 1) + 1


class _RankSketch(_BucketSketch):
    """Shared register machinery for LogLog and HyperLogLog."""

    layout = state.Vector("registers", "<u1", max_rank, "registers")

    def __init__(self, m: int, seed: int = 0):
        super().__init__(m, seed)
        self.registers = np.zeros(m, dtype=np.uint8)
        self.max_rank = max_rank(self.m)

    def _absorb_words(self, words: np.ndarray) -> None:
        buckets = (words >> np.uint64(64 - self.p)).astype(np.int64)
        rest = words << np.uint64(self.p)
        rank = np.minimum(_leading_zeros64(rest) + 1, self.max_rank).astype(np.uint8)
        np.maximum.at(self.registers, buckets, rank)


def _loglog_alpha(m: int) -> float:
    return (math.gamma(-1.0 / m) * (1.0 - 2.0 ** (1.0 / m)) / math.log(2.0)) ** (-m)


class LogLogSketch(_RankSketch):
    """m first-1-bit-rank maxima; estimate from their arithmetic mean."""

    def estimate(self, level: float = 0.95) -> Estimate:
        if not self.registers.any():
            raise DegenerateSketchError("all registers empty")
        c_hat = _loglog_alpha(self.m) * self.m * 2.0 ** float(self.registers.mean())
        se = c_hat / math.sqrt(BASELINE_ARE["loglog"] * self.m)
        return normal_estimate(c_hat, se, level, "loglog", self.m)


def _hll_alpha(m: int) -> float:
    if m <= 16:
        return 0.673
    if m <= 32:
        return 0.697
    if m <= 64:
        return 0.709
    return 0.7213 / (1.0 + 1.079 / m)


class HyperLogLogSketch(_RankSketch):
    """Harmonic-mean estimator over the rank maxima, with the published
    bias constant and small-range (linear counting) correction."""

    def estimate(self, level: float = 0.95) -> Estimate:
        if not self.registers.any():
            raise DegenerateSketchError("all registers empty")
        m = self.m
        raw = _hll_alpha(m) * m * m / float((2.0 ** -self.registers.astype(np.float64)).sum())
        zeros = int((self.registers == 0).sum())
        c_hat = m * math.log(m / zeros) if raw <= 2.5 * m and zeros else raw
        se = c_hat / math.sqrt(BASELINE_ARE["hll"] * m)
        return normal_estimate(c_hat, se, level, "hll", m)


class MinCountSketch(_BucketSketch):
    """Keeps the three smallest distinct post-bucket uniforms per bucket
    (ascending, inf-padded); estimates each bucket's load by the unbiased
    (k-1)/M rule on the third minimum and sums the buckets."""

    layout = state.Rows("smallest", np.inf, MINCOUNT_K, "mincount rows")

    def __init__(self, m: int, seed: int = 0):
        super().__init__(m, seed)
        self.smallest = np.full((m, MINCOUNT_K), np.inf)

    def _absorb_words(self, words: np.ndarray) -> None:
        # sorted words are sorted by (bucket, value); repeated values (of a
        # repeated item, say) are dropped before the first k are taken
        words = np.sort(words)
        buckets = (words >> np.uint64(64 - self.p)).astype(np.int64)
        values = hashing.unit_array(words << np.uint64(self.p))
        new = np.r_[True, (buckets[1:] != buckets[:-1]) | (values[1:] != values[:-1])]
        buckets, values = buckets[new], values[new]
        rank = np.arange(len(buckets)) - np.searchsorted(buckets, buckets)
        first = rank < MINCOUNT_K
        cand = np.full((self.m, MINCOUNT_K), np.inf)
        cand[buckets[first], rank[first]] = values[first]
        self.smallest = state.merge_rows(self.smallest, cand, descending=False)

    def estimate(self, level: float = 0.95) -> Estimate:
        third = self.smallest[:, MINCOUNT_K - 1]
        if not np.all(np.isfinite(third)):
            raise InsufficientDataError(
                f"every bucket needs at least {MINCOUNT_K} items for the "
                f"{MINCOUNT_K}rd-order-statistic estimator"
            )
        with np.errstate(over="ignore"):  # Estimate refuses an infinite c_hat
            c_hat = float(((MINCOUNT_K - 1) / third).sum())
        se = c_hat / math.sqrt(BASELINE_ARE["mincount"] * self.m)
        return normal_estimate(c_hat, se, level, "mincount", self.m)

    def state_bytes(self) -> int:
        # the stored sketch is one float (the third minimum) per bucket
        return self.m * 8
