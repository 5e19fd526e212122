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
from .errors import DegenerateSketchError, InsufficientDataError
from .estimate import Estimates, fail, normal_estimates

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

    def _absorb(self, keys: np.ndarray, d: np.ndarray) -> None:
        for words in hashing.word_tiles(keys, self.salt, 1):
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
        self.max_rank = max_rank(self.m)

    def _absorb_words(self, words: np.ndarray) -> None:
        buckets = (words >> np.uint64(64 - self.p)).astype(np.int64)
        rest = words << np.uint64(self.p)
        rank = np.minimum(_leading_zeros64(rest) + 1, self.max_rank).astype(np.uint8)
        np.maximum.at(self.registers, buckets, rank)


def _loglog_alpha(m: int) -> float:
    return (math.gamma(-1.0 / m) * (1.0 - 2.0 ** (1.0 / m)) / math.log(2.0)) ** (-m)


def _registers_set(empty, errors: list) -> None:
    """Give each row flagged in empty (all registers 0) its error."""
    fail(errors, empty, lambda i: DegenerateSketchError("all registers empty"))


class LogLogSketch(_RankSketch):
    """m first-1-bit-rank maxima; estimate from their arithmetic mean."""

    @classmethod
    def estimates(cls, registers, level: float) -> Estimates:
        """Estimates of each row of the (sketches, m) registers."""
        errors = [None] * len(registers)
        mean = registers.mean(axis=1)
        _registers_set(mean == 0.0, errors)
        m = registers.shape[1]
        powers = np.array([2.0 ** v for v in mean.tolist()])
        c_hat = _loglog_alpha(m) * m * powers
        se = c_hat / math.sqrt(BASELINE_ARE["loglog"] * m)
        with np.errstate(all="ignore"):
            return normal_estimates(c_hat, se, level, "loglog", m, errors)


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

    @classmethod
    def estimates(cls, registers, level: float) -> Estimates:
        """Estimates of each row of the (sketches, m) registers."""
        errors = [None] * len(registers)
        m = registers.shape[1]
        zeros = (registers == 0).sum(axis=1)
        _registers_set(zeros == m, errors)
        raw = _hll_alpha(m) * m * m / (2.0 ** -registers.astype(np.float64)).sum(axis=1)
        linear = np.flatnonzero((raw <= 2.5 * m) & (zeros > 0))
        c_hat = raw.copy()
        c_hat[linear] = [m * math.log(m / z) for z in zeros[linear].tolist()]
        se = c_hat / math.sqrt(BASELINE_ARE["hll"] * m)
        with np.errstate(all="ignore"):
            return normal_estimates(c_hat, se, level, "hll", m, errors)


class MinCountSketch(_BucketSketch):
    """Keeps the three smallest distinct post-bucket uniforms per bucket
    (ascending, inf-padded); estimates each bucket's load by the unbiased
    (k-1)/M rule on the third minimum and sums the buckets."""

    layout = state.Rows("smallest", np.inf, MINCOUNT_K, "mincount rows")

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
        self.smallest = self.layout.joined(self.smallest, cand)[0]

    @classmethod
    def estimates(cls, smallest, level: float) -> Estimates:
        """Estimates of each (m, 3) matrix of the (sketches, m, 3) stack."""
        third = smallest[:, :, MINCOUNT_K - 1]
        errors = [None] * len(third)
        fail(errors, ~np.isfinite(third).all(axis=1), lambda i: InsufficientDataError(
            f"every bucket needs at least {MINCOUNT_K} items for the "
            f"{MINCOUNT_K}rd-order-statistic estimator"))
        m = third.shape[1]
        with np.errstate(all="ignore"):  # Estimate refuses an infinite c_hat
            c_hat = ((MINCOUNT_K - 1) / third).sum(axis=1)
            se = c_hat / math.sqrt(BASELINE_ARE["mincount"] * m)
            return normal_estimates(c_hat, se, level, "mincount", m, errors)

    def state_bytes(self) -> int:
        # the stored sketch is one float (the third minimum) per bucket
        return self.m * 8
