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

_POWERS = 2.0 ** -np.arange(256.0)  # 2**-r at every u1 register value r


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


def _all_empty(i: int) -> DegenerateSketchError:
    return DegenerateSketchError("all registers empty")


class LogLogSketch(_RankSketch):
    """m first-1-bit-rank maxima; estimate from their arithmetic mean."""

    @classmethod
    def estimates(cls, registers, level: float) -> Estimates:
        """Estimates of each row of the (sketches, m) registers."""
        errors = [None] * len(registers)
        m = registers.shape[1]
        # registers.mean(axis=1), without its Python-level wrapper
        mean = (np.add.reduce(registers, axis=1, dtype=np.float64) / m).tolist()
        fail(errors, [v == 0.0 for v in mean], _all_empty)
        c_hat = _loglog_alpha(m) * m * np.array([2.0 ** v for v in mean])
        with np.errstate(all="ignore"):
            return normal_estimates(c_hat, BASELINE_ARE["loglog"] * m, level, "loglog", m, errors)


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
        zeros = np.add.reduce(registers == 0, axis=1).tolist()
        fail(errors, [z == m for z in zeros], _all_empty)
        raw = _hll_alpha(m) * m * m / np.add.reduce(_POWERS[registers], axis=1)
        # linear counting in the small range
        c_hat = np.array([m * math.log(m / z) if r <= 2.5 * m and z > 0 else r
                          for r, z in zip(raw.tolist(), zeros)])
        with np.errstate(all="ignore"):
            return normal_estimates(c_hat, BASELINE_ARE["hll"] * m, level, "hll", m, errors)


class MinCountSketch(_BucketSketch):
    """Keeps the three smallest distinct post-bucket uniforms per bucket
    (ascending, inf-padded); estimates each bucket's load by the unbiased
    (k-1)/M rule on the third minimum and sums the buckets.  A tile's
    words are sorted, repeats dropped, and the first three of each bucket
    joined into the rows by the layout's ``absorbed``."""

    layout = state.Rows("smallest", np.inf, MINCOUNT_K, "mincount rows")

    def _absorb_words(self, words: np.ndarray) -> None:
        # sorted words are sorted by (bucket, value); repeated values (of a
        # repeated item, say) are dropped before the first k are taken
        words = np.sort(words)
        buckets = (words >> np.uint64(64 - self.p)).astype(np.int64)
        values = hashing.unit_array(words << np.uint64(self.p))
        new = np.r_[True, (buckets[1:] != buckets[:-1]) | (values[1:] != values[:-1])]
        buckets, values = buckets[new], values[new]
        first = np.arange(len(buckets)) - np.searchsorted(buckets, buckets) < MINCOUNT_K
        self.layout.absorbed(self.smallest, buckets[first], values[first])

    @classmethod
    def estimates(cls, smallest, level: float) -> Estimates:
        """Estimates of each (m, 3) matrix of the (sketches, m, 3) stack."""
        third = smallest[:, :, MINCOUNT_K - 1]
        errors = [None] * len(third)
        # values lie in (0, 1], and inf pads a bucket with fewer
        fail(errors, [v == math.inf for v in np.maximum.reduce(third, axis=1).tolist()],
             lambda i: InsufficientDataError(f"every bucket needs at least {MINCOUNT_K} items "
                                             f"for the {MINCOUNT_K}rd-order-statistic estimator"))
        m = third.shape[1]
        with np.errstate(all="ignore"):  # Estimate refuses an infinite c_hat
            c_hat = np.add.reduce((MINCOUNT_K - 1) / third, axis=1)
            return normal_estimates(c_hat, BASELINE_ARE["mincount"] * m, level, "mincount", m,
                                    errors)

    def state_bytes(self) -> int:
        # the stored sketch is one float (the third minimum) per bucket
        return self.m * 8
