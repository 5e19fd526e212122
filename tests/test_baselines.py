"""LogLog / HyperLogLog / MinCount semantics and estimator quality."""

import math

import numpy as np
import pytest

from cardsketch import hashing, sampling
from cardsketch.baselines import (
    MINCOUNT_K,
    HyperLogLogSketch,
    LogLogSketch,
    MinCountSketch,
    _leading_zeros64,
    _loglog_alpha,
)
from cardsketch.errors import (
    DegenerateSketchError,
    InsufficientDataError,
    UnsupportedDeletionError,
)
from cardsketch.experiment import ExperimentConfig, run_experiment
from cardsketch.streams import distinct_keys


class TestPlumbing:
    def test_leading_zeros_exact(self):
        vals = np.array([0, 1, 2, 3, 2**63, 2**63 - 1, 12345], dtype=np.uint64)
        expected = [64, 63, 62, 62, 0, 1, 50]
        assert _leading_zeros64(vals).tolist() == expected

    def test_leading_zeros_match_bit_length_at_every_edge(self):
        # the exponent-field count is exact down to 2**11, and below it
        # every word takes the small-word path
        edges = [0, 2**11 - 1, 2**11 + 1, 2**53 - 1, 2**53 + 1,
                 2**64 - 2**11 - 1, 2**64 - 2**11 + 1, 2**64 - 1]
        edges += [2**i for i in range(64)] + [2**i - 1 for i in range(65)]
        rng = np.random.default_rng(25)
        words = rng.integers(0, 2**64 - 1, size=10**5, dtype=np.uint64, endpoint=True)
        # and as many again spread over every bit length
        shifted = words >> rng.integers(0, 64, size=10**5).astype(np.uint64)
        vals = np.concatenate([np.array(edges, dtype=np.uint64), words, shifted])
        expected = [64 - v.bit_length() for v in vals.tolist()]
        got = _leading_zeros64(vals)
        assert got.dtype == np.int64
        assert got.tolist() == expected

    def test_m_must_be_power_of_two(self):
        with pytest.raises(ValueError):
            LogLogSketch(100)

    def test_duplicate_invariance(self):
        sk = HyperLogLogSketch(64, seed=1)
        sk.add_batch(["x", "y", "z"])
        before = sk.registers.copy()
        sk.add("x")
        sk.add_batch(["y", "z", "x"])
        np.testing.assert_array_equal(sk.registers, before)

    def test_permutation_invariance(self):
        keys = distinct_keys(500, seed=2)
        rng = np.random.default_rng(1)
        a = MinCountSketch(16, seed=3)
        b = MinCountSketch(16, seed=3)
        a.add_batch(keys)
        b.add_batch(keys[rng.permutation(len(keys))])
        np.testing.assert_array_equal(a.smallest, b.smallest)

    @pytest.mark.parametrize("cls", [LogLogSketch, HyperLogLogSketch, MinCountSketch])
    def test_deletions_rejected(self, cls):
        sk = cls(16, seed=2)
        sk.add_batch(["a", "b"], [1, 3])
        before = vars(sk).copy()
        for bad in (-1, 0):
            with pytest.raises(UnsupportedDeletionError):
                sk.add("c", d=bad)
            with pytest.raises(UnsupportedDeletionError):
                sk.add_batch(["c", "d"], [1, bad])
        for key, value in before.items():
            np.testing.assert_array_equal(vars(sk)[key], value)
        plain = cls(16, seed=2)
        plain.add_batch(["a", "b"])
        for key, value in vars(plain).items():
            np.testing.assert_array_equal(vars(sk)[key], value)

    @pytest.mark.parametrize("cls", [LogLogSketch, HyperLogLogSketch, MinCountSketch])
    def test_empty_batch_leaves_state_alone(self, cls):
        sk = cls(16, seed=2)
        sk.add_batch(["a", "b"])
        before = {k: np.copy(v) for k, v in vars(sk).items()}
        sk.add_batch([])
        sk.add_batch(np.array([], dtype=np.uint64))
        for key, value in before.items():
            np.testing.assert_array_equal(vars(sk)[key], value)

    def test_single_item_touches_one_register(self):
        sk = LogLogSketch(32, seed=4)
        sk.add("solo")
        assert int((sk.registers > 0).sum()) == 1

    def test_merge_equals_single_pass(self):
        keys = distinct_keys(400, seed=5)
        for cls in (LogLogSketch, HyperLogLogSketch, MinCountSketch):
            whole = cls(32, seed=6)
            whole.add_batch(keys)
            a, b = cls(32, seed=6), cls(32, seed=6)
            a.add_batch(keys[:150])
            b.add_batch(keys[150:])
            merged = a.merge(b)
            if cls is MinCountSketch:
                np.testing.assert_array_equal(merged.smallest, whole.smallest)
            else:
                np.testing.assert_array_equal(merged.registers, whole.registers)


def _mincount_oracle(keys, m, salt):
    """MinCount rows from the counter-0 word of each key: per bucket, the
    MINCOUNT_K smallest distinct values by np.unique, inf-padded."""
    words = hashing.mix64_array(hashing.digest_array(keys, salt)
                                + np.uint64(0x9E3779B97F4A7C15))
    p = m.bit_length() - 1
    buckets = words >> np.uint64(64 - p)
    values = hashing.unit_array(words << np.uint64(p))
    rows = np.full((m, MINCOUNT_K), np.inf)
    for b in range(m):
        best = np.unique(values[buckets == b])[:MINCOUNT_K]
        rows[b, :len(best)] = best
    return rows


class TestMinCountRows:
    def test_matches_per_bucket_oracle(self):
        keys = distinct_keys(700, seed=3)
        sk = MinCountSketch(16, seed=5)
        sk.add_batch(keys)
        assert sk.smallest.tobytes() == _mincount_oracle(keys, 16, 5).tobytes()

    def test_repeated_batch_equals_distinct_batch(self):
        keys = distinct_keys(3000, seed=7)
        a, b = MinCountSketch(64, seed=1), MinCountSketch(64, seed=1)
        a.add_batch(np.repeat(keys, 2))
        b.add_batch(keys)
        assert a.smallest.tobytes() == b.smallest.tobytes()

    def test_batch_repeating_its_items_loses_nothing(self):
        # a middle batch that repeats its items used to crowd distinct
        # values out of the buckets and shift the estimate with no error
        keys = distinct_keys(400, seed=8)
        split = MinCountSketch(4, seed=2)
        split.add_batch(keys[:100])
        split.add_batch(np.repeat(keys[100:300], 3))
        split.add_batch(keys[300:])
        whole = MinCountSketch(4, seed=2)
        whole.add_batch(keys)
        assert split.smallest.tobytes() == whole.smallest.tobytes()
        assert split.estimate().c_hat == whole.estimate().c_hat

    def test_hash_mode_with_repeats_has_no_failed_replicate(self):
        cfg = ExperimentConfig(c=3000, m=64, algos=("mincount", "hll"), replicates=5,
                               repeats=2, method="hash", seed=1)
        summary = run_experiment(cfg).summary
        assert summary["mincount"]["failed"] == summary["hll"]["failed"] == 0

    @pytest.mark.parametrize("parts", [2, 3, 7])
    def test_merge_of_overlapping_parts_equals_one_pass(self, parts):
        rng = np.random.default_rng(parts)
        keys = distinct_keys(900, seed=parts)
        whole = MinCountSketch(32, seed=4)
        whole.add_batch(keys)
        merged = MinCountSketch(32, seed=4)
        for part in np.array_split(keys[rng.permutation(len(keys))], parts):
            sk = MinCountSketch(32, seed=4)
            sk.add_batch(np.concatenate([part, part[:10], keys[:5]]))
            merged = merged.merge(sk)
        assert merged.smallest.tobytes() == whole.smallest.tobytes()


class TestEstimators:
    def test_hll_all_registers_equal(self):
        m, r = 64, 5
        sk = HyperLogLogSketch.from_state(m, 0, np.full(m, r, dtype=np.uint8))
        # harmonic mean of equal terms: alpha_m * m * 2^r
        assert sk.estimate().c_hat == pytest.approx(0.709 * m * 2.0**r)

    def test_hll_small_range_correction(self):
        m = 64
        regs = np.zeros(m, dtype=np.uint8)
        regs[:8] = 1
        sk = HyperLogLogSketch.from_state(m, 0, regs)
        assert sk.estimate().c_hat == pytest.approx(m * math.log(m / 56.0))

    def test_empty_errors(self):
        for cls in (LogLogSketch, HyperLogLogSketch):
            with pytest.raises(DegenerateSketchError):
                cls(32, seed=0).estimate()
        with pytest.raises(InsufficientDataError):
            MinCountSketch(32, seed=0).estimate()

    def test_loglog_alpha_constant(self):
        # the bias constant approaches 0.39701 for large m
        assert _loglog_alpha(4096) == pytest.approx(0.39701, abs=2e-3)

    def test_hash_path_accuracy(self):
        keys = distinct_keys(20000, seed=7)
        for cls, tol in ((HyperLogLogSketch, 0.15), (MinCountSketch, 0.15),
                         (LogLogSketch, 0.25)):
            sk = cls(256, seed=8)
            sk.add_batch(keys)
            assert abs(sk.estimate().c_hat - 20000) / 20000 < tol

    def test_reported_std_errors_use_table_constants(self):
        rng = np.random.default_rng(3)
        m = 256
        ll = sampling.sample_loglog(10**4, m, rng).estimate()
        assert ll.std_error == pytest.approx(ll.c_hat / math.sqrt(0.592 * m))
        hll = sampling.sample_hll(10**4, m, rng).estimate()
        assert hll.std_error == pytest.approx(hll.c_hat / math.sqrt(0.925 * m))
        mc = sampling.sample_mincount(10**4, m, rng).estimate()
        assert mc.std_error == pytest.approx(mc.c_hat / math.sqrt(1.0 * m))


class TestEmpiricalEfficiency:
    def test_are_matches_published_constants(self):
        # empirical ARE vs the continuous maximal-term at c=1e5, m=2^10,
        # 500 replicates must sit within +-20% of the published column
        rng = np.random.default_rng(31)
        c, m, reps = 10**5, 2**10, 500
        est = {"loglog": [], "hll": [], "mincount": [], "max": []}
        for _ in range(reps):
            est["loglog"].append(sampling.sample_loglog(c, m, rng).estimate().c_hat)
            est["hll"].append(sampling.sample_hll(c, m, rng).estimate().c_hat)
            est["mincount"].append(sampling.sample_mincount(c, m, rng).estimate().c_hat)
            est["max"].append(sampling.sample_continuous(c, m, rng).estimate().c_hat)
        base = c * c / m
        for name, target in (("loglog", 0.592), ("hll", 0.925), ("mincount", 1.00)):
            are = base / np.var(np.array(est[name]), ddof=1)
            assert abs(are - target) / target < 0.20, f"{name}: {are:.3f}"
        are_max = base / np.var(np.array(est["max"]), ddof=1)
        assert abs(are_max - 1.0) < 0.20
