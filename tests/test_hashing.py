"""Seeded-hashing determinism, distributional correctness and transforms."""

import math
import tracemalloc
from decimal import Decimal, localcontext

import numpy as np
import pytest
from scipy.stats import kstest, ks_2samp

from cardsketch import hashing
from cardsketch.hashing import item_key, stable_log_variate
from cardsketch.order_sketch import geometric_slots


def uniform_block(keys: np.ndarray, salt: int, counter_lo: int, counter_hi: int) -> np.ndarray:
    """(len(keys), counter_hi-counter_lo) matrix of uniforms: ``unit_array``
    of the words of counters lo..hi-1, the reference for the tiled paths."""
    steps = np.arange(counter_lo + 1, counter_hi + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    dig = hashing.digest_array(keys, salt)
    return hashing.unit_array(hashing.mix64_array(dig[:, None] + steps[None, :]))


def raw_word_oracle(key: int, counter: int, salt: int) -> int:
    """Scalar splitmix64 reference for the word at a counter position."""
    step = (counter + 1) * 0x9E3779B97F4A7C15
    return hashing.mix64(hashing.mix64(key ^ hashing.salt_base(salt)) + step)


def uniform_oracle(key: int, counter: int, salt: int) -> float:
    """Scalar reference for ``unit_array`` of that word."""
    return min(((raw_word_oracle(key, counter, salt) >> 11) + 0.5) * 2.0**-53,
               1.0 - 2.0**-53)


def stable_log_oracle(keys, salt: int, m: int, alpha: float) -> np.ndarray:
    """log X variates from the even (u) and odd (w) counter columns of
    ``uniform_block``."""
    u = uniform_block(keys, salt, 0, 2 * m)
    return stable_log_variate(u[:, 0::2], -np.log1p(-u[:, 1::2]), alpha)


def stable_log_tiles(keys, salt: int, m: int, alpha: float) -> np.ndarray:
    """Every tile of ``stable_log_tiles`` stacked, its row slices checked to
    cover the keys in order."""
    tiles = list(hashing.stable_log_tiles(keys, salt, m, alpha))
    lo = 0
    for rows, lx in tiles:
        assert (rows.start, rows.stop) == (lo, lo + len(lx))
        lo += len(lx)
    assert lo == len(keys)
    return np.vstack([lx for _, lx in tiles])


def _uniform(item, j: int, salt: int) -> float:
    return float(uniform_block(hashing.keys_array([item]), salt, j, j + 1)[0, 0])


class TestDeterminism:
    def test_repeat_query_identical(self):
        keys = np.arange(100, dtype=np.uint64)
        a = uniform_block(keys, 99, 0, 8)
        b = uniform_block(keys, 99, 0, 8)
        np.testing.assert_array_equal(a, b)

    def test_streams_differ(self):
        assert _uniform("a", 0, 99) != _uniform("a", 1, 99)

    def test_salt_changes_everything(self):
        assert _uniform("a", 0, 99) != _uniform("a", 0, 100)

    def test_item_key_types(self):
        assert item_key("abc") == item_key(b"abc") == item_key(bytearray(b"abc"))
        assert item_key(7) == 7
        assert item_key(np.uint64(2**64 - 1)) == 2**64 - 1
        for bad in (1.5, True, np.bool_(False), -1, 2**64 + 3, np.int64(-1)):
            with pytest.raises(TypeError):
                item_key(bad)

    def test_scalar_matches_vector(self):
        keys = np.arange(200, dtype=np.uint64)
        block = uniform_block(keys, 99, 0, 4)
        for i in (0, 17, 199):
            for j in range(4):
                assert block[i, j] == uniform_oracle(int(keys[i]), j, 99)

    def test_stable_scalar_matches_vector(self):
        keys = np.arange(50, dtype=np.uint64)
        block = stable_log_tiles(keys, 5, 3, 0.3)
        np.testing.assert_array_equal(block, stable_log_oracle(keys, 5, 3, 0.3))
        for i in (0, 49):
            np.testing.assert_array_equal(
                stable_log_tiles(keys[i:i + 1], 5, 3, 0.3)[0], block[i])

    def test_stable_scalar_matches_vector_small_alpha(self):
        # separate scalar math.* arithmetic differed here in 1860 of 32000
        # entries, by up to 2e-13 relative; a one-row tile must not.  At
        # m=16 the 2000 keys span two word tiles.
        keys = np.arange(2000, dtype=np.uint64)
        block = stable_log_tiles(keys, 7, 16, 0.05)
        np.testing.assert_array_equal(block, stable_log_oracle(keys, 7, 16, 0.05))
        for i in range(0, 2000, 7):
            np.testing.assert_array_equal(
                stable_log_tiles(keys[i:i + 1], 7, 16, 0.05)[0], block[i])

    def test_keys_array(self):
        keys = np.array([3, 2**64 - 1], dtype=np.uint64)
        assert hashing.keys_array(keys) is keys
        folded = hashing.keys_array(["a", b"a", 7])
        assert folded.dtype == np.uint64
        assert folded.tolist() == [item_key("a"), item_key("a"), 7]
        assert hashing.keys_array([]).dtype == np.uint64
        with pytest.raises(TypeError):
            hashing.keys_array(np.array([5, -1]))
        with pytest.raises(TypeError):
            hashing.keys_array(np.array([True, False]))
        with pytest.raises(TypeError):
            hashing.keys_array(np.zeros((2, 2), dtype=np.uint64))

    @pytest.mark.parametrize("dtype", ["int8", "int16", "int32", "int64",
                                       "uint8", "uint16", "uint32"])
    def test_integer_arrays_convert_in_one_step(self, dtype, monkeypatch):
        info = np.iinfo(dtype)
        values = np.array([0, 1, 7, info.max, max(info.min, 0)], dtype=dtype)
        want = [item_key(v) for v in values]

        def per_element(item):
            raise AssertionError("an integer array went through item_key")

        monkeypatch.setattr(hashing, "item_key", per_element)
        keys = hashing.keys_array(values)
        assert keys.dtype == np.uint64
        assert keys.tolist() == want
        if info.min < 0:
            with pytest.raises(TypeError, match="outside"):
                hashing.keys_array(np.array([3, info.min], dtype=dtype))

    def test_text_fold_matches_item_key(self):
        rng = np.random.default_rng(8)
        alphabet = list("ab\x00\t é€😀") + ["\U0010ffff"]
        items = ["".join(rng.choice(alphabet, size=n)) for n in range(301)]
        items += ["", b"", b"\xff\xfe\x00", bytearray(b"ab"), 0, 2**64 - 1,
                  np.uint64(12345), "a" * 300, b"a" * 300]
        items = [items[i] for i in rng.permutation(len(items))]
        keys = hashing.keys_array(items)
        assert keys.tolist() == [item_key(it) for it in items]
        assert hashing.keys_array(range(4)).tolist() == [0, 1, 2, 3]
        assert hashing.keys_array(["é€😀"]).tolist() == [item_key("é€😀")]
        assert hashing.keys_array(["", ""]).tolist() == [item_key(b"")] * 2
        assert hashing.keys_array(iter(items)).tolist() == keys.tolist()

    def test_fold_spans_matches_item_key(self):
        # spans of one shared buffer: empty, repeated, overlapping and
        # nested, over non-ASCII text and arbitrary bytes, 0 to 99 bytes long
        rng = np.random.default_rng(15)
        text = "ab\x00\t é€😀\n".encode() * 40
        buf = np.frombuffer(text + rng.bytes(500), dtype=np.uint8)
        lens = rng.integers(0, 100, size=400)
        lens[:20] = 0
        starts = rng.integers(0, len(buf) - lens + 1)
        starts[20:40], lens[20:40] = starts[40:60], lens[40:60]
        starts[60:80], lens[60:80] = starts[80:100] + 1, lens[80:100] // 2
        keys = hashing.fold_spans(buf, starts, lens)
        assert keys.dtype == np.uint64
        spans = [buf[s:s + n].tobytes() for s, n in zip(starts.tolist(), lens.tolist())]
        assert keys.tolist() == [item_key(b) for b in spans]
        assert hashing.keys_array(spans).tolist() == keys.tolist()
        texts = [b.decode("utf-8", "replace") for b in spans]
        assert hashing.keys_array(texts).tolist() == [item_key(t) for t in texts]
        empty = hashing.fold_spans(buf, starts[:0], lens[:0])
        assert empty.dtype == np.uint64 and len(empty) == 0

    def test_fold_spans_of_very_long_and_short_ids(self):
        # a few ids of thousands of bytes, some of one length and more of
        # them than are folded one by one, among many short ones
        rng = np.random.default_rng(16)
        ids = [rng.bytes(int(n)) for n in rng.integers(0, 12, size=2000)]
        ids += [rng.bytes(5000) for _ in range(hashing._FEW_SPANS + 3)]
        ids += [b"x" * 20000, rng.bytes(7001), "é€😀".encode() * 900]
        ids = [ids[i] for i in rng.permutation(len(ids))]
        lens = np.array([len(b) for b in ids])
        buf = np.frombuffer(b"".join(ids), dtype=np.uint8)
        keys = hashing.fold_spans(buf, np.cumsum(lens) - lens, lens)
        assert keys.tolist() == [item_key(b) for b in ids]

    def test_a_long_id_costs_its_own_bytes_once(self):
        # the fold keeps counts only for the columns numpy folds, so the
        # 4 MiB id folded byte by byte costs about one copy of its bytes
        rng = np.random.default_rng(17)
        ids = [rng.bytes(int(n)) for n in rng.integers(0, 12, size=2 * hashing._FEW_SPANS)]
        ids[hashing._FEW_SPANS] = long_id = rng.bytes(4 << 20)
        lens = np.array([len(b) for b in ids])
        buf = np.frombuffer(b"".join(ids), dtype=np.uint8)
        starts = np.cumsum(lens) - lens
        tracemalloc.start()
        try:
            keys = hashing.fold_spans(buf, starts, lens)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert keys.tolist() == [item_key(b) for b in ids]
        assert peak < 3 * len(long_id)


class TestUnitArray:
    TOP = np.array([2**64 - 1, 2**64 - 2048], dtype=np.uint64)

    def test_top_words_stay_below_one(self):
        u = hashing.unit_array(self.TOP)
        assert (u == 1.0 - 2.0**-53).all()
        below = hashing.unit_array(np.array([2**64 - 2049], dtype=np.uint64))
        assert below[0] < u[0]

    def test_transforms_accept_the_top_word(self):
        u = hashing.unit_array(self.TOP)
        w = -np.log1p(-u)
        assert np.isfinite(w).all() and (w > 0).all()
        assert (geometric_slots(np.log(u), 0.5) >= 1).all()
        assert np.isfinite(stable_log_variate(u, w, 0.3)).all()


class TestUniform:
    def test_open_interval(self):
        u = uniform_block(np.arange(10**5, dtype=np.uint64), 1, 0, 1)
        assert u.min() > 0.0 and u.max() < 1.0

    def test_ks_against_uniform(self):
        # 1e5 distinct items, one variate each
        u = uniform_block(np.arange(10**5, dtype=np.uint64), 7, 0, 1)[:, 0]
        d = kstest(u, "uniform").statistic
        assert d < 1.628 / math.sqrt(len(u))  # 1% critical value

    def test_stream_pairwise_correlation(self):
        u = uniform_block(np.arange(10**5, dtype=np.uint64), 11, 0, 2)
        r = np.corrcoef(u[:, 0], u[:, 1])[0, 1]
        assert abs(r) < 0.01


class TestGeometric:
    """``geometric_slots``, the rounding the geometric max sketch applies,
    of uniforms given by their logs."""

    def test_inverse_cdf_points(self):
        assert geometric_slots(np.log([0.4, 0.6]), 0.5).tolist() == [1, 2]

    def test_frequency_of_one(self):
        # P(X=1) = 1-q = 1/11 for q=10/11
        u = uniform_block(np.arange(10**5, dtype=np.uint64), 5, 0, 1)[:, 0]
        y = geometric_slots(np.log(u), 10.0 / 11.0)
        assert np.mean(y == 1) == pytest.approx(1.0 / 11.0, abs=0.005)

    def test_matches_brute_force_inverse_cdf(self):
        # oracle: scan x = 1, 2, ... for the first with 1-q^x >= u
        rng = np.random.default_rng(2)
        u = rng.random(200)
        for q in (0.5, 0.7, 10.0 / 11.0):
            want = []
            for ui in u:
                x = 1
                while 1.0 - q**x < ui:
                    x += 1
                want.append(x)
            assert geometric_slots(np.log(u), q).tolist() == want

    def test_earliest_arrival_fits_u32_at_the_largest_q(self):
        # a hashed first arrival is at least about 2**-85 (m < 2**32)
        with np.errstate(all="raise"):
            y = geometric_slots(np.array([-2.0**-85]), 1.0 - 2.0**-26)
        assert y.dtype == np.uint32
        assert 3.9e9 < y[0] < 2**32 - 1


def _reflected_stable_log(u: float, w: float, alpha: float) -> float:
    """Kanter's log X in scalar math, each sin(pi*x) taken as
    math.sin(math.pi * r) on the exactly reflected r = min(x, 1 - x)."""
    def sin_pi(x):
        return math.sin(math.pi * min(x, 1.0 - x))
    return (math.log(sin_pi(alpha * u)) - math.log(sin_pi(u)) / alpha
            + (1.0 - alpha) / alpha * (math.log(sin_pi((1.0 - alpha) * u)) - math.log(w)))


_PI_50 = Decimal("3.14159265358979323846264338327950288419716939937510")


def _sin_pi_decimal(x: float) -> Decimal:
    """sin(pi*x) of the float x in [0, 1] to 40 digits: the exact
    reflection r = min(x, 1-x), then the Taylor series of sin(pi*r)."""
    with localcontext() as ctx:
        ctx.prec = 40
        r = min(Decimal(x), 1 - Decimal(x))
        t = _PI_50 * r
        term, total, k = t, t, 1
        while abs(term) > Decimal(10) ** -45:
            term = -term * t * t / ((2 * k) * (2 * k + 1))
            total += term
            k += 1
        return +total


class TestKanterSines:
    @pytest.mark.parametrize("alpha", [0.001, 0.05, 0.5, 0.95])
    def test_each_plane_within_2_5_ulps_of_a_40_digit_reference(self, alpha):
        # each plane is the sine of its rounded argument u, alpha*u or
        # (1-alpha)*u; the error is relative, in units of 2**-52
        rng = np.random.default_rng(29)
        # u at which each plane's argument comes to 1/2, where the error peaks
        half = 0.5 / np.array([1.0, alpha, 1.0 - alpha])
        near_half = np.concatenate([
            half, np.nextafter(half, 0.0), np.nextafter(half, 1.0),
            0.5 - rng.random(20) * 1e-3, 0.5 + rng.random(20) * 1e-3])
        u = np.concatenate([
            2.0 ** -np.arange(1.0, 61.0),
            near_half[near_half < 1.0],
            1.0 - 2.0 ** -np.array([53.0, 45.0, 40.0]),
            rng.random(300)])
        got = hashing.kanter_sines(u, alpha)
        args = np.multiply.outer((1.0, alpha, 1.0 - alpha), u)
        for plane in range(3):
            for x, g in zip(args[plane].tolist(), got[plane].tolist()):
                want = _sin_pi_decimal(x)
                err = abs(Decimal(g) - want) / (want * Decimal(2) ** -52)
                assert err <= 2.5, (plane, x, float(err))


class TestStable:
    def test_half_stable_matches_levy_oracle(self):
        # X with Laplace transform e^(-sqrt(lambda)) equals 1/(2 N^2) in law
        rng = np.random.default_rng(10)
        n = 10**5
        x = np.exp(stable_log_variate(rng.random(n), rng.exponential(size=n), 0.5))
        oracle = 1.0 / (2.0 * rng.standard_normal(n) ** 2)
        d = ks_2samp(x, oracle).statistic
        assert d < 1.628 * math.sqrt(2.0 / n)  # two-sample 1% critical value

    def test_laplace_transform_at_one(self):
        rng = np.random.default_rng(11)
        n = 10**5
        lx = stable_log_variate(rng.random(n), rng.exponential(size=n), 0.3)
        emp = np.exp(-np.exp(np.minimum(lx, 700.0))).mean()
        assert emp == pytest.approx(math.exp(-1.0), abs=0.01)

    def test_small_alpha_exponential_limit(self):
        # X^(-alpha) converges to Exp(1).  The law at alpha=0.05 sits about
        # 0.012 away from Exp(1) in sup distance, so the 1% critical value
        # is an honest ceiling only below n ~ (1.628/0.012)^2; use n=2500.
        rng = np.random.default_rng(4)
        n = 2500
        lx = stable_log_variate(rng.random(n), rng.exponential(size=n), 0.05)
        d = kstest(np.exp(-0.05 * lx), "expon").statistic
        assert d < 1.628 / math.sqrt(n)

    def test_exponential_limit_tightens_as_alpha_shrinks(self):
        rng = np.random.default_rng(13)
        n = 10**5
        u, w = rng.random(n), rng.exponential(size=n)
        dists = [
            kstest(np.exp(-a * stable_log_variate(u, w, a)), "expon").statistic
            for a in (0.2, 0.1, 0.05, 0.02)
        ]
        assert all(a > b for a, b in zip(dists, dists[1:]))

    def test_negative_moments(self):
        # E[X^-s] = Gamma(s/alpha + 1) / Gamma(s + 1)
        rng = np.random.default_rng(13)
        n = 2 * 10**5
        lx = stable_log_variate(rng.random(n), rng.exponential(size=n), 0.3)
        emp = np.exp(-0.15 * lx).mean()
        assert emp == pytest.approx(math.gamma(1.5) / math.gamma(1.15), rel=2e-3)

    @pytest.mark.parametrize("alpha", [0.05, 0.3, 0.9])
    def test_matches_reflected_reference_near_one(self, alpha):
        # the largest variates sit at u -> 1, where sin(pi*u) of the rounded
        # product pi*u keeps few digits; the reference reflects u first
        rng = np.random.default_rng(19)
        u = np.concatenate([1.0 - 2.0 ** -np.array([53.0, 45.0, 40.0]), rng.random(2000)])
        w = rng.exponential(size=len(u))
        want = [_reflected_stable_log(a, b, alpha) for a, b in zip(u.tolist(), w.tolist())]
        np.testing.assert_allclose(stable_log_variate(u, w, alpha), want, rtol=0.0, atol=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            stable_log_variate(0.5, 1.0, 1.5)
        with pytest.raises(ValueError):
            stable_log_variate(0.5, -1.0, 0.5)
        with pytest.raises(ValueError):
            stable_log_variate(1.0, 1.0, 0.5)


class TestMix64Array:
    def _words(self):
        rng = np.random.default_rng(3)
        return rng.integers(0, 2**64, size=(40, 5), dtype=np.uint64)

    def test_matches_scalar(self):
        z = self._words()
        expected = [[hashing.mix64(int(v)) for v in row] for row in z]
        assert hashing.mix64_array(z).tolist() == expected
        out = np.empty_like(z)
        assert hashing.mix64_array(z, out=out) is out
        assert out.tolist() == expected
        scratch = np.empty_like(z)
        hashing.mix64_array(z, out=z, scratch=scratch)
        assert z.tolist() == expected

    def test_in_place_leaves_input_untouched_without_aliasing(self):
        z = self._words()
        before = z.copy()
        hashing.mix64_array(z, out=np.empty_like(z))
        np.testing.assert_array_equal(z, before)
