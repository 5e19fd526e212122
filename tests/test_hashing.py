"""Seeded-hashing determinism, distributional correctness and transforms."""

import math

import numpy as np
import pytest
from scipy.stats import kstest, ks_2samp

from cardsketch import hashing
from cardsketch.hashing import (
    HashConfig,
    exponential_variate,
    geometric_variate,
    item_key,
    stable_log_variate,
    uniform_stream,
)

CFG = HashConfig(m=8, salt=99)


class TestDeterminism:
    def test_repeat_query_identical(self):
        a = uniform_stream("a", 0, CFG)
        b = uniform_stream("a", 0, CFG)
        assert a == b

    def test_streams_differ(self):
        assert uniform_stream("a", 0, CFG) != uniform_stream("a", 1, CFG)

    def test_salt_changes_everything(self):
        other = HashConfig(m=8, salt=100)
        assert uniform_stream("a", 0, CFG) != uniform_stream("a", 0, other)

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            uniform_stream("a", 8, CFG)

    def test_item_key_types(self):
        assert item_key("abc") == item_key(b"abc")
        assert item_key(7) == 7
        assert item_key(2**64 + 3) == 3
        with pytest.raises(TypeError):
            item_key(1.5)

    def test_scalar_matches_vector(self):
        keys = np.arange(200, dtype=np.uint64)
        block = hashing.uniform_block(keys, 99, 0, 4)
        for i in (0, 17, 199):
            for j in range(4):
                assert block[i, j] == hashing.uniform_at(int(keys[i]), j, 99)

    def test_stable_scalar_matches_vector(self):
        keys = np.arange(50, dtype=np.uint64)
        block = hashing.stable_log_block(keys, 5, 3, 0.3)
        for i in (0, 49):
            for j in range(3):
                assert block[i, j] == hashing.stable_log_at(int(keys[i]), j, 5, 0.3)

    def test_stable_scalar_matches_vector_small_alpha(self):
        # separate scalar math.* arithmetic differed here in 1860 of 32000
        # entries, by up to 2e-13 relative
        keys = np.arange(2000, dtype=np.uint64)
        block = hashing.stable_log_block(keys, 7, 16, 0.05)
        for i in range(0, 2000, 7):
            for j in range(16):
                assert block[i, j] == hashing.stable_log_at(int(keys[i]), j, 7, 0.05)

    def test_keys_array(self):
        keys = np.array([3, 2**64 - 1], dtype=np.uint64)
        assert hashing.keys_array(keys) is keys
        folded = hashing.keys_array(["a", b"a", 7])
        assert folded.dtype == np.uint64
        assert folded.tolist() == [item_key("a"), item_key("a"), 7]


class TestUniform:
    def test_open_interval(self):
        u = hashing.uniform_block(np.arange(10**5, dtype=np.uint64), 1, 0, 1)
        assert u.min() > 0.0 and u.max() < 1.0

    def test_ks_against_uniform(self):
        # 1e5 distinct items, one variate each
        u = hashing.uniform_block(np.arange(10**5, dtype=np.uint64), 7, 0, 1)[:, 0]
        d = kstest(u, "uniform").statistic
        assert d < 1.628 / math.sqrt(len(u))  # 1% critical value

    def test_stream_pairwise_correlation(self):
        u = hashing.uniform_block(np.arange(10**5, dtype=np.uint64), 11, 0, 2)
        r = np.corrcoef(u[:, 0], u[:, 1])[0, 1]
        assert abs(r) < 0.01


class TestExponential:
    def test_inverse_cdf_point(self):
        assert exponential_variate(1.0 - math.exp(-1.0)) == pytest.approx(1.0, rel=1e-12)

    def test_boundary(self):
        assert 0.0 < exponential_variate(1e-12) < 2e-12

    def test_domain(self):
        for bad in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                exponential_variate(bad)

    def test_mean(self):
        u = hashing.uniform_block(np.arange(10**5, dtype=np.uint64), 3, 0, 1)[:, 0]
        assert exponential_variate(u).mean() == pytest.approx(1.0, abs=0.01)


class TestGeometric:
    def test_inverse_cdf_points(self):
        assert geometric_variate(0.4, 0.5) == 1
        assert geometric_variate(0.6, 0.5) == 2

    def test_frequency_of_one(self):
        # P(X=1) = 1-q = 1/11 for q=10/11
        u = hashing.uniform_block(np.arange(10**5, dtype=np.uint64), 5, 0, 1)[:, 0]
        y = geometric_variate(u, 10.0 / 11.0)
        assert np.mean(y == 1) == pytest.approx(1.0 / 11.0, abs=0.005)

    def test_matches_brute_force_inverse_cdf(self):
        # oracle: scan x = 1, 2, ... for the first with 1-q^x >= u
        rng = np.random.default_rng(2)
        for u in rng.random(200):
            q = 0.7
            x = 1
            while 1.0 - q**x < u:
                x += 1
            assert geometric_variate(float(u), q) == x

    def test_domain(self):
        with pytest.raises(ValueError):
            geometric_variate(0.5, 1.0)
        with pytest.raises(ValueError):
            geometric_variate(0.0, 0.5)


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

    def test_domain(self):
        with pytest.raises(ValueError):
            stable_log_variate(0.5, 1.0, 1.5)
        with pytest.raises(ValueError):
            stable_log_variate(0.5, -1.0, 0.5)
        with pytest.raises(ValueError):
            stable_log_variate(1.0, 1.0, 0.5)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            HashConfig(m=0)
        with pytest.raises(ValueError):
            HashConfig(m=4, kind="geometric")
        with pytest.raises(ValueError):
            HashConfig(m=4, kind="geometric", q=1.0)
        with pytest.raises(ValueError):
            HashConfig(m=4, kind="stable", alpha=0.0)
        with pytest.raises(ValueError):
            HashConfig(m=4, kind="nope")

    def test_variate_dispatch(self):
        assert 0 < hashing.variate("x", 0, HashConfig(m=2)) < 1
        assert hashing.variate("x", 0, HashConfig(m=2, kind="exponential")) > 0
        assert hashing.variate("x", 0, HashConfig(m=2, kind="geometric", q=0.5)) >= 1
        assert hashing.variate("x", 0, HashConfig(m=2, kind="bernoulli", p=0.5)) in (0, 1)
        assert isinstance(
            hashing.variate("x", 0, HashConfig(m=2, kind="stable", alpha=0.3)), float
        )


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
