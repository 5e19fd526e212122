"""Projection sketch: signed log-space accumulation, estimators, coupling."""

import math
import warnings

import numpy as np
import pytest
from scipy.stats import kstest

from cardsketch import hashing, projection, sampling
from cardsketch.errors import (
    DegenerateSketchError,
    StreamIntegrityError,
    UnsupportedDeletionError,
)
from cardsketch.projection import (
    ProjectionSketch,
    coupled_residuals,
    signed_add,
    stable_median_log,
)
from cardsketch.streams import distinct_keys, exact_count, generate_stream
from test_hashing import uniform_block


def _stable_log(keys, salt, m, alpha):
    """log X variates from the even (u) and odd (w) counter columns of
    ``uniform_block``: the reference for the tiled transform."""
    u = uniform_block(keys, salt, 0, 2 * m)
    return hashing.stable_log_variate(u[:, 0::2], -np.log1p(-u[:, 1::2]), alpha)


def _signed(*pairs):
    """signed_add arguments and result as plain lists of (sign, log) pairs."""
    s1, l1, s2, l2 = (np.array(v) for v in zip(*pairs))
    s, l = signed_add(s1.astype(np.int8), l1, s2.astype(np.int8), l2)
    assert s.dtype == np.int8
    return list(zip(s.tolist(), l.tolist()))


class TestSignedLogArithmetic:
    def test_zero_element(self):
        assert _signed((0, -math.inf, 1, 2.5), (-1, 0.3, 0, -math.inf),
                       (0, -math.inf, 0, -math.inf)) == [
            (1, 2.5), (-1, 0.3), (0, -math.inf)]

    def test_exact_cancellation(self):
        assert _signed((1, 1.234, -1, 1.234), (-1, -700.5, 1, -700.5)) == [
            (0, -math.inf), (0, -math.inf)]

    def test_same_sign_doubling_matches_scale(self):
        # x + x computed in log space equals log(2) + x bit for bit
        xs = [-3.7519, 0.0, 412.25]
        out = _signed(*[(s, x, s, x) for x in xs for s in (1, -1)])
        assert out == [(s, math.log(2.0) + x) for x in xs for s in (1, -1)]

    def test_opposite_signs(self):
        (s, l), (t, _) = _signed((1, math.log(5.0), -1, math.log(2.0)),
                                 (1, math.log(2.0), -1, math.log(5.0)))
        assert s == 1
        assert math.exp(l) == pytest.approx(3.0, rel=1e-12)
        assert t == -1

    def test_log_sub_branches(self):
        # both the log1p and expm1 branches of log(e^a - e^b)
        (_, far), (_, near) = _signed((1, 2.0, -1, -5.0), (1, 2.0, -1, 1.9999))
        assert math.exp(far) == pytest.approx(math.exp(2.0) - math.exp(-5.0), rel=1e-12)
        assert math.exp(near) == pytest.approx(math.exp(2.0) - math.exp(1.9999), rel=1e-9)

    def test_random_against_fsum(self):
        # a + b in signed log space against the correctly rounded sum of the
        # exponentials, over both signs, zeros and near-cancelling pairs
        rng = np.random.default_rng(3)
        n = 2000
        s1 = rng.choice(np.array([-1, 0, 1], dtype=np.int8), n)
        s2 = rng.choice(np.array([-1, 0, 1], dtype=np.int8), n)
        l1 = rng.uniform(-30.0, 30.0, n)
        l2 = np.where(rng.random(n) < 0.3, l1 + rng.uniform(-1e-6, 1e-6, n),
                      rng.uniform(-30.0, 30.0, n))
        l1[s1 == 0] = -np.inf
        l2[s2 == 0] = -np.inf
        s, l = signed_add(s1, l1, s2, l2)
        for i in range(n):
            a = int(s1[i]) * math.exp(l1[i]) if s1[i] else 0.0
            b = int(s2[i]) * math.exp(l2[i]) if s2[i] else 0.0
            want = math.fsum([a, b])
            got = int(s[i]) * math.exp(l[i]) if s[i] else 0.0
            assert np.sign(want) == s[i]
            # log-magnitudes up to 30 carry a few ulp(30) ~ 4e-15 of absolute
            # error, i.e. relative to the larger operand; cancellation keeps it
            assert abs(got - want) <= 1e-13 * max(abs(a), abs(b))


class TestUpdateLinearity:
    def test_insert_then_delete_cancels_exactly(self):
        sk = ProjectionSketch(8, alpha=0.1, seed=1)
        sk.add("a", 1)
        sk.add("a", -1)
        assert (sk.signs == 0).all()
        assert np.isneginf(sk.logmag).all()

    def test_single_add_cancels_batch_delete(self):
        # add() and add_batch() must hash to the same bits, or the pair
        # leaves a residue such as (+1, -33.0) in some streams
        for key in range(300):
            sk = ProjectionSketch(16, alpha=0.05, seed=1)
            sk.add(key, 1)
            sk.add_batch([key], [-1])
            assert (sk.signs == 0).all(), key
            assert np.isneginf(sk.logmag).all(), key

    def test_double_insert_equals_weight_two(self):
        a = ProjectionSketch(8, alpha=0.1, seed=1)
        b = ProjectionSketch(8, alpha=0.1, seed=1)
        a.add("a", 2)
        b.add("a", 1)
        b.add("a", 1)
        np.testing.assert_array_equal(a.signs, b.signs)
        np.testing.assert_array_equal(a.logmag, b.logmag)

    def test_single_item_state_is_hash_value(self):
        sk = ProjectionSketch(4, alpha=0.2, seed=3)
        sk.add("a", 1)
        block = _stable_log(hashing.keys_array(["a", "b"]), 3, 4, 0.2)
        np.testing.assert_array_equal(sk.logmag, block[0])
        assert (sk.signs == 1).all()

    def test_permutation_invariance_tolerance(self):
        keys = distinct_keys(200, seed=5)
        rng = np.random.default_rng(0)
        a = ProjectionSketch(8, alpha=0.1, seed=2)
        b = ProjectionSketch(8, alpha=0.1, seed=2)
        a.add_batch(keys)
        b.add_batch(keys[rng.permutation(len(keys))])
        np.testing.assert_allclose(a.logmag, b.logmag, rtol=1e-12)

    def test_batch_matches_elementwise_tolerance(self):
        keys = distinct_keys(50, seed=6)
        a = ProjectionSketch(4, alpha=0.15, seed=2)
        b = ProjectionSketch(4, alpha=0.15, seed=2)
        a.add_batch(keys)
        for k in keys:
            b.add(int(k))
        np.testing.assert_allclose(a.logmag, b.logmag, rtol=1e-12)

    def test_batch_across_tiles_matches_row_fold(self, monkeypatch):
        # an 8-row tile at m=16, so 300 rows span 38 tiles; the batch is
        # folded row by row, insertions then deletions, onto a nonzero state
        monkeypatch.setattr(hashing, "_TILE_WORDS", 256)
        rng = np.random.default_rng(11)
        keys = distinct_keys(300, seed=11)
        d = rng.integers(-5, 6, size=300)
        sk = ProjectionSketch(16, alpha=0.05, seed=3)
        sk.add_batch(["x", "y"], [2, 1])
        signs, logmag = sk.signs.copy(), sk.logmag.copy()
        sk.add_batch(keys, d)
        with np.errstate(divide="ignore"):  # d = 0 rows are skipped below
            logd = np.log(np.abs(d).astype(np.float64))
        terms = _stable_log(keys, 3, 16, 0.05) + logd[:, None]
        ins = np.full(16, -np.inf)
        dels = np.full(16, -np.inf)
        for row, dv in zip(terms, d.tolist()):
            if dv > 0:
                ins = np.logaddexp(ins, row)
            elif dv < 0:
                dels = np.logaddexp(dels, row)
        signs, logmag = signed_add(signs, logmag, 1, ins)
        signs, logmag = signed_add(signs, logmag, -1, dels)
        np.testing.assert_array_equal(sk.signs, signs)
        np.testing.assert_array_equal(sk.logmag, logmag)

    def test_mixed_batch_equals_its_insertions_then_its_deletions(self, monkeypatch):
        # each side is hashed in tiles of its own rows, so a mixed batch
        # leaves, bit for bit, what its insertion rows and then its deletion
        # rows leave as two batches; its d = 0 rows change nothing
        monkeypatch.setattr(hashing, "_TILE_WORDS", 256)
        rng = np.random.default_rng(31)
        for trial in range(30):
            alpha = (0.05, 0.5, 0.9)[trial % 3]
            keys = distinct_keys(int(rng.integers(20, 120)), seed=100 + trial)
            d = rng.integers(-4, 5, size=len(keys)).astype(np.float64)
            one, two = (ProjectionSketch(16, alpha=alpha, seed=trial) for _ in range(2))
            for sk in (one, two):
                sk.add_batch(["x", "y"], [3, 1])
            one.add_batch(keys, d)
            two.add_batch(keys[d > 0], d[d > 0])
            two.add_batch(keys[d < 0], d[d < 0])
            np.testing.assert_array_equal(one.signs, two.signs, err_msg=str(trial))
            np.testing.assert_array_equal(one.logmag, two.logmag, err_msg=str(trial))
            zero = keys[d == 0]
            one.add_batch(zero, np.zeros(len(zero)))
            np.testing.assert_array_equal(one.signs, two.signs, err_msg=str(trial))
            np.testing.assert_array_equal(one.logmag, two.logmag, err_msg=str(trial))

    @pytest.mark.parametrize("alpha", [0.9, 0.05])
    def test_batch_sum_matches_fsum(self, alpha, monkeypatch):
        # 300 rows of mixed signs over 38 tiles of 8 rows; each stream's
        # signed total against the correctly rounded sum of exp(t - max).
        # alpha = 0.9 keeps the terms close together, so rounding shows
        monkeypatch.setattr(hashing, "_TILE_WORDS", 256)
        rng = np.random.default_rng(23)
        keys = distinct_keys(300, seed=23)
        d = rng.choice([-3.0, -1.0, 1.0, 2.0, 5.0], size=300)
        sk = ProjectionSketch(16, alpha=alpha, seed=4)
        sk.add_batch(keys, d)
        terms = _stable_log(keys, 4, 16, alpha) + np.log(np.abs(d))[:, None]
        for j in range(16):
            top = float(terms[:, j].max())
            scaled = np.exp(terms[:, j] - top)
            total = math.fsum((np.sign(d) * scaled).tolist())
            mass = math.fsum(scaled.tolist())
            got = int(sk.signs[j]) * math.exp(sk.logmag[j] - top)
            # a float sum of n rows errs by up to ~n eps of the mass, and a
            # stored log-magnitude L by eps |L|
            assert abs(got - total) <= 2.0**-52 * (len(d) + abs(top)) * mass, j

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_quantity_rejected(self, bad):
        sk = ProjectionSketch(8, alpha=0.05, seed=1)
        sk.add_batch(["a", "b"], [1, 2])
        signs, logmag = sk.signs.copy(), sk.logmag.copy()
        with pytest.raises(StreamIntegrityError):
            sk.add("c", bad)
        with pytest.raises(StreamIntegrityError):
            sk.add_batch(["c", "d"], [1.0, bad])
        with pytest.raises(StreamIntegrityError):
            coupled_residuals(["c", "d"], 8, 0.05, seed=1, d=[1.0, bad])
        np.testing.assert_array_equal(sk.signs, signs)
        np.testing.assert_array_equal(sk.logmag, logmag)


class TestMerge:
    def test_merge_zero_sketch(self):
        sk = ProjectionSketch(8, alpha=0.1, seed=1)
        sk.add_batch(distinct_keys(40, seed=1))
        zero = ProjectionSketch(8, alpha=0.1, seed=1)
        merged = sk.merge(zero)
        np.testing.assert_array_equal(merged.logmag, sk.logmag)

    def test_merge_equals_concatenation(self):
        keys = distinct_keys(300, seed=2)
        whole = ProjectionSketch(8, alpha=0.1, seed=4)
        whole.add_batch(keys)
        a = ProjectionSketch(8, alpha=0.1, seed=4)
        b = ProjectionSketch(8, alpha=0.1, seed=4)
        a.add_batch(keys[:150])
        b.add_batch(keys[150:])
        merged = a.merge(b)
        np.testing.assert_allclose(merged.logmag, whole.logmag, rtol=1e-12)

    def test_merge_of_opposite_sketches_is_zero(self):
        a = ProjectionSketch(8, alpha=0.1, seed=1)
        b = ProjectionSketch(8, alpha=0.1, seed=1)
        a.add("a", 1)
        b.add("a", -1)
        merged = a.merge(b)
        assert (merged.signs == 0).all()


class TestEstimator:
    def test_point_example(self):
        sk = ProjectionSketch.from_state(
            1, 0, np.ones(1, dtype=np.int8), np.array([math.log(8.0)]), 1.0 / 3.0)
        with pytest.warns(UserWarning):
            assert sk.estimate().c_hat == pytest.approx(2.0, rel=1e-12)

    def test_equal_slots_give_v_to_alpha(self):
        v = 123.456
        sk = ProjectionSketch.from_state(
            16, 0, np.ones(16, dtype=np.int8), np.full(16, math.log(v)), 0.05)
        assert sk.estimate().c_hat == pytest.approx(v**0.05, rel=1e-12)

    def test_invalid_state_error(self):
        sk = ProjectionSketch(4, alpha=0.05, seed=0)
        with pytest.raises(DegenerateSketchError):
            sk.estimate()
        sk.add("a", -1)
        with pytest.raises(DegenerateSketchError):
            sk.estimate()

    def test_warns_above_alpha_threshold(self):
        sk = ProjectionSketch(4, alpha=0.3, seed=0)
        sk.add("a")
        with pytest.warns(UserWarning):
            sk.estimate()

    def test_large_alpha_warning_names_the_caller(self):
        # both the one-row estimate and the type table's block estimates
        # point the warning at the line that asked for the estimate
        from cardsketch.sketch_types import TYPES
        sk = ProjectionSketch(4, alpha=0.2, seed=0)
        sk.add_batch(["a", "b"])
        with pytest.warns(UserWarning, match="alpha=0.2 is large") as one:
            sk.estimate()
        with pytest.warns(UserWarning, match="alpha=0.2 is large") as block:
            TYPES["projection"].estimates([sk.signs[None], sk.logmag[None]], 0.95,
                                          {"alpha": 0.2})
        assert [w.filename for w in one] == [w.filename for w in block] == [__file__]

    def test_replicated_error_band(self):
        # c=1e5, alpha=0.05, m=2^10: percent error < 10% in >= 95% of 200 reps
        rng = np.random.default_rng(23)
        errs = []
        for _ in range(200):
            sk = sampling.sample_projection(10**5, 2**10, 0.05, rng)
            errs.append(abs(sk.estimate().c_hat - 1e5) / 1e5)
        assert np.mean(np.array(errs) < 0.10) >= 0.95

    def test_pivot_law(self):
        # c sum V^-alpha over 500 replicates at c=1e4, alpha=0.02, m=64
        rng = np.random.default_rng(1)
        c, m = 10**4, 64
        pivots = [c * sampling.sample_projection(c, m, 0.02, rng).pivot_sum()
                  for _ in range(500)]
        assert kstest(np.array(pivots), "gamma", args=(m,)).pvalue > 0.01

    def test_deletion_correctness(self):
        # estimates of the live set after interleaved insert+delete traffic
        # match a fresh sketch of the survivors.  alpha=0.25 keeps the
        # log-space dynamic range inside float64 (see module docstring);
        # interleaved transients still erode a few digits, so agreement is
        # asserted at 1e-3, far inside the ~12% statistical envelope at m=64
        for rep in range(20):
            stream = generate_stream(1000, seed=rep, deleted_extra=200)
            sk = ProjectionSketch(64, alpha=0.25, seed=rep)
            sk.add_batch(stream.keys, stream.d)
            live = distinct_keys(1000, seed=rep)
            fresh = ProjectionSketch(64, alpha=0.25, seed=rep)
            fresh.add_batch(live)
            assert exact_count(stream) == 1000
            with pytest.warns(UserWarning):
                a = sk.estimate().c_hat
                b = fresh.estimate().c_hat
            assert a == pytest.approx(b, rel=1e-3)
            assert abs(a - 1000) / 1000 < 0.5


class TestMedianEstimator:
    def test_median_of_one(self):
        alpha = 0.05
        lv = 7.0
        sk = ProjectionSketch.from_state(
            1, 0, np.ones(1, dtype=np.int8), np.array([lv]), alpha)
        expected = math.exp(alpha * (lv - stable_median_log(alpha)))
        assert sk.median_estimate() == pytest.approx(expected, rel=1e-12)

    def test_all_slots_at_median_give_one(self):
        alpha = 0.05
        mu = stable_median_log(alpha)
        sk = ProjectionSketch.from_state(
            9, 0, np.ones(9, dtype=np.int8), np.full(9, mu), alpha)
        assert sk.median_estimate() == pytest.approx(1.0, rel=1e-12)

    def test_tracks_truth(self):
        rng = np.random.default_rng(29)
        vals = [sampling.sample_projection(10**4, 129, 0.05, rng).median_estimate()
                for _ in range(50)]
        assert abs(np.mean(vals) - 1e4) / 1e4 < 0.05


class TestStableMedian:
    def test_half_alpha_closed_form(self):
        # median of 1/(2 N^2) is 1/(2 z^2), z the normal 75th percentile
        z = 0.6744897501960817
        assert stable_median_log(0.5) == pytest.approx(
            math.log(1.0 / (2.0 * z * z)), rel=1e-13, abs=0)

    @pytest.mark.parametrize("alpha, value", [
        (0.005, 72.72411257564593), (0.05, 6.741029314351114), (0.3, 0.5913100435302512),
        (0.9, -0.12016944217893394), (0.99, -0.032964809598119885)])
    def test_values_kept_with_numpy_nodes(self, alpha, value):
        # values of the earlier Gauss-Legendre nodes of scipy's roots_legendre;
        # at alpha = 1/2, where that value was 1.6e-13 from the closed form,
        # test_half_alpha_closed_form holds the reference
        assert stable_median_log(alpha) == pytest.approx(value, rel=1e-13, abs=0)

    @pytest.mark.parametrize("alpha", [0.005, 0.01, 0.05, 0.1, 0.5, 0.9, 0.99])
    def test_node_count_converged(self, alpha, monkeypatch):
        # doubling the quadrature nodes moves log(median) by under 1e-10
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            base = stable_median_log.__wrapped__(alpha)
            monkeypatch.setattr(projection, "_MEDIAN_NODES", 2 * projection._MEDIAN_NODES)
            doubled = stable_median_log.__wrapped__(alpha)
        assert doubled == pytest.approx(base, rel=1e-10)

    def test_small_alpha_limit(self):
        # alpha * log(median) -> -log(log 2) as alpha -> 0
        target = -math.log(math.log(2.0))
        v02 = 0.02 * stable_median_log(0.02)
        v10 = 0.10 * stable_median_log(0.10)
        assert abs(v02 - target) < 0.02
        assert abs(v02 - target) < abs(v10 - target)

    def test_monotone_log_scale(self):
        assert stable_median_log(0.05) > stable_median_log(0.5)

    def test_cached_and_deterministic(self):
        assert stable_median_log(0.5) == stable_median_log(0.5)

    def test_domain(self):
        with pytest.raises(ValueError):
            stable_median_log(1.0)


class TestCoupledRun:
    def test_single_item_ratio_exactly_one(self):
        run = coupled_residuals(["only"], m=8, alpha=0.1, seed=2)
        np.testing.assert_array_equal(run.ratio_log, np.zeros(8))
        assert run.c == 1

    def test_sandwich_holds(self):
        keys = distinct_keys(2000, seed=4)
        run = coupled_residuals(keys, m=32, alpha=0.1, seed=4)
        assert run.sandwich_ok
        assert (run.ratio_log >= 0.0).all()
        assert (run.ratio_log <= 0.1 * math.log(2000) + 1e-9).all()

    def test_rejects_deletions(self):
        with pytest.raises(UnsupportedDeletionError):
            coupled_residuals(["a", "b"], m=4, alpha=0.1, seed=0, d=[1, -1])

    def test_quantities_must_match_items(self):
        with pytest.raises(ValueError, match="d must match items in length"):
            coupled_residuals(["a", "b", "c"], 4, 0.1, d=[1])

    @pytest.mark.parametrize("keys", ["str", "uint64"])
    @pytest.mark.parametrize("quantities", ["unit", "random"])
    def test_block_run_matches_elementwise_reference(self, keys, quantities, monkeypatch):
        # a 16-row tile at m=16, so 700 elements span 44 tiles
        monkeypatch.setattr(hashing, "_TILE_WORDS", 512)
        rng = np.random.default_rng(8)
        items = ([f"k{i}" for i in range(600)] if keys == "str"
                 else distinct_keys(600, seed=8))
        items = [items[i] for i in rng.integers(0, 600, size=700)]
        if keys == "uint64":
            items = np.array(items, dtype=np.uint64)
        d = None if quantities == "unit" else rng.integers(1, 11, size=700)
        got = coupled_residuals(items, 16, 0.05, seed=9, d=d)
        want = _elementwise_coupled_run(items, 16, 0.05, seed=9, d=d)
        assert (got.c, got.total_weight) == (want.c, want.total_weight)
        assert (got.sandwich_low, got.sandwich_high) == (want.sandwich_low, want.sandwich_high)
        np.testing.assert_array_equal(got.residuals, want.residuals)
        np.testing.assert_array_equal(got.ratio_log, want.ratio_log)

    def test_residual_median_shrinks_with_alpha(self):
        keys = distinct_keys(2000, seed=5)
        meds = []
        for alpha in (0.2, 0.1, 0.05):
            run = coupled_residuals(keys, m=64, alpha=alpha, seed=5)
            assert run.sandwich_ok
            meds.append(float(np.median(np.abs(run.residuals))))
        assert meds[0] > meds[1] > meds[2]


def _elementwise_coupled_run(items, m, alpha, seed=0, d=None):
    """Reference for coupled_residuals: one uniform_block row per element."""
    keys = hashing.keys_array(items)
    dvals = np.ones(len(keys)) if d is None else np.asarray(d, dtype=np.float64)
    log_v = np.full(m, -np.inf)
    max_lx = np.full(m, -np.inf)
    seen = set()
    total = 0.0
    worst_low = -math.inf
    worst_high = -math.inf
    for key, dv in zip(keys.tolist(), dvals.tolist()):
        lx = _stable_log(np.array([key], dtype=np.uint64), seed, m, alpha)[0]
        np.logaddexp(log_v, lx + math.log(dv), out=log_v)
        seen.add(key)
        total += dv
        np.maximum(max_lx, lx, out=max_lx)
        gap = log_v - max_lx
        worst_low = max(worst_low, float((-gap).max()))
        worst_high = max(worst_high, float((gap - math.log(total)).max()))
    return projection.CoupledRun(
        alpha=alpha, m=m, c=len(seen), total_weight=total,
        residuals=np.exp(-alpha * log_v) - np.exp(-alpha * max_lx),
        ratio_log=alpha * (log_v - max_lx),
        sandwich_low=worst_low * alpha, sandwich_high=worst_high * alpha)


class TestGaussLegendre:
    @pytest.mark.parametrize("n", [2, 8, 64, 512, 1024])
    def test_matches_numpy_and_integrates_polynomials(self, n):
        nodes, weights = projection._gauss_legendre(n)
        ref_nodes, ref_weights = np.polynomial.legendre.leggauss(n)
        # numpy's weights are off by up to ~1e-9 relative near +-1: it reads
        # P_n' at the eigenvalues before its Newton step
        np.testing.assert_allclose(nodes, ref_nodes, rtol=0, atol=3e-16)
        np.testing.assert_allclose(weights, ref_weights, rtol=1e-8)
        assert (np.diff(nodes) > 0).all()
        for j in range(n):  # exact up to degree 2n - 1
            assert weights @ nodes ** (2 * j) == pytest.approx(2.0 / (2 * j + 1), rel=1e-11)


class TestDeletionDefect:
    @pytest.mark.xfail(strict=True, raises=DegenerateSketchError,
                       reason="float log-space accumulators lose the live residue "
                              "when most of a stream is deleted")
    def test_mass_deletion_leaves_the_live_keys_sketch(self):
        # 3000 keys in, 2995 of them out again: an exact accumulator leaves
        # the sketch of the 5 live keys, so both estimate alike
        keys = np.arange(3000, dtype=np.uint64)
        for salt in range(20):
            sk = ProjectionSketch(16, alpha=0.05, seed=salt)
            sk.add_batch(keys)
            sk.add_batch(keys[5:], -np.ones(2995))
            live = ProjectionSketch(16, alpha=0.05, seed=salt)
            live.add_batch(keys[:5])
            assert sk.estimate().c_hat == pytest.approx(live.estimate().c_hat, rel=1e-9), salt


class TestBatchNetting:
    """A batch is summed per key before hashing: each key once, in the order
    of its first row, at its net quantity."""

    KEYS = np.array([11, 7, 19, 7, 23], dtype=np.uint64)

    @staticmethod
    def _state(keys, d, salt=4):
        sk = ProjectionSketch(16, alpha=0.05, seed=salt)
        sk.add_batch(np.array([1, 2, 3], dtype=np.uint64))
        sk.add_batch(np.asarray(keys, dtype=np.uint64), d)
        return sk.signs.copy(), sk.logmag.copy()

    def _same(self, a, b):
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_a_key_inserted_and_deleted_in_one_batch_leaves_no_trace(self):
        for salt in range(5):
            mixed = self._state(self.KEYS, [2.0, 3.0, 1.0, -3.0, 5.0], salt)
            without = self._state(self.KEYS[[0, 2, 4]], [2.0, 1.0, 5.0], salt)
            self._same(mixed, without)

    def test_a_repeated_key_is_one_row_at_its_summed_quantity(self):
        repeated = self._state(self.KEYS, [2.0, 3.0, 1.0, 4.5, 5.0])
        once = self._state(self.KEYS[[0, 1, 2, 4]], [2.0, 7.5, 1.0, 5.0])
        self._same(repeated, once)
        # a net deletion is a deletion row at its net quantity
        net_out = self._state(self.KEYS, [2.0, 1.0, 1.0, -3.0, 5.0])
        self._same(net_out, self._state(self.KEYS[[0, 1, 2, 4]], [2.0, -2.0, 1.0, 5.0]))

    def test_a_batch_of_distinct_keys_keeps_its_order_and_zero_rows_add_nothing(self):
        keys = np.array([5, 3, 9, 4], dtype=np.uint64)
        self._same(self._state(keys, [1.0, 0.0, -2.0, 3.0]),
                   self._state(keys[[0, 2, 3]], [1.0, -2.0, 3.0]))

    def test_a_net_quantity_past_double_range_is_refused_and_changes_nothing(self):
        sk = ProjectionSketch(16, alpha=0.05, seed=1)
        sk.add_batch(np.array([1, 2, 3], dtype=np.uint64))
        before = sk.signs.copy(), sk.logmag.copy()
        big = np.finfo(np.float64).max
        with pytest.raises(StreamIntegrityError, match="double range"):
            sk.add_batch(np.array([8, 9, 8], dtype=np.uint64), [big, 1.0, big])
        self._same((sk.signs, sk.logmag), before)
