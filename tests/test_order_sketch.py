"""Maximal-term sketch state semantics, estimators and their pivots."""

import math
import warnings

import numpy as np
import pytest
from scipy.stats import kstest

from cardsketch import hashing, sampling
from cardsketch.errors import (
    DegenerateSketchError,
    EmptySketchError,
    EstimationNumericError,
    InsufficientDataError,
    SaturatedSketchError,
    UnsupportedDeletionError,
)
from cardsketch.order_sketch import (
    BernoulliSketch,
    ContinuousMaxSketch,
    GeometricMaxSketch,
    KthOrderSketch,
    bernoulli_estimate,
    combine_kth,
    kth_closed_form,
    kth_root_estimate,
    merge,
    solve_geometric_mle,
)
from cardsketch.streams import distinct_keys


def _items(n, tag=""):
    return [f"item-{tag}-{i}" for i in range(n)]


class TestUpdateSemantics:
    def test_duplicates_leave_state_unchanged(self):
        a = ContinuousMaxSketch(8, seed=1)
        a.add("a")
        before = a.slots.copy()
        a.add("a")
        a.add("a", d=5)
        np.testing.assert_array_equal(a.slots, before)

    def test_order_invariance_bit_exact(self):
        a = ContinuousMaxSketch(8, seed=1)
        b = ContinuousMaxSketch(8, seed=1)
        a.add("a"); a.add("b")
        b.add("b"); b.add("a")
        np.testing.assert_array_equal(a.slots, b.slots)

    def test_permutation_invariance_batch(self):
        keys = distinct_keys(300, seed=3)
        rng = np.random.default_rng(0)
        a = GeometricMaxSketch(16, q=0.5, seed=2)
        b = GeometricMaxSketch(16, q=0.5, seed=2)
        a.add_batch(keys)
        b.add_batch(keys[rng.permutation(len(keys))])
        np.testing.assert_array_equal(a.slots, b.slots)

    def test_single_stream_max_definition(self):
        # arrival r of an item: counter 2r gives the spacing -log(u)/m,
        # counter 2r+1 the register; slot j is minus the earliest first
        # arrival in register j over the items
        from cardsketch.hashing import item_key
        from test_hashing import raw_word_oracle, uniform_oracle
        m, salt = 3, 7
        first = {}
        for item in ("a", "b"):
            key, t, r = item_key(item), 0.0, 0
            while len({j for (it, j) in first if it == item}) < m:
                t += float(np.log(np.array([uniform_oracle(key, 2 * r, salt)]))[0] / -m)
                j = raw_word_oracle(key, 2 * r + 1, salt) % m
                first.setdefault((item, j), t)
                r += 1
        sk = ContinuousMaxSketch(m, seed=salt)
        sk.add("a"); sk.add("b")
        for j in range(m):
            assert sk.slots[j] == -min(first["a", j], first["b", j])

    def test_deletion_rejected(self):
        sk = ContinuousMaxSketch(4, seed=0)
        with pytest.raises(UnsupportedDeletionError):
            sk.add("a", d=-1)
        with pytest.raises(UnsupportedDeletionError):
            sk.add("a", d=0)
        with pytest.raises(UnsupportedDeletionError):
            sk.add_batch(["a", "b"], d=[1, -1])

    def test_monotonicity_of_estimate(self):
        # each new distinct item can only raise (or keep) the estimate
        sk = ContinuousMaxSketch(32, seed=5)
        sk.add_batch(_items(40))
        prev = sk.estimate().c_hat
        for i in range(40, 80):
            sk.add(f"item--{i}")
            cur = sk.estimate().c_hat
            assert cur >= prev
            prev = cur


class TestMerge:
    def test_identity_and_idempotence(self):
        sk = ContinuousMaxSketch(8, seed=1)
        sk.add_batch(_items(50))
        empty = ContinuousMaxSketch(8, seed=1)
        np.testing.assert_array_equal(sk.merge(empty).slots, sk.slots)
        np.testing.assert_array_equal(sk.merge(sk).slots, sk.slots)

    def test_split_equals_single_pass(self):
        keys = distinct_keys(500, seed=9)
        whole = GeometricMaxSketch(16, q=10 / 11, seed=4)
        whole.add_batch(keys)
        left = GeometricMaxSketch(16, q=10 / 11, seed=4)
        right = GeometricMaxSketch(16, q=10 / 11, seed=4)
        left.add_batch(keys[:200])
        right.add_batch(keys[150:])  # overlapping shards
        np.testing.assert_array_equal(left.merge(right).slots, whole.slots)

    def test_varargs_merge(self):
        parts = []
        keys = distinct_keys(90, seed=2)
        for lo in range(0, 90, 30):
            sk = ContinuousMaxSketch(8, seed=3)
            sk.add_batch(keys[lo:lo + 30])
            parts.append(sk)
        whole = ContinuousMaxSketch(8, seed=3)
        whole.add_batch(keys)
        np.testing.assert_array_equal(merge(*parts).slots, whole.slots)


class TestContinuousEstimator:
    def test_single_slot_value(self):
        sk = ContinuousMaxSketch.from_state(1, 0, np.array([-1.0]))
        assert sk.estimate().c_hat == pytest.approx(1.0)

    def test_four_slots_value(self):
        sk = ContinuousMaxSketch.from_state(4, 0, np.full(4, -0.5))
        assert sk.estimate().c_hat == pytest.approx(2.0)

    def test_empty_slot_error(self):
        sk = ContinuousMaxSketch(4, seed=0)
        sk.add("a")
        slots = sk.slots.copy()
        sk.slots[2] = -np.inf
        with pytest.raises(EmptySketchError):
            sk.estimate()
        sk.slots = slots

    def test_degenerate_error(self):
        sk = ContinuousMaxSketch.from_state(2, 0, np.zeros(2))
        with pytest.raises(DegenerateSketchError):
            sk.estimate()

    def test_interval_brackets_and_se(self):
        sk = ContinuousMaxSketch.from_state(64, 0, np.log(np.random.default_rng(1).random(64)) / 500)
        est = sk.estimate(0.9)
        assert est.ci[0] <= est.c_hat <= est.ci[1]
        assert est.std_error == pytest.approx(est.c_hat / 8.0)

    def test_exponential_and_uniform_pivots_identical(self):
        # probability integral transform: F(M) is the uniform maximum exactly,
        # so the two hashing choices share pivot values bit for bit
        keys = distinct_keys(400, seed=8)
        uni = ContinuousMaxSketch(32, seed=6, kind="uniform")
        expo = ContinuousMaxSketch(32, seed=6, kind="exponential")
        uni.add_batch(keys)
        expo.add_batch(keys)
        assert uni.pivot_sum() == expo.pivot_sum()
        # they share their states too: only the maxima's hash domain differs
        np.testing.assert_array_equal(expo.slots, uni.slots)

    def test_replicated_error_band(self):
        # c=1e4, m=2^9: |c_hat-c|/c below 13% in >= 95% of 200 replicates
        rng = np.random.default_rng(42)
        c, m = 10**4, 2**9
        errs = []
        for _ in range(200):
            sk = sampling.sample_continuous(c, m, rng)
            errs.append(abs(sk.estimate().c_hat - c) / c)
        assert np.mean(np.array(errs) < 0.13) >= 0.95


class TestKthOrderSketch:
    def test_duplicate_and_tie_semantics(self):
        sk = KthOrderSketch(4, k=2, seed=1)
        sk.add("a")
        before = sk.topk.copy()
        sk.add("a")
        np.testing.assert_array_equal(sk.topk, before)
        rows = (~np.isnan(sk.topk)).sum(axis=1)
        assert (rows == 1).all()

    def test_rows_strictly_sorted(self):
        sk = KthOrderSketch(8, k=3, seed=2)
        sk.add_batch(_items(100))
        for row in sk.topk:
            vals = row[~np.isnan(row)]
            assert (np.diff(vals) < 0).all()

    def test_insufficient_data(self):
        sk = KthOrderSketch(4, k=3, seed=1)
        sk.add("a"); sk.add("b")
        with pytest.raises(InsufficientDataError):
            sk.estimate()

    def test_k1_reduces_to_max_mle(self):
        rng = np.random.default_rng(3)
        y = rng.random(64) ** (1 / 300.0)
        root = kth_root_estimate(y, 1)
        assert root == pytest.approx(-64.0 / np.log(y).sum(), rel=1e-9)

    def test_closed_form_example(self):
        assert kth_closed_form(np.array([0.5]), 2) == pytest.approx(4.0)

    def test_root_vs_closed_form_gap(self):
        rng = np.random.default_rng(5)
        sk = sampling.sample_kth(10**4, 3, 256, rng)
        y = sk.kth_values()
        root = kth_root_estimate(y, 3)
        assert abs(root - kth_closed_form(y, 3)) / root < 1e-3

    def test_merge_equals_single_pass(self):
        keys = distinct_keys(300, seed=4)
        whole = KthOrderSketch(8, k=3, seed=5)
        whole.add_batch(keys)
        a = KthOrderSketch(8, k=3, seed=5)
        b = KthOrderSketch(8, k=3, seed=5)
        a.add_batch(keys[:120])
        b.add_batch(keys[120:])
        merged = a.merge(b)
        np.testing.assert_array_equal(
            np.nan_to_num(merged.topk), np.nan_to_num(whole.topk))

    def test_arrival_rounds_grow_while_a_bound_stays_infinite(self, monkeypatch):
        # k above the items keeps every bound infinite: each key must visit
        # every register; one unit_array call per arrival round
        calls = []
        unit_array = hashing.unit_array
        monkeypatch.setattr(hashing, "unit_array", lambda w: calls.append(1) or unit_array(w))
        sk = KthOrderSketch(256, k=1000, seed=1)
        sk.add_batch(np.arange(600, dtype=np.uint64))
        assert (np.count_nonzero(~np.isnan(sk.topk), axis=1) == 600).all()
        assert len(calls) <= 64  # 518 when each round took what the first did

    def test_estimate_tracks_truth(self):
        rng = np.random.default_rng(6)
        sk = sampling.sample_kth(2000, 3, 128, rng)
        est = sk.estimate()
        assert abs(est.c_hat - 2000) / 2000 < 0.2
        assert est.std_error == pytest.approx(est.c_hat / math.sqrt(3 * 128))


class TestCombineKth:
    def test_symmetry(self):
        assert combine_kth(500.0, 16, 500.0, 16, 3) == pytest.approx(500.0)
        assert combine_kth(500.0, 8, 500.0, 24, 3) == pytest.approx(500.0)

    def test_empty_side_identity(self):
        assert combine_kth(123.0, 10, 999.0, 0, 3) == pytest.approx(123.0)
        assert combine_kth(7.7, 0, 321.0, 4, 2) == pytest.approx(321.0)

    def test_domain(self):
        with pytest.raises(ValueError):
            combine_kth(2.0, 4, 100.0, 4, 3)
        with pytest.raises(ValueError):
            combine_kth(100.0, 0, 100.0, 0, 3)

    def test_matches_pooled_recomputation(self):
        # estimate on two halves of the hash streams, combine, compare to
        # the estimate pooled over all streams; c = 1e4
        rng = np.random.default_rng(7)
        sk = sampling.sample_kth(10**4, 3, 256, rng)
        y = sk.kth_values()
        c1 = kth_root_estimate(y[:128], 3)
        c2 = kth_root_estimate(y[128:], 3)
        pooled = kth_root_estimate(y, 3)
        combined = combine_kth(c1, 128, c2, 128, 3)
        assert abs(combined - pooled) / pooled < 0.01


class TestBernoulli:
    def test_point_example(self):
        assert bernoulli_estimate(3, 4, 0.5).c_hat == pytest.approx(2.0)

    def test_zero_ones(self):
        est = bernoulli_estimate(0, 64, 0.01)
        assert est.c_hat == 0.0
        assert est.ci[0] == 0.0 and est.ci[1] > 0.0

    def test_saturation(self):
        with pytest.raises(SaturatedSketchError) as exc:
            bernoulli_estimate(64, 64, 0.01, level=0.95)
        lb = exc.value.lower_bound
        assert lb > 0.0
        # the bound is exact: P(all set | c=lb) = 1 - level
        prob = (1.0 - 0.99**lb) ** 64
        assert prob == pytest.approx(0.05, rel=1e-6)

    def test_sketch_ingestion_counts(self):
        sk = BernoulliSketch(256, p=0.02, seed=3)
        sk.add_batch(_items(100))
        assert 0 < sk.ones() < 256
        before = sk.ones()
        sk.add("item--0")  # duplicate of nothing; new item may set more bits
        assert sk.ones() >= before

    def test_merge_is_bitwise_or(self):
        keys = distinct_keys(200, seed=1)
        a = BernoulliSketch(64, p=0.01, seed=2)
        b = BernoulliSketch(64, p=0.01, seed=2)
        whole = BernoulliSketch(64, p=0.01, seed=2)
        a.add_batch(keys[:100]); b.add_batch(keys[100:]); whole.add_batch(keys)
        np.testing.assert_array_equal(a.merge(b).bits, whole.bits)

    def test_replicated_mean_near_truth(self):
        # c=1000, p=lambda0/1000, m=4096, 200 replicates: mean within
        # 3 combined standard errors of the truth
        from cardsketch.inference import optimal_lambda
        from cardsketch.order_sketch import bernoulli_fisher_info
        rng = np.random.default_rng(11)
        c, m = 1000, 4096
        p = optimal_lambda() / c
        vals = []
        for _ in range(200):
            sk = sampling.sample_bernoulli(c, m, p, rng)
            vals.append(sk.estimate().c_hat)
        se_one = 1.0 / math.sqrt(bernoulli_fisher_info(c, m, p))
        assert abs(np.mean(vals) - c) < 3.0 * se_one / math.sqrt(200)


class TestGeometricEstimator:
    def test_initializer_examples(self):
        # q=1/2: n=1; m=4 slots with r=1 of them <= 1 gives c0 = 2
        slots = np.array([1, 2, 3, 4], dtype=np.uint32)
        _, c0 = solve_geometric_mle(slots, 0.5)
        assert c0 == pytest.approx(math.log(0.25) / math.log(0.5))
        assert c0 == pytest.approx(2.0)

    def test_threshold_example(self):
        assert math.floor(math.log(0.5) / math.log(10 / 11)) == 7

    def test_empty_error(self):
        sk = GeometricMaxSketch(4, q=0.5, seed=0)
        with pytest.raises(EmptySketchError):
            sk.estimate()
        with pytest.raises(EmptySketchError):
            sk.recursive_estimate()

    def test_mle_tracks_truth(self):
        rng = np.random.default_rng(8)
        sk = sampling.sample_geometric(10**5, 1024, 10 / 11, rng)
        est = sk.estimate()
        assert abs(est.c_hat - 1e5) / 1e5 < 0.1
        assert est.ci[0] < est.c_hat < est.ci[1]

    def test_replicated_error_band(self):
        # c=1e5, q=10/11, m=2^10: percent error < 10% in >= 95% of 200 reps
        rng = np.random.default_rng(21)
        errs = []
        for _ in range(200):
            sk = sampling.sample_geometric(10**5, 2**10, 10 / 11, rng)
            errs.append(abs(sk.estimate().c_hat - 1e5) / 1e5)
        assert np.mean(np.array(errs) < 0.10) >= 0.95

    def test_recursive_trivial(self):
        # single slot with 1 - q^Y = e^-1  =>  estimate exactly 1
        q = 0.5
        y = math.log1p(-math.exp(-1.0)) / math.log(q)  # real-valued solve
        sk = GeometricMaxSketch.from_state(1, 0, np.array([round(y)], dtype=np.uint32), q)
        s = -1.0 / math.log1p(-q ** round(y))
        assert sk.recursive_estimate() == pytest.approx(s)

    def test_recursive_merge_consistency(self):
        keys = distinct_keys(400, seed=12)
        a = GeometricMaxSketch(16, q=10 / 11, seed=3)
        b = GeometricMaxSketch(16, q=10 / 11, seed=3)
        whole = GeometricMaxSketch(16, q=10 / 11, seed=3)
        a.add_batch(keys[:150]); b.add_batch(keys[150:]); whole.add_batch(keys)
        assert a.merge(b).recursive_estimate() == whole.recursive_estimate()

    def test_recursive_vs_mle_agreement(self):
        # the raw exponential-approximation statistic carries a ceiling bias
        # of about log(1/q)/2; the continuity-corrected form removes it
        rng = np.random.default_rng(9)
        sk = sampling.sample_geometric(10**5, 1024, 10 / 11, rng)
        mle = sk.estimate().c_hat
        raw = sk.recursive_estimate()
        corrected = sk.recursive_estimate(continuity_correction=True)
        lam = -math.log(10 / 11)
        assert abs(raw - mle) / mle == pytest.approx(lam / 2, abs=0.02)
        assert abs(corrected - mle) / mle < 0.01

    def test_slot_with_tiny_tail_term_has_finite_mle(self):
        # q**y ~ 1e-181 at y = 600: the derivative's (a - b) and expm1(d),
        # each squared apart, would both underflow to 0, so 0/0
        slots = np.array([1] * 7 + [600], dtype=np.uint32)
        sk = GeometricMaxSketch.from_state(8, 0, slots, 0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            c_hat, _ = solve_geometric_mle(slots, 0.5)
            est = sk.estimate()
        assert c_hat == pytest.approx(0.2061, abs=1e-4)
        assert est.c_hat == c_hat

    def test_slot_beyond_double_range_raises_without_warning(self):
        # q**y underflows at y = 2000, so the slot's score term is 0/0
        slots = np.array([1] * 7 + [2000], dtype=np.uint32)
        sk = GeometricMaxSketch.from_state(8, 0, slots, 0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EstimationNumericError, match="not finite"):
                sk.estimate()

    def test_fallback_initializer_when_r_degenerate(self):
        # all slots tiny (r = m) still converges
        slots = np.ones(32, dtype=np.uint32)
        c_hat, _ = solve_geometric_mle(slots, 0.5)
        assert c_hat > 0.0

    @pytest.mark.parametrize("q", [0.25, 0.1, 1e-100])
    def test_partly_empty_state_below_q_half_is_empty(self, q):
        # below q = 1/2 the initializer's n = floor(log_q(1/2)) is 0, so an
        # empty slot puts r strictly between 0 and m, where log1p(-q**n)
        # has no value: the row's EmptySketchError stands, with no
        # ValueError from the initializer
        slots = np.array([0] + [3] * 15, dtype=np.uint32)
        sk = GeometricMaxSketch.from_state(16, 0, slots, q)
        with pytest.raises(EmptySketchError):
            sk.estimate()
        block = GeometricMaxSketch.estimates(np.stack([slots, slots + 1]), 0.95, q)
        assert isinstance(block.errors[0], EmptySketchError) and block.errors[1] is None


class TestPivotLaw:
    def test_gamma_pivot_distribution(self):
        # 500 streams at c=1000, m=64: -c sum(log Y) ~ Gamma(64, 1)
        rng = np.random.default_rng(17)
        c, m = 1000, 64
        pivots = []
        for _ in range(500):
            sk = sampling.sample_continuous(c, m, rng)
            pivots.append(c * sk.pivot_sum())
        assert kstest(np.array(pivots), "gamma", args=(m,)).pvalue > 0.01

    def test_ci_coverage(self):
        rng = np.random.default_rng(19)
        c, m = 1000, 64
        hits = 0
        for _ in range(500):
            sk = sampling.sample_continuous(c, m, rng)
            lo, hi = sk.estimate(0.95).ci
            hits += lo <= c <= hi
        assert 0.92 <= hits / 500 <= 0.98


# -- a Bernoulli estimate refuses a bad level before it reads any count ----

BAD_LEVELS = [1.0, 1.5, -0.5, math.nan, math.inf]


@pytest.mark.parametrize("level", BAD_LEVELS, ids=str)
@pytest.mark.parametrize("ones", [0, 5, 16], ids=["empty", "interior", "saturated"])
def test_bernoulli_refuses_a_bad_level_at_every_count(ones, level):
    sk = BernoulliSketch.from_state(16, 0, (np.arange(16) < ones).astype(np.uint8), 0.01)
    want = f"confidence level must lie in (0,1), got {level}"
    for call in (lambda: sk.estimate(level), lambda: bernoulli_estimate(ones, 16, 0.01, level)):
        with pytest.raises(ValueError) as info:
            call()
        assert type(info.value) is ValueError and str(info.value) == want
