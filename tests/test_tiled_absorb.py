"""The tiled, reduce-before-transform absorb of the max family is bit-identical
to the reference path: uniform_block, elementwise transform, then reduce."""

import numpy as np
import pytest

from cardsketch import hashing, order_sketch, state
from cardsketch.order_sketch import (
    BernoulliSketch,
    ContinuousMaxSketch,
    GeometricMaxSketch,
    KthOrderSketch,
    tied_columns,
    top_words,
)
from cardsketch.streams import distinct_keys

SALT = 17
Q = 10.0 / 11.0
K = 3


def _make(kind, m):
    if kind == "max-uniform":
        return ContinuousMaxSketch(m, SALT)
    if kind == "max-exp":
        return ContinuousMaxSketch(m, SALT, "exponential")
    if kind == "max-geom":
        return GeometricMaxSketch(m, Q, SALT)
    if kind == "kth":
        return KthOrderSketch(m, K, SALT)
    return BernoulliSketch(m, 0.002, SALT)


def _state(sk):
    for name in ("slots", "topk", "bits"):
        if hasattr(sk, name):
            return getattr(sk, name)
    raise AssertionError(type(sk).__name__)


def _reference(kind, m, batches):
    """The state the reference path gives after absorbing the batches, built
    from uniform_block a few columns at a time to bound memory."""
    keys = np.concatenate([np.asarray(b, dtype=np.uint64) for b in batches])
    sk = _make(kind, m)
    if len(keys) == 0:
        return _state(sk)
    cols = []
    for lo in range(0, m, 16):
        u = hashing.uniform_block(keys, SALT, lo, min(m, lo + 16))
        if kind in ("max-uniform", "max-exp"):
            cols.append(np.log(u).max(axis=0))
        elif kind == "max-geom":
            cols.append(hashing.geometric_variate(u, Q).max(axis=0))
        elif kind == "bernoulli":
            cols.append((u < sk.p).any(axis=0).astype(np.uint8))
        else:
            for j in range(u.shape[1]):
                best = np.unique(u[:, j])[::-1][:K]
                row = np.full(K, np.nan)
                row[:len(best)] = best
                cols.append(row)
    if kind == "kth":
        return np.array(cols)
    return np.maximum(_state(sk), np.concatenate(cols))


def _assert_same(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


KINDS = ("max-uniform", "max-exp", "max-geom", "kth", "bernoulli")


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", [1, 255, 256, 257, 70000])
def test_batch_sizes_around_the_tile_edge(kind, n):
    # at m=128 a tile holds 256 rows
    keys = distinct_keys(n, seed=n)
    sk = _make(kind, 128)
    sk.add_batch(keys)
    _assert_same(_state(sk), _reference(kind, 128, [keys]))


@pytest.mark.parametrize("kind", KINDS)
def test_successive_batches_accumulate(kind):
    keys = distinct_keys(900, seed=4)
    sk = _make(kind, 33)
    for lo, hi in ((0, 257), (257, 258), (258, 900)):
        sk.add_batch(keys[lo:hi])
    _assert_same(_state(sk), _reference(kind, 33, [keys]))


@pytest.mark.parametrize("kind", KINDS)
def test_duplicate_heavy_batch(kind):
    rng = np.random.default_rng(5)
    pool = distinct_keys(40, seed=6)
    keys = pool[rng.integers(0, len(pool), 5000)]
    sk = _make(kind, 64)
    sk.add_batch(keys)
    _assert_same(_state(sk), _reference(kind, 64, [keys]))


@pytest.mark.parametrize("kind", KINDS)
def test_empty_batch_leaves_state_alone(kind):
    sk = _make(kind, 16)
    sk.add_batch(np.array([], dtype=np.uint64))
    _assert_same(_state(sk), _state(_make(kind, 16)))
    sk.add_batch(distinct_keys(10, seed=1))
    before = _state(sk).copy()
    sk.add_batch([])
    _assert_same(_state(sk), before)


@pytest.mark.parametrize("kind", KINDS)
def test_single_stream(kind):
    # m=1 puts 32768 rows in a tile, so 70000 keys still span three tiles
    keys = distinct_keys(70000, seed=8)
    sk = _make(kind, 1)
    sk.add_batch(keys)
    _assert_same(_state(sk), _reference(kind, 1, [keys]))


@pytest.mark.parametrize("kind", KINDS)
def test_single_item_add_matches_batch(kind):
    keys = distinct_keys(20, seed=9)
    one, batch = _make(kind, 12), _make(kind, 12)
    for key in keys.tolist():
        one.add(key)
    batch.add_batch(keys)
    _assert_same(_state(one), _state(batch))
    _assert_same(_state(one), _reference(kind, 12, [keys]))


def test_kth_with_fewer_items_than_k():
    keys = distinct_keys(2, seed=10)
    sk = _make("kth", 8)
    sk.add_batch(keys)
    assert np.isnan(sk.topk[:, 2]).all() and not np.isnan(sk.topk[:, :2]).any()
    _assert_same(sk.topk, _reference("kth", 8, [keys]))


def _top_k_brute(words, k):
    return np.sort(words, axis=0)[::-1][:k]


@pytest.mark.parametrize("sizes", [(1,), (2, 1, 5), (1, 1, 1, 1), (7, 300, 3), (256, 256)])
def test_top_words_matches_a_full_sort(sizes):
    rng = np.random.default_rng(sum(sizes))
    words = rng.integers(0, 2**64, size=(sum(sizes), 9), dtype=np.uint64)
    edges = np.cumsum((0,) + sizes)
    tiles = (words[lo:hi] for lo, hi in zip(edges[:-1], edges[1:]))
    top = top_words(tiles, K)
    np.testing.assert_array_equal(np.sort(top, axis=0)[::-1], _top_k_brute(words, K))


def test_tie_guard_flags_words_sharing_a_uniform():
    step = np.uint64(2048)  # one unit of the 53 bits a uniform keeps
    a = np.uint64(0x4000_0000_0000_0000)  # uniforms near 1/4: no rounding
    b = np.uint64(0xC000_0000_0000_0000) + step  # near 3/4: b and b + step round together
    # column 0: the two largest words differ only in the low 11 bits;
    # column 1: the two largest are neighbouring 53-bit values above 1/2;
    # column 2: three words with distinct uniforms
    words = np.array([[a + np.uint64(5), b + step, a],
                      [a, b, a - step],
                      [a - step, b - np.uint64(4) * step, a - np.uint64(2) * step]],
                     dtype=np.uint64)
    top = top_words(iter([words[:1], words[1:]]), 2)
    u = hashing.unit_array(top)
    np.testing.assert_array_equal(tied_columns(u), [True, True, False])
    # reading a tied column from its two largest words alone loses a value
    for j in (0, 1):
        assert len(np.unique(u[:, j])) == 1
        assert len(np.unique(hashing.unit_array(words[:, j]))) == 2


def test_tied_columns_fall_back_to_every_word(monkeypatch):
    keys = distinct_keys(3000, seed=11)
    monkeypatch.setattr(order_sketch, "tied_columns",
                        lambda u: np.ones(u.shape[1], dtype=bool))
    sk = _make("kth", 20)
    sk.add_batch(keys)
    _assert_same(sk.topk, _reference("kth", 20, [keys]))


def test_word_tiles_cover_uniform_block():
    keys = distinct_keys(1000, seed=12)
    tiles = [t.copy() for t in hashing.word_tiles(keys, SALT, 128)]
    assert [len(t) for t in tiles] == [256, 256, 256, 232]
    _assert_same(hashing.unit_array(np.concatenate(tiles)),
                 hashing.uniform_block(keys, SALT, 0, 128))
    assert list(hashing.word_tiles(keys[:0], SALT, 128)) == []


def _merge_rows_oracle(a, b, descending):
    """Per-row np.unique rule: the k extreme distinct values of a row of a
    joined to the same row of b, padded as the sketch pads."""
    k = a.shape[1]
    out = np.full(a.shape, np.nan if descending else np.inf)
    for i in range(len(a)):
        pool = np.concatenate([a[i], b[i]])
        vals = np.unique(pool[np.isfinite(pool)])
        best = vals[::-1][:k] if descending else vals[:k]
        out[i, :len(best)] = best
    return out


def _random_rows(rng, m, k, descending, sorted_rows):
    """(m, k) rows drawn from a few values (so ties are common, as in
    sampled rows), each with a random number of values and the sketch's
    padding; sorted as state rows are, or in no order as candidates are."""
    pad = np.nan if descending else np.inf
    rows = np.full((m, k), pad)
    for i in range(m):
        n = int(rng.integers(0, k + 1))
        vals = rng.integers(1, 9, size=n) / 8.0
        if sorted_rows:
            rows[i, :n] = np.sort(vals)[::-1] if descending else np.sort(vals)
        else:
            rows[i, rng.permutation(k)[:n]] = vals
    return rows


@pytest.mark.parametrize("descending", [True, False])
@pytest.mark.parametrize("k,r", [(1, 1), (1, 5), (3, 3), (3, 8), (5, 2)])
def test_merge_rows_matches_per_row_unique(descending, k, r):
    rng = np.random.default_rng(10 * k + r + descending)
    for _ in range(20):
        a = _random_rows(rng, 12, k, descending, True)
        b = _random_rows(rng, 12, r, descending, False)
        _assert_same(state.merge_rows(a, b, descending),
                     _merge_rows_oracle(a, b, descending))


def test_merge_rows_writes_positive_nan_padding():
    a = np.full((2, 3), np.nan)
    b = np.array([[0.5, -np.nan, 0.25], [-np.nan, -np.nan, -np.nan]])
    got = state.merge_rows(a, b, descending=True)
    _assert_same(got, np.array([[0.5, 0.25, np.nan], [np.nan] * 3]))
    assert not np.signbit(got[np.isnan(got)]).any()
