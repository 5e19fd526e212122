"""The max family's arrival ingestion against a brute-force oracle.

Every key has a rate-m Poisson process of arrivals: arrival r reads
counter 2r for its Exp(1)/m spacing and counter 2r+1 for its register.
The oracle hashes a dense matrix of R arrivals per key, takes the first
arrival per (key, register) and reduces it as each sketch does, doubling
R until no key's later arrivals could still count.  Each sketch must
equal it bit for bit."""

import math

import numpy as np
import pytest
from scipy.stats import chisquare

from cardsketch import hashing, state
from cardsketch.order_sketch import (
    BernoulliSketch,
    ContinuousMaxSketch,
    GeometricMaxSketch,
    KthOrderSketch,
    geometric_slots,
)
from cardsketch.streams import distinct_keys
from test_hashing import uniform_block

SALT = 17
Q = 10.0 / 11.0
P = 0.002
KINDS = ("max-uniform", "max-exp", "max-geom", "kth", "bernoulli")


def _make(kind, m, k=3):
    if kind == "max-uniform":
        return ContinuousMaxSketch(m, SALT)
    if kind == "max-exp":
        return ContinuousMaxSketch(m, SALT, "exponential")
    if kind == "max-geom":
        return GeometricMaxSketch(m, Q, SALT)
    if kind == "kth":
        return KthOrderSketch(m, k, SALT)
    return BernoulliSketch(m, P, SALT)


def _state(sk):
    (a,) = sk.state_arrays()
    return a


def _arrivals(keys, m, r):
    """Times and registers of the first r arrivals of each key, (n, r) each."""
    u = uniform_block(keys, SALT, 0, 2 * r)
    times = np.add.accumulate(np.log(u[:, 0::2]) / -m, axis=1)
    dig = hashing.digest_array(keys, SALT)
    steps = np.arange(2, 2 * r + 1, 2, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    words = hashing.mix64_array(dig[:, None] + steps[None, :])
    return times, (words % np.uint64(m)).astype(np.intp)


def _first_arrivals(keys, m, r):
    """(n, m) first arrival time per (key, register) among r arrivals, inf
    where none, and each key's r-th arrival time."""
    times, regs = _arrivals(keys, m, r)
    first = np.full((len(keys), m), np.inf)
    for j in range(r - 1, -1, -1):
        first[np.arange(len(keys)), regs[:, j]] = times[:, j]
    return first, times[:, -1]


def _reduce(kind, first, m, k):
    """The state of a sketch whose first arrivals are the (n, m) matrix."""
    earliest = first.min(axis=0, initial=np.inf)
    if kind in ("max-uniform", "max-exp"):
        return -earliest
    if kind == "max-geom":
        slots = np.zeros(m, dtype=np.uint32)
        hit = np.isfinite(earliest)
        slots[hit] = geometric_slots(-earliest[hit], Q)
        return slots
    if kind == "bernoulli":
        return (earliest < -math.log1p(-P)).astype(np.uint8)
    rows = np.full((m, k), np.nan)
    for j in range(m):
        col = first[:, j]
        best = np.unique(np.exp(-col[np.isfinite(col)]))[::-1][:k]
        rows[j, :len(best)] = best
    return rows


def _reach(kind, first, k):
    """The time from which no arrival can change the oracle's state."""
    col = np.sort(first, axis=0)
    depth = k if kind == "kth" else 1
    return col[depth - 1].max() if len(col) >= depth else np.inf


def _oracle(kind, m, batches, k=3):
    keys = np.unique(np.concatenate([np.asarray(b, dtype=np.uint64) for b in batches]))
    if len(keys) == 0:
        return _state(_make(kind, m, k))
    r = 4
    while True:
        first, last = _first_arrivals(keys, m, r)
        # every key has passed the reach, or has visited every register
        if ((last >= _reach(kind, first, k)) | np.isfinite(first).all(axis=1)).all():
            return _reduce(kind, first, m, k)
        r *= 2


def _assert_same(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", [1, 255, 256, 257, 70000])
def test_batch_sizes_around_the_tile_edge(kind, n):
    keys = distinct_keys(n, seed=n)
    sk = _make(kind, 128)
    sk.add_batch(keys)
    _assert_same(_state(sk), _oracle(kind, 128, [keys]))


@pytest.mark.parametrize("kind", KINDS)
def test_successive_batches_accumulate(kind):
    keys = distinct_keys(900, seed=4)
    sk = _make(kind, 33)
    for lo, hi in ((0, 257), (257, 258), (258, 900)):
        sk.add_batch(keys[lo:hi])
    _assert_same(_state(sk), _oracle(kind, 33, [keys]))


@pytest.mark.parametrize("kind", KINDS)
def test_duplicate_heavy_batch(kind):
    rng = np.random.default_rng(5)
    pool = distinct_keys(40, seed=6)
    keys = pool[rng.integers(0, len(pool), 5000)]
    sk = _make(kind, 64)
    sk.add_batch(keys)
    _assert_same(_state(sk), _oracle(kind, 64, [keys]))


@pytest.mark.parametrize("kind", KINDS)
def test_single_stream(kind):
    # at m=1 a key's first arrival is its only one that can count
    keys = distinct_keys(70000, seed=8)
    sk = _make(kind, 1)
    sk.add_batch(keys)
    _assert_same(_state(sk), _oracle(kind, 1, [keys]))


@pytest.mark.parametrize("kind", KINDS)
def test_single_item_add_matches_batch(kind):
    keys = distinct_keys(20, seed=9)
    one, batch = _make(kind, 12), _make(kind, 12)
    for key in keys.tolist():
        one.add(key)
    batch.add_batch(keys)
    _assert_same(_state(one), _state(batch))
    _assert_same(_state(one), _oracle(kind, 12, [keys]))


def _register_counts():
    """(kind, k, m) beyond the tests above: m of 1, 7 and 128, and k = 1."""
    for kind in KINDS:
        for k in ((1, 3) if kind == "kth" else (3,)):
            for m in (1, 7, 128):
                if k == 1 or m != 128:
                    yield kind, k, m


@pytest.mark.parametrize("kind,k,m", list(_register_counts()))
@pytest.mark.parametrize("n", [1, 255, 256, 257, 70000])
def test_batches_at_every_register_count(kind, k, m, n):
    keys = distinct_keys(n, seed=n + m)
    sk = _make(kind, m, k)
    sk.add_batch(keys)
    _assert_same(_state(sk), _oracle(kind, m, [keys], k))


@pytest.mark.parametrize("kind,k,m", list(_register_counts()))
def test_repeats_successive_batches_and_single_adds_at_every_register_count(kind, k, m):
    rng = np.random.default_rng(m + k)
    keys = distinct_keys(600, seed=m)
    repeated = keys[rng.integers(0, 40, 3000)]
    sk = _make(kind, m, k)
    sk.add_batch(repeated)
    _assert_same(_state(sk), _oracle(kind, m, [repeated], k))
    for lo, hi in ((0, 257), (257, 258), (258, 600)):
        sk.add_batch(keys[lo:hi])
    _assert_same(_state(sk), _oracle(kind, m, [keys], k))
    one = _make(kind, m, k)
    for key in keys[:12].tolist():
        one.add(key)
    _assert_same(_state(one), _oracle(kind, m, [keys[:12]], k))


@pytest.mark.parametrize("kind", KINDS)
def test_empty_batch_leaves_state_alone(kind):
    sk = _make(kind, 16)
    sk.add_batch(np.array([], dtype=np.uint64))
    _assert_same(_state(sk), _state(_make(kind, 16)))
    sk.add_batch(distinct_keys(10, seed=1))
    before = _state(sk).copy()
    sk.add_batch([])
    _assert_same(_state(sk), before)


def test_kth_with_fewer_items_than_k():
    keys = distinct_keys(2, seed=10)
    sk = _make("kth", 8)
    sk.add_batch(keys)
    assert np.isnan(sk.topk[:, 2]).all() and not np.isnan(sk.topk[:, :2]).any()
    _assert_same(sk.topk, _oracle("kth", 8, [keys]))


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", [1, 300])
def test_rounds_chunks_and_passes_do_not_change_the_state(kind, n, monkeypatch):
    # (tile words, first chunk, keys per pass): one arrival per round with
    # small chunks; the defaults; large blocks and chunks; passes of 7 keys
    keys = distinct_keys(n, seed=13)
    states = []
    for tile, chunk, per_pass in ((1, -3, 1 << 16), (hashing._TILE_WORDS, hashing._FIRST_CHUNK, 1 << 16),
                                  (1 << 22, 64, 1 << 16), (hashing._TILE_WORDS, 0, 7)):
        monkeypatch.setattr(hashing, "_TILE_WORDS", tile)
        monkeypatch.setattr(hashing, "_FIRST_CHUNK", chunk)
        monkeypatch.setattr(hashing, "_KEYS_PER_PASS", per_pass)
        sk = _make(kind, 33)
        sk.add_batch(keys)
        states.append(_state(sk))
    for s in states[1:]:
        _assert_same(s, states[0])
    _assert_same(states[0], _oracle(kind, 33, [keys]))


@pytest.mark.parametrize("kind", KINDS)
def test_merged_shards_equal_one_pass_in_any_split_and_order(kind):
    keys = distinct_keys(3000, seed=14)
    whole = _make(kind, 64)
    whole.add_batch(keys)
    rng = np.random.default_rng(15)
    for _ in range(3):
        cuts = np.sort(rng.integers(0, len(keys), size=3))
        parts = np.split(keys[rng.permutation(len(keys))], cuts)
        sketches = []
        for part in parts:
            sk = _make(kind, 64)
            sk.add_batch(part)
            sketches.append(sk)
        merged = sketches[-1]
        for sk in sketches[-2::-1]:
            merged = merged.merge(sk)
        _assert_same(_state(merged), _state(whole))


def test_registers_are_uniform():
    # the register of a key's earliest arrival is its arrival 0's
    m, n = 7, 20000
    keys = distinct_keys(n, seed=16)
    earliest = np.full(n, np.inf)
    register = np.full(n, -1)
    bound = np.full(m, np.inf)
    for rows, regs, t in hashing.first_arrivals(keys, SALT, m, bound):
        better = t < earliest[rows]
        earliest[rows[better]] = t[better]
        register[rows[better]] = regs[better]
    counts = np.bincount(register, minlength=m)
    assert counts.sum() == n
    assert chisquare(counts).pvalue > 1e-3


def test_every_first_arrival_is_yielded_once_while_bounds_are_infinite():
    keys = distinct_keys(50, seed=17)
    seen = []
    for rows, regs, t in hashing.first_arrivals(keys, SALT, 5, np.full(5, np.inf)):
        seen += list(zip(rows.tolist(), regs.tolist(), t.tolist()))
    first, _ = _first_arrivals(keys, 5, 256)
    assert np.isfinite(first).all()
    assert sorted(seen) == sorted((i, j, first[i, j]) for i in range(50) for j in range(5))


def test_a_lone_item_hashes_about_m_log_m_words(monkeypatch):
    counted = []
    mix = hashing.mix64_array

    def counting(z, *args, **kwargs):
        counted.append(z.size)
        return mix(z, *args, **kwargs)

    monkeypatch.setattr(hashing, "mix64_array", counting)
    m = 4096
    sk = ContinuousMaxSketch(m, SALT)
    sk.add("lone")
    assert np.isfinite(sk.slots).all()
    assert sum(counted) <= 4 * m * math.log(m)


def test_a_warm_sketch_hashes_few_words_per_item(monkeypatch):
    counted = []
    mix = hashing.mix64_array
    sk = ContinuousMaxSketch(128, SALT)
    sk.add_batch(distinct_keys(20000, seed=18))
    keys = distinct_keys(20000, seed=19)
    monkeypatch.setattr(hashing, "mix64_array",
                        lambda z, *a, **kw: counted.append(z.size) or mix(z, *a, **kw))
    sk.add_batch(keys)
    assert sum(counted) <= 2.5 * 20000


def test_word_tiles_cover_uniform_block():
    keys = distinct_keys(1000, seed=12)
    tiles = [t.copy() for t in hashing.word_tiles(keys, SALT, 128)]
    assert [len(t) for t in tiles] == [256, 256, 256, 232]
    _assert_same(hashing.unit_array(np.concatenate(tiles)), uniform_block(keys, SALT, 0, 128))
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


FOLDED = ("max-uniform", "max-geom", "kth", "bernoulli")


def _hashed_words(monkeypatch, sk, keys):
    """How many mix64 words sk hashes to ingest keys."""
    counted = []
    mix = hashing.mix64_array
    with monkeypatch.context() as patch:
        patch.setattr(hashing, "mix64_array",
                      lambda z, *a, **kw: counted.append(z.size) or mix(z, *a, **kw))
        sk.add_batch(keys)
    return sum(counted)


@pytest.mark.parametrize("kind", FOLDED)
@pytest.mark.parametrize("warm", [False, True])
def test_repeated_keys_hash_as_many_words_as_their_distinct_keys_alone(kind, warm, monkeypatch):
    rng = np.random.default_rng(20)
    pool = distinct_keys(300, seed=21)
    keys = pool[rng.integers(0, len(pool), 5000)]
    _, first = np.unique(keys, return_index=True)
    alone = keys[np.sort(first)]  # each key once, in the batch's order
    rows, once = _make(kind, 64), _make(kind, 64)
    if warm:
        for sk in (rows, once):
            sk.add_batch(distinct_keys(2000, seed=22))
    assert _hashed_words(monkeypatch, rows, keys) == _hashed_words(monkeypatch, once, alone)
    _assert_same(_state(rows), _state(once))


@pytest.mark.parametrize("kind", FOLDED)
def test_a_heavy_hitter_hashes_no_more_words_than_its_distinct_keys(kind, monkeypatch):
    # one key on 2,400 of 16,384 rows, the rest a Zipf tail over 20,000 keys
    rng = np.random.default_rng(23)
    pool = distinct_keys(20001, seed=24)
    tail = pool[1 + (rng.zipf(1.2, 16384 - 2400) - 1) % 20000]
    keys = np.concatenate([np.full(2400, pool[0]), tail])[rng.permutation(16384)]
    distinct = np.unique(keys)
    assert len(distinct) < len(keys) // 2
    heavy, once = _make(kind, 128), _make(kind, 128)
    assert _hashed_words(monkeypatch, heavy, keys) <= _hashed_words(monkeypatch, once, distinct)
    _assert_same(_state(heavy), _state(once))
    _assert_same(_state(heavy), _oracle(kind, 128, [keys]))


def _heavy_batches(m):
    """A warm-up batch, then one where a single key fills half the rows
    and the rest partly repeat the first batch."""
    rng = np.random.default_rng(m)
    warm = distinct_keys(400, seed=26)
    pool = np.concatenate([warm[:100], distinct_keys(200, seed=27)])
    heavy = np.concatenate([np.full(600, pool[0]), pool[rng.integers(0, len(pool), 600)]])
    return warm, heavy[rng.permutation(len(heavy))]


def _depth_cases():
    """(kind, k): kth at depths 1, 3 and 40, and the depth-1 types."""
    return [("kth", k) for k in (1, 3, 40)] + [(kind, 3) for kind in KINDS if kind != "kth"]


@pytest.mark.parametrize("kind,k", _depth_cases())
def test_first_chunk_size_does_not_change_a_warm_state(kind, k, monkeypatch):
    m = 33
    batches = _heavy_batches(m)
    states = []
    for chunk in (-3, 0, 4, 64):
        monkeypatch.setattr(hashing, "_FIRST_CHUNK", chunk)
        sk = _make(kind, m, k)
        for keys in batches:
            sk.add_batch(keys)
        states.append(_state(sk))
    for s in states[1:]:
        _assert_same(s, states[0])
    _assert_same(states[0], _oracle(kind, m, batches, k))


def _yielded_sizes(monkeypatch):
    """Spy on first_arrivals: the list the sizes of its chunks go to."""
    sizes = []
    real = hashing.first_arrivals

    def spy(*args, **kwargs):
        for rows, regs, t in real(*args, **kwargs):
            assert len(rows) == len(regs) == len(t)
            sizes.append(len(t))
            yield rows, regs, t

    monkeypatch.setattr(hashing, "first_arrivals", spy)
    return sizes


@pytest.mark.parametrize("kind,k", _depth_cases())
@pytest.mark.parametrize("m", [1, 33, 128])
def test_no_yielded_chunk_is_empty(kind, k, m, monkeypatch):
    sizes = _yielded_sizes(monkeypatch)
    sk = _make(kind, m, k)
    for keys in _heavy_batches(m) + (distinct_keys(10000, seed=28),):
        sk.add_batch(keys)
    assert sizes and min(sizes) > 0


@pytest.mark.parametrize("m", [2, 7, 33, 128, 4096, 1 << 16])
@pytest.mark.parametrize("chunk", [0, 4, 64])
def test_first_chunk_at_depth_one_is_m_log_m_plus_the_margin(m, chunk):
    assert hashing._first_chunk(m, 1, chunk) == int(m * (math.log(m) + chunk))


@pytest.mark.parametrize("m", [1, 7, 128, 4096])
@pytest.mark.parametrize("depth", [2, 3, 40, 1000])
@pytest.mark.parametrize("chunk", [0, 4, 64])
def test_first_chunk_meets_the_poisson_bound_at_depth(m, depth, chunk):
    from scipy.stats import poisson

    size = hashing._first_chunk(m, depth, chunk)
    limit = math.exp(-chunk)
    # size is int(m * lam), at least 1, for the smallest rate lam that
    # meets the bound (0 at m = 1 and margin 0)
    assert m * poisson.cdf(depth - 1, (size + 1) / m) <= limit
    if m > limit:
        assert m * poisson.cdf(depth - 1, (size - 1) / m) > limit
        assert size > hashing._first_chunk(m, 1, chunk)
    else:
        assert size == 1


def test_first_chunk_below_one_arrival_is_one():
    # m * (ln m + margin) < 1, and a margin that needs no arrival at all
    assert hashing._first_chunk(7, 1, -3) == 1
    assert hashing._first_chunk(7, 3, -3) == 1


def test_a_patched_first_chunk_margin_changes_the_first_chunk(monkeypatch):
    taken = []
    real = hashing._pass_arrivals

    def spy(keys, salt, m, bound, first_chunk):
        taken.append(first_chunk)
        return real(keys, salt, m, bound, first_chunk)

    monkeypatch.setattr(hashing, "_pass_arrivals", spy)
    keys = distinct_keys(50, seed=29)
    for depth in (1, 3):
        sizes = []
        for chunk in (4, 0, 4):
            monkeypatch.setattr(hashing, "_FIRST_CHUNK", chunk)
            taken.clear()
            for _ in hashing.first_arrivals(keys, SALT, 64, np.full(64, np.inf), depth):
                pass
            assert taken == [hashing._first_chunk(64, depth, chunk)]
            sizes.append(taken[0])
        assert sizes[0] == sizes[2] > sizes[1]
