"""Seeded hashing: an item identity deterministically selects a reproducible
stream of pseudo-random variates with a chosen marginal distribution.

The item's bytes are folded to a 64-bit key (FNV-1a), avalanched together
with a global salt (splitmix64 finalizer), and the j-th variate of the item
is the finalizer applied at counter j.  This is order-invariant, needs no
per-item state, and is reproducible across runs.

``item_key`` folds one item.  ``fold_spans`` is the one FNV-1a kernel for
many: it folds byte spans of one uint8 buffer, a byte column at a time,
and the last few long spans one by one.
``keys_array`` folds its str/bytes items as spans of their joined bytes,
and the CLI folds its ids in place, as spans of the input it read; both
give the keys ``item_key`` gives.

An item's counters are read in one of two layouts.

- Columns (LogLog, HyperLogLog, MinCount and the projection sketch):
  ``word_tiles`` yields the words of counters 0..n-1 of every key a few
  hundred rows at a time in reused buffers, so no path materialises the
  whole (items x n) matrix.  The bucket sketches read column 0; the
  projection sketch reads 2m columns, taking stream j's uniform u from
  column 2j and its exponential w from column 2j+1 (``stable_log_tiles``).
- Arrivals (the max family): ``first_arrivals`` gives each key a rate-m
  Poisson process of arrivals, each in a register chosen uniformly.
  Arrival r reads counter 2r, its Exp(1)/m spacing, and counter 2r+1, its
  register.  A key's first arrival in each register is Exp(1), independent
  across registers, so a maximal-term state is a function of the earliest
  first arrival per register, and a key stops as soon as its next arrival
  can no longer change the state: after warm-up an item costs about two
  words, not one per register.  Arrivals are taken in ascending time, in
  chunks: the first of a round is sized by how many first arrivals per
  register the consumer keeps (its depth: k for the top-k sketch, else 1)
  to reach every register that many times, so one chunk usually settles
  a round, and a chunk with nothing left to yield is skipped.  A repeated
  key has its first copy's arrivals, so the max family folds a batch's
  repeated keys before it asks for arrivals (``order_sketch``): ingest
  cost follows the distinct keys of a batch, not its rows.

A single item is a one-row call: the digest and word functions have no
scalar branch, and only ``keys_array`` folds one item by itself.  Words
become variates where they are consumed: the max family's slots in
``order_sketch``, the stable log variates here.

The stable variate needs three sines per (item, stream).  ``kanter_sines``
computes them without numpy's sin, whose float64 loop is not vectorized
on every CPU: it reflects each argument that can pass 1/2 exactly into
[0, 1/2] and evaluates an 8-term polynomial fitted to sin(pi*r) for
relative error.  Tiles, one-row calls, the sampler and the stable law's
median all share this one formula, within about 2 ulps of the exact sine
of the rounded argument even as u -> 1.

Do NOT use Python's built-in hash(): it is salted per process.
"""

from __future__ import annotations

import functools
import math
import sys

import numpy as np

_MASK64 = 0xFFFFFFFFFFFFFFFF
_GAMMA = 0x9E3779B97F4A7C15  # splitmix64 counter increment
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_SALT_TAG = 0x6C62272E07BB0142  # folded into the salt so salt=0 still avalanches

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3

_U_GAMMA = np.uint64(_GAMMA)
_U_MIX1 = np.uint64(_MIX1)
_U_MIX2 = np.uint64(_MIX2)
_U_FNV_PRIME = np.uint64(_FNV_PRIME)
_UNIT_MAX = 1.0 - 2.0**-53  # the largest double below 1
_U_UNIT_SHIFT = np.uint64(11)  # a uniform keeps a word's top 53 bits


def mix64(z: int) -> int:
    """splitmix64 finalizer: bijective 64-bit avalanche."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


_U_SHIFTS = (np.uint64(30), np.uint64(27), np.uint64(31))

# row tiles of word_tiles hold about this many words (256 KiB), so a tile
# and its scratch buffer fit a typical per-core L2 cache; a round of
# first_arrivals gives its live keys at most this many arrivals in all, or
# m when that is more (a round costs O(m) besides), or one each when more
# keys are live
_TILE_WORDS = 1 << 15


def mix64_array(z: np.ndarray, out: np.ndarray | None = None,
                scratch: np.ndarray | None = None) -> np.ndarray:
    """Vectorized mix64 on uint64 arrays; wraps modulo 2**64 like the scalar
    path.  The result is written to ``out`` (which may be ``z`` itself; a
    fresh array by default) and ``scratch``, an array shaped like ``z``
    (fresh by default), holds the shifted temporaries."""
    s30, s27, s31 = _U_SHIFTS
    if out is None:
        out = np.empty_like(z)
    if scratch is None:
        scratch = np.empty_like(out)
    np.right_shift(z, s30, out=scratch)
    np.bitwise_xor(z, scratch, out=out)
    np.multiply(out, _U_MIX1, out=out)
    np.right_shift(out, s27, out=scratch)
    np.bitwise_xor(out, scratch, out=out)
    np.multiply(out, _U_MIX2, out=out)
    np.right_shift(out, s31, out=scratch)
    np.bitwise_xor(out, scratch, out=out)
    return out


def item_key(item) -> int:
    """Canonical 64-bit key for an item identifier.

    Integers in [0, 2**64) are taken as keys directly (synthetic streams);
    str (as UTF-8) and bytes are FNV-1a folded.  Keys are avalanched with
    the salt before use, so raw integer structure is harmless.
    """
    if isinstance(item, (int, np.integer)) and not isinstance(item, bool):
        if 0 <= item <= _MASK64:
            return int(item)
        raise TypeError(f"integer item {item} is outside [0, 2**64)")
    if isinstance(item, str):
        item = item.encode("utf-8")
    if not isinstance(item, (bytes, bytearray)):
        raise TypeError("item must be an int in [0, 2**64), str or bytes, "
                        f"got {type(item).__name__}")
    return _fnv1a(_FNV_OFFSET, item)


def _fnv1a(h: int, data) -> int:
    """FNV-1a of the bytes data, continued from the hash h."""
    for byte in data:
        h = ((h ^ byte) * _FNV_PRIME) & _MASK64
    return h


_TEXT = (str, bytes, bytearray)

# fold_spans folds the spans one by one once this few are left: a byte
# folded in Python costs some forty times less than a numpy round over a
# column
_FEW_SPANS = 32


def keys_array(items) -> np.ndarray:
    """uint64 keys of items, each equal to its ``item_key``: a 1-d uint64
    array as is, any other 1-d integer array converted in one step,
    str/bytes items folded together, other items one by one."""
    if isinstance(items, np.ndarray) and items.dtype.kind in "iu" and items.ndim == 1:
        if items.dtype.kind == "i" and items.size and items.min() < 0:
            raise TypeError(f"integer item {items.min()} is outside [0, 2**64)")
        return items.astype(np.uint64, copy=False)
    items = list(items)
    if len(items) == 1:
        # one item: the scalar fold skips the fixed cost of the column loop
        return np.array([item_key(items[0])], dtype=np.uint64)
    text = [i for i, it in enumerate(items) if isinstance(it, _TEXT)]
    if len(text) == len(items):
        return _fold_text(items)
    keys = np.array([0 if isinstance(it, _TEXT) else item_key(it) for it in items],
                    dtype=np.uint64)
    if text:
        keys[text] = _fold_text([items[i] for i in text])
    return keys


def _fold_text(items) -> np.ndarray:
    """FNV-1a keys of str/bytes items, folded as spans of their joined bytes."""
    data = [it.encode("utf-8") if isinstance(it, str) else it for it in items]
    lens = np.fromiter(map(len, data), dtype=np.int64, count=len(data))
    buf = np.frombuffer(b"".join(data), dtype=np.uint8)
    return fold_spans(buf, np.cumsum(lens) - lens, lens)


def fold_spans(buf: np.ndarray, starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """FNV-1a keys of the byte spans buf[starts[i]:starts[i] + lens[i]] of
    one uint8 buffer, each equal to the ``item_key`` of its bytes.

    starts and lens are int64 arrays.  Spans may be empty, repeated or
    overlap; they must lie inside buf.  The spans are sorted by length,
    longest first, and byte column j is folded into the prefix of spans
    longer than j: one gather of the bytes under a per-span cursor into a
    reused buffer, one xor and one multiply, all in place, and the cursor
    steps on.  numpy folds only the columns that more than _FEW_SPANS spans
    reach, up to the (_FEW_SPANS + 1)-th longest length, and the prefix
    sizes are counted for those columns alone, from the sorted lengths.
    The at most _FEW_SPANS spans left each cost less folded alone, byte by
    byte, than a round of numpy calls per column of the longest: one long
    id among many short ones does not set the time of all, nor its memory.
    """
    neg = -lens
    order = np.argsort(neg, kind="stable")
    neg = neg[order]  # ascending: minus the lengths, longest first
    cols = -int(neg[_FEW_SPANS]) if len(neg) > _FEW_SPANS else 0
    # longer[j]: how many spans have a byte j, a prefix of the sorted order
    longer = np.searchsorted(neg, -np.arange(cols + 1)).tolist()
    cursor = starts[order]
    h = np.full(len(lens), _FNV_OFFSET, dtype=np.uint64)
    column = np.empty(longer[0], dtype=np.uint8)
    for k in longer[:-1]:
        hk, bytes_k, cur = h[:k], column[:k], cursor[:k]
        np.take(buf, cur, out=bytes_k)
        hk ^= bytes_k
        hk *= _U_FNV_PRIME
        cur += 1
    k = longer[-1]
    if k:
        ends = cursor[:k] - neg[:k] - cols
        h[:k] = [_fnv1a(v, buf[a:b].tobytes())
                 for v, a, b in zip(h[:k].tolist(), cursor[:k].tolist(), ends.tolist())]
    keys = np.empty_like(h)
    keys[order] = h
    return keys


def run_starts(srt: np.ndarray) -> np.ndarray:
    """The mask of the entries of a sorted 1-d array that start a run of
    equal values: the first, and each that differs from the one before."""
    new = np.empty(len(srt), dtype=bool)
    new[:1] = True
    np.not_equal(srt[1:], srt[:-1], out=new[1:])
    return new


def salt_base(salt: int) -> int:
    return mix64(salt ^ _SALT_TAG)


def digest_array(keys: np.ndarray, salt: int) -> np.ndarray:
    """Per-item digests mix64(key ^ salt_base(salt)), which seed the
    counter-based variate streams."""
    z = np.ascontiguousarray(keys, dtype=np.uint64) ^ np.uint64(salt_base(salt))
    return mix64_array(z, out=z)


def unit_array(words: np.ndarray) -> np.ndarray:
    """Uniforms of raw hash words, strictly inside (0,1) and monotone
    (non-decreasing) in the word.

    The top 53 bits, offset by half a step; the largest of them rounds up
    to 1.0, so it is clamped to the largest double below 1.
    """
    return _unit((words >> _U_UNIT_SHIFT).astype(np.float64))


def _unit(u: np.ndarray) -> np.ndarray:
    """``unit_array``, in place, of a float64 array of the words' top 53 bits."""
    u += 0.5
    u *= 2.0**-53
    return np.minimum(u, _UNIT_MAX, out=u)


def word_tiles(keys: np.ndarray, salt: int, m: int):
    """Yield the raw words of counters 0..m-1 of the keys, one row per key,
    in row tiles of about _TILE_WORDS words, top to bottom.

    Each tile is a view of one buffer, of at most as many rows as there are
    keys, that the next tile overwrites, so a consumer reduces a tile
    before asking for the next and keeps no reference to it.  Yields
    nothing for an empty key array.
    """
    dig = digest_array(keys, salt)
    steps = np.arange(1, m + 1, dtype=np.uint64) * _U_GAMMA  # (counter + 1) * GAMMA
    buf = np.empty((max(1, min(_TILE_WORDS // m, len(dig))), m), dtype=np.uint64)
    scratch = np.empty_like(buf)
    for lo in range(0, len(dig), len(buf)):
        part = dig[lo:lo + len(buf)]
        words, tmp = buf[:len(part)], scratch[:len(part)]
        np.add(part[:, None], steps[None, :], out=words)
        yield mix64_array(words, out=words, scratch=tmp)


# first_arrivals follows at most this many keys at once
_KEYS_PER_PASS = 1 << 16

# the first chunk of a round holds m * lam arrivals, lam the smallest rate at
# which m * P(Poisson(lam) < depth) <= e**-_FIRST_CHUNK: its arrivals then
# reach every register depth times 98% of the time (at depth 1, lam is
# ln m + _FIRST_CHUNK); each later chunk holds twice as many as the one before
_FIRST_CHUNK = 4


def first_arrivals(keys: np.ndarray, salt: int, m: int, bound: np.ndarray, depth: int = 1):
    """Yield (rows, registers, times) for the first arrivals, per key and
    register, of the keys' arrival processes that can still change a state.

    Key i (row i of keys) arrives at the running sums of its spacings,
    added in order from 0, and its arrival r reads two counters: 2r for
    the spacing -log(u)/m, an Exp(1)/m, and 2r+1 for the register, word %
    m (biased by at most m * 2**-64).  The spacings are summed by
    ``np.add.accumulate`` onto the time each key carries from the round
    before, so the times do not depend on how arrivals are grouped.

    ``bound[j]`` is the time from which an arrival in register j cannot
    change the consumer's state (inf while any can).  The consumer lowers
    it in place, and never raises it, before asking for the next chunk.
    An arrival is yielded only if it is its key's first in its register
    and comes before that register's bound, and a key stops once its next
    arrival comes after every finite bound and it has visited every
    register whose bound is infinite.  A chunk with no such arrival is not
    yielded.

    The work runs in rounds.  A round gives every live key the same number
    of arrivals: about what the earliest needs to pass every bound, or what
    the keys need to reach every register whose bound is infinite.  It
    takes them in ascending time, in doubling chunks, so once the bounds
    have fallen the later ones are dropped without hashing their
    registers.  ``depth`` is how many first arrivals per register the
    consumer keeps (k for a top-k state, 1 for the others); the first
    chunk is sized so that it most likely reaches every register that many
    times (``_first_chunk``), so that a round's bounds fall in one chunk.
    Keys are followed _KEYS_PER_PASS at a time, so the temporaries stay a
    few times that size however long the batch.

    Every row is followed, a repeated key too, though its arrivals are its
    first copy's and cannot change a state; the consumers in
    ``order_sketch`` fold a batch's repeated keys first, so that ingest
    cost follows the distinct keys.
    """
    size = _first_chunk(m, depth, _FIRST_CHUNK)
    for lo in range(0, len(keys), _KEYS_PER_PASS):
        for rows, regs, t in _pass_arrivals(keys[lo:lo + _KEYS_PER_PASS], salt, m, bound, size):
            yield rows + lo, regs, t


@functools.lru_cache(maxsize=64)
def _first_chunk(m: int, depth: int, margin: float) -> int:
    """int(m * lam), at least 1, for the smallest rate lam >= 0 at which
    m * P(Poisson(lam) < depth) <= e**-margin: int(m * (ln m + margin)) at
    depth 1, and otherwise lam found by bisection on the log of the
    Poisson sum, to the last bit."""
    lam = math.log(m) + margin
    if depth > 1 and lam > 0:
        i = np.arange(depth)
        log_fact = np.concatenate(([0.0], np.cumsum(np.log(i[1:]))))

        def met(rate):  # log m + margin + log P(Poisson(rate) < depth) <= 0
            terms = i * math.log(rate) - log_fact
            top = terms.max()
            return math.log(m) + margin + top + math.log(np.exp(terms - top).sum()) - rate <= 0

        lo, hi = 0.0, lam + depth
        while not met(hi):
            lo, hi = hi, 2 * hi
        mid = (lo + hi) / 2
        while lo < mid < hi:
            lo, hi = (lo, mid) if met(mid) else (mid, hi)
            mid = (lo + hi) / 2
        lam = hi
    return max(1, int(m * lam))


def _pass_arrivals(keys: np.ndarray, salt: int, m: int, bound: np.ndarray, first_chunk: int):
    """``first_arrivals`` of one pass of keys, the first chunk of each round
    holding first_chunk arrivals."""
    dig = digest_array(keys, salt)
    rows = np.arange(len(dig))
    carry = np.zeros(len(dig))
    # sorted codes row * m + register of the visits before their
    # register's bound, with their times: a later visit of the key to the
    # register is a repeat, and while a bound is infinite they show which
    # keys have visited every register it holds
    seen, seen_t = np.empty(0, dtype=np.int64), np.empty(0)
    r = 0
    while len(rows):
        # twice as many arrivals as the earliest key needs on average to
        # pass every bound, or about as many as the keys together need to
        # reach every register whose bound is infinite (m ln u + m arrivals
        # reach u registers)
        top = bound.max()
        if top < np.inf:
            need = 2 * m * (top - carry.min())
        else:
            need = m * (math.log(np.count_nonzero(bound == np.inf)) + 1) / len(rows)
            if r:
                # a bound still infinite after a round: the few keys left
                # have few registers left to reach, so each round grows by
                # at least twice the last, and the rounds number about log
                # of the arrivals needed, not their count over the first
                # round's; the times are the same however arrivals are grouped
                need = max(need, 2 * block)
        block = max(1, math.ceil(min(need, max(_TILE_WORDS, m) // len(rows))))
        # counter c adds (c + 1) * GAMMA: spacings even, registers odd
        steps = np.arange(2 * r + 1, 2 * (r + block) + 1, dtype=np.uint64) * _U_GAMMA
        d = dig[rows] if r else dig
        words = d[:, None] + steps[None, 0::2]
        t = unit_array(mix64_array(words, out=words))
        np.log(t, out=t)
        np.divide(t, -m, out=t)
        if r:  # the first arrival starts from 0
            t[:, 0] += carry
        if block > 1:
            np.add.accumulate(t, axis=1, out=t)
        flat = t.ravel()
        taken = -np.inf  # every arrival up to this time has been taken
        size = first_chunk
        while taken < np.inf:
            chunk = flat < top
            if taken > -np.inf:
                chunk &= flat > taken
            pos = np.flatnonzero(chunk)
            if not len(pos):
                break
            if len(pos) > size:
                times = flat[pos]
                taken = np.partition(times, size)[size]
                pos = pos[np.flatnonzero(times <= taken)]
            else:
                taken = np.inf
            i, b = np.divmod(pos, block)
            w = d[i] + steps[1::2][b]
            regs = (mix64_array(w, out=w) % np.uint64(m)).astype(np.intp)
            code = rows[i] * m + regs
            if block > 1:  # a key's first visit to each register in the chunk
                order = np.argsort(code)
                code = code[order]
                starts = np.flatnonzero(run_starts(code))
                code, first = code[starts], np.minimum.reduceat(order, starts)
            else:
                first = np.arange(len(code))
            if len(seen):
                new = np.flatnonzero(
                    seen[np.minimum(np.searchsorted(seen, code), len(seen) - 1)] != code)
                code, first = code[new], first[new]
            regs, when = regs[first], flat[pos[first]]
            # index arrays, not masks: a boolean index of a mask that is
            # true about half the time costs several times as much
            live = np.flatnonzero(when < bound[regs])
            if len(live):  # else the bounds, and so the seen visits, stand
                code, regs, when = code[live], regs[live], when[live]
                yield rows[i[first[live]]], regs, when
                top = bound.max()
                if len(seen):
                    keep = np.flatnonzero(seen_t < bound[seen % m])
                    seen, seen_t = seen[keep], seen_t[keep]
                stays = when < bound[regs]
                seen, seen_t = _insert(seen, seen_t, code[stays], when[stays])
            size *= 2
        last = t[:, -1]
        if top < np.inf:
            alive = last < top
        else:
            # a key still counts while it is before a finite bound or has not
            # visited every register whose bound is infinite
            infinite = bound == np.inf
            visits = seen[infinite[seen % m]]
            visited = np.searchsorted(visits, rows * m + m) - np.searchsorted(visits, rows * m)
            alive = (last < bound[~infinite].max(initial=-np.inf)) | (visited < infinite.sum())
        alive = np.flatnonzero(alive)
        rows, carry = rows[alive], last[alive]
        r += block


def _insert(seen: np.ndarray, seen_t: np.ndarray, code: np.ndarray, when: np.ndarray):
    """The sorted codes seen joined to new codes, none already there, with
    their times."""
    if not len(code):
        return seen, seen_t
    codes = np.concatenate([seen, code])
    order = np.argsort(codes, kind="stable")
    return codes[order], np.concatenate([seen_t, when])[order]


# sin(pi*r) = r * P(r*r) on r in [0, 1/2], P of degree 7 in r*r: P(0) is
# the double nearest pi, and the other seven coefficients were fitted in
# 60-digit arithmetic (mpmath) by least squares on the relative error
# P(s) sqrt(s) / sin(pi sqrt(s)) - 1 at 400 Chebyshev nodes of s in
# [0, 1/4], then rounded to the nearest double.  The fit errs by at most
# 1.55e-16 relative, 0.7 ulp (an ulp here is 2**-52 relative), and the
# float64 kernel by at most about 2 ulps of the exact sine, at r just
# below 1/2 (2.01 over 75,000 sampled r).  To regenerate: at mp.dps = 60,
# solve that linear least-squares problem for the coefficients of
# s**1..s**7 with P(0) fixed, and print them with repr(float(c)).
_SIN_PI_POLY = (3.141592653589793, -5.167712780049799, 2.5501640398616847,
                -0.5992645288109113, 0.08214587859177627, -0.007370362788686614,
                0.0004659821106044101, -2.1127669416221283e-05)


def kanter_sines(u, alpha: float) -> np.ndarray:
    """sin(pi*u), sin(alpha*pi*u) and sin((1-alpha)*pi*u), stacked on a new
    leading axis, for u in [0,1] and alpha in (0,1).

    The arguments x = u, alpha*u and (1-alpha)*u are rounded products, and
    each sine is that of its rounded x.  The two planes whose x can pass
    1/2, u and the larger of alpha*u and (1-alpha)*u, are reflected to
    r = min(x, 1-x) <= 1/2, exactly (1-x is exact for x >= 1/2); the third
    is already there.  Then sin(pi*r) = r*P(r*r), P the 8-term polynomial
    above, is evaluated by Horner's rule in one pass over all three
    planes, within about 2 ulps of relative error.  numpy's sin is
    avoided: its float64 loop is not vectorized on every CPU, where it
    took most of a tile's time, and sin(pi*u) of the rounded product pi*u
    loses the relative precision near u = 1 that the reflection keeps.
    """
    u = np.asarray(u, dtype=np.float64)
    return _kanter_sines(u, alpha, np.empty((3, 3, *u.shape)))


def _kanter_sines(u: np.ndarray, alpha: float, planes: np.ndarray) -> np.ndarray:
    """``kanter_sines`` of float64 u in planes, a (3, 3, *u.shape) float64
    array: the sines are written to planes[0], the other two are scratch."""
    p, r, r2 = planes
    np.multiply.outer((1.0, alpha, 1.0 - alpha), u, out=r)
    # alpha*u passes 1/2 only for alpha > 1/2, (1-alpha)*u only for alpha < 1/2
    x, y = (r[:2], p[:2]) if alpha > 0.5 else (r[::2], p[::2])
    np.subtract(1.0, x, out=y)
    np.minimum(x, y, out=x)
    np.multiply(r, r, out=r2)
    np.multiply(r2, _SIN_PI_POLY[-1], out=p)
    for c in _SIN_PI_POLY[-2:0:-1]:
        p += c
        p *= r2
    p += _SIN_PI_POLY[0]
    p *= r
    return p


def _stable_log(u: np.ndarray, w: np.ndarray, alpha: float,
                planes: np.ndarray | None = None) -> np.ndarray:
    """Kanter's log X of ``stable_log_variate`` for float64 u in (0,1) and
    w > 0 of one shape, unchecked, as a fresh array; planes, if given, is
    the scratch of ``_kanter_sines``."""
    if planes is None:
        planes = np.empty((3, 3, *u.shape))
    s = _kanter_sines(u, alpha, planes)
    np.divide(s[1:], s[0], out=s[1:])
    s[2, ...] /= w
    lg = np.log(s[1:], out=s[1:])
    out = lg[1] * ((1.0 - alpha) / alpha)
    out += lg[0]
    return out


# the smallest alpha, about 2.28e-307: a hashed variate's log is (1 - alpha)
# / alpha times a log spanning -log(53 log 2) to 54 log 2 (at the largest and
# smallest Exponential(1) draw of stable_log_tiles), plus about log alpha; a
# tile's log-space sum subtracts such logs, DBL_MAX apart at most
_ALPHA_MIN = (54 * math.log(2.0) + math.log(53 * math.log(2.0))) / sys.float_info.max


def checked_alpha(alpha) -> float:
    """alpha as a float, or the ValueError the projection sketch refuses it
    with: it must lie in [_ALPHA_MIN, 1)."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly inside (0,1)")
    if alpha < _ALPHA_MIN:
        raise ValueError(f"alpha must lie at or above {_ALPHA_MIN!r}, got {alpha}")
    return float(alpha)


def stable_log_variate(u, w, alpha):
    """log of a positive strictly stable variate with Laplace transform
    exp(-lambda**alpha), from one uniform u and one Exponential(1) w.

    Kanter's construction,
        X = sin(alpha*pi*u) * sin(pi*u)**(-1/alpha)
            * (sin((1-alpha)*pi*u) / w)**((1-alpha)/alpha),
    evaluated and returned entirely in log space, as
        log(sin(alpha*pi*u) / sin(pi*u))
            + ((1-alpha)/alpha) * log(sin((1-alpha)*pi*u) / (sin(pi*u) * w)):
    for small alpha the magnitudes reach exp(+-hundreds), far outside
    float64 range.  The sines come from ``kanter_sines``, whose exact
    reflection keeps full relative precision as u -> 1, where the largest
    variates sit and sin(pi*u) is tiny.
    """
    u = np.asarray(u, dtype=np.float64)
    if not np.all((u > 0.0) & (u < 1.0)):
        raise ValueError("u must lie strictly inside (0,1)")
    alpha = checked_alpha(alpha)
    w = np.asarray(w, dtype=np.float64)
    if u.shape != w.shape:
        u, w = np.broadcast_arrays(u, w)
    if not np.all(w > 0.0):
        raise ValueError("w must be positive")
    return _stable_log(u, w, alpha)[()]


def stable_log_tiles(keys: np.ndarray, salt: int, m: int, alpha: float):
    """Yield (row slice, log X variates) for each ``word_tiles`` tile of the
    keys, top to bottom.  Stream j takes u from counter 2j and the
    Exponential(1) w = -log(1 - u') from counter 2j+1; ``unit_array``
    keeps u inside (0,1) and w positive, so the checks of
    ``stable_log_variate`` are skipped.

    Each tile's variates are a fresh array.  Its float temporaries (u, w
    and the sines' planes) live in buffers allocated once per call, sized
    by the first tile, the largest: allocated afresh per tile, they were
    returned to the kernel and faulted back in by every tile of a process
    whose allocator trims them.
    """
    lo = 0
    for words in word_tiles(keys, salt, 2 * m):
        n = len(words)
        if lo == 0:
            uw = np.empty((2, n, m))
            planes = np.empty((3, 3, n, m))
        np.right_shift(words, _U_UNIT_SHIFT, out=words)  # word_tiles refills it next tile
        # the top 53 bits read as int64, which numpy converts to float64
        # faster than uint64, to the same values
        top = words.view(np.int64)
        u, w = uw[:, :n]
        u[...] = top[:, 0::2]
        w[...] = top[:, 1::2]
        _unit(u)
        np.negative(_unit(w), out=w)
        np.log1p(w, out=w)
        np.negative(w, out=w)
        yield slice(lo, lo + n), _stable_log(u, w, alpha, planes[:, :, :n])
        lo += n
