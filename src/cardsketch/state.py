"""Sketch state: the base every sketch class derives from, and the layouts
that describe state arrays.

``Sketch.add_batch`` is the one ingestion entry point of every sketch
type.  It folds the items to keys and checks their quantities once:
d must match the items in length and hold finite numbers
(``StreamIntegrityError``), and only a class that declares ``deletes``
takes a quantity <= 0 (``UnsupportedDeletionError``).  A class then
absorbs the checked, non-empty batch in its ``_absorb(keys, d)``.

A class's layout is the one description of its arrays: ``names`` in
``from_state`` order, ``empty(m, **params)`` (the state of no items),
``checked(m, *arrays, **params)`` (the arrays checked against m and the
parameters), ``joined(*mine, *theirs)`` (the combine rule, as new arrays)
and the JSON and binary encodings; ``Rows.absorbed`` joins a batch's
candidates into only the rows they name, in place, and while those rows
have room only in the columns their values and the candidates can fill.
``checked`` also takes a stack of states, each array with a leading axis
of ``reps`` rows, and copies only when asked: ``from_state`` copies the
arrays its caller still holds, the decoders and the experiment runner hand
over arrays they made.

A class estimates a stack of states at once, one row per sketch, with
its classmethod ``estimates(*arrays, level, **params)`` (an
``estimate.Estimates``); ``Sketch.estimate`` is a one-row call of it.

The checks are the gate between outside data and a sketch: both decoders
build every sketch through ``from_state``, and check sizes first, so no
array sized by a declared m or k exists before the payload has shown it
holds that many entries.  ``from_state`` runs the constructor's checks
but allocates no empty state beside the checked one.

A class's ``version`` names the hash scheme its ``_absorb`` uses, and is
the format version the codecs write.  A sketch decoded from an older
scheme's document carries that version: it merges only with sketches of
the same version and refuses new items (``IncompatibleSketchError``).
"""

from __future__ import annotations

import copy
import math
import struct
import sys

import numpy as np

from . import hashing
from .errors import (IncompatibleSketchError, SerializationError, StreamIntegrityError,
                     UnsupportedDeletionError)

U16_MAX = 0xFFFF
U32_MAX = 0xFFFFFFFF
U64_MAX = 0xFFFFFFFFFFFFFFFF

_LOG2 = math.log(2.0)

# A Rows matrix is encoded and decoded only if it holds at most
# _ROWS_PER_STORED entries per row or value its payload stores, or
# _ROWS_FLOOR entries (8 MiB) in all: padding is not stored, so without
# this bound a few KB declaring many empty rows and a large k would
# allocate an (m, k) matrix of gigabytes.  A sparser state (above 2**20
# entries and eight per stored row or value) is refused by both encoders,
# so every state written can be read back.
_ROWS_PER_STORED = 8
_ROWS_FLOOR = 1 << 20


# --- the sketch base ----------------------------------------------------

class Sketch:
    """A mergeable summary: m hash streams under one salt, named parameters,
    state arrays and one associative combine rule.

    A subclass declares ``params``, its parameter names in ``from_state``
    order, ``layout``, the layout of its state arrays, ``deletes`` if it
    takes quantities <= 0, and ``version`` if its hash scheme is not the
    first, and writes ``_absorb`` and the classmethod ``estimates``.  Its
    constructor checks and sets the parameters, then calls this one, which
    sets the empty state.
    """

    params: tuple = ()
    deletes = False
    version = 1

    def __init__(self, m: int, seed: int = 0):
        self.m, self.salt = header(m, seed)
        # from_state leaves the checked arrays here in place of an empty state
        arrays = self.__dict__.pop("_checked_state", None)
        if arrays is None:
            arrays = self.layout.empty(self.m, **{p: getattr(self, p) for p in self.params})
        for name, a in zip(self.layout.names, arrays):
            setattr(self, name, a)

    @classmethod
    def from_state(cls, m, seed, *args, **params):
        """The sketch holding a copy of the given state arrays, then
        parameters by position or by name.  The arrays are checked before
        the sketch is built, so nothing is sized from an unchecked
        declaration."""
        n = len(cls.layout.names)
        named = dict(zip(cls.params, args[n:]))
        if not n <= len(args) <= n + len(cls.params) or named.keys() & params.keys():
            raise TypeError(f"{cls.__name__}.from_state takes m, seed, the arrays "
                            f"{cls.layout.names} and the parameters {cls.params}")
        params.update(named)
        return cls.from_arrays(m, seed, args[:n], params)

    @classmethod
    def from_arrays(cls, m, seed, arrays, params: dict, copy: bool = True):
        """``from_state`` with the arrays as a sequence and the parameters
        as a dict.  With copy=False the sketch may keep the given arrays,
        which the caller must not hold on to."""
        m, salt = header(m, seed)
        sk = cls.__new__(cls)
        sk._checked_state = cls.layout.checked(m, *arrays, copy=copy, **params)
        sk.__init__(m, seed=salt, **params)
        return sk

    def state_arrays(self) -> list:
        """The state arrays, in the order the layout names them."""
        return [getattr(self, n) for n in self.layout.names]

    def add_batch(self, items, d=None) -> None:
        """Ingest many items with quantities d, all ones by default.

        Raises StreamIntegrityError unless d matches the items in length
        and holds finite numbers, UnsupportedDeletionError on a quantity
        <= 0 unless the class ``deletes``, and IncompatibleSketchError if
        the state was hashed under an older scheme; each leaves the state
        as it was.
        """
        if self.version != type(self).version:
            raise IncompatibleSketchError(
                f"this {type(self).__name__} was hashed under scheme version "
                f"{self.version}; it can be estimated and merged with version "
                f"{self.version} sketches, but items are now hashed under version "
                f"{type(self).version}")
        keys, d = keys_and_quantities(items, d)
        if not self.deletes and (d <= 0).any():
            raise UnsupportedDeletionError(
                f"{type(self).__name__} cannot delete; got a quantity <= 0")
        if len(keys):
            self._absorb(keys, d)

    def _absorb(self, keys: np.ndarray, d: np.ndarray) -> None:
        """Fold a non-empty batch into the state: uint64 keys and their
        float64 quantities, finite and of the keys' length, each > 0
        unless the class ``deletes``."""
        raise NotImplementedError

    def add(self, item, d: int = 1) -> None:
        """Ingest one item with quantity d: a one-row ``add_batch``."""
        self.add_batch([item], [d])

    def merge(self, other):
        """The sketch of both inputs' streams, as a new object that shares
        no array with either.  Raises IncompatibleSketchError unless other
        has this type, m, salt, parameters and hash scheme version."""
        if type(other) is not type(self):
            raise IncompatibleSketchError(
                f"cannot merge {type(self).__name__} with {type(other).__name__}")
        if self.version != other.version:
            raise IncompatibleSketchError(
                f"hash scheme versions differ ({self.version} and {other.version}); "
                "a sketch merges only with sketches of its own version")
        if any(getattr(self, n) != getattr(other, n) for n in ("m", "salt", *self.params)):
            raise IncompatibleSketchError(
                "sketch configurations differ (m, salt or parameters)")
        out = copy.copy(self)
        joined = self.layout.joined(*self.state_arrays(), *other.state_arrays())
        for name, a in zip(self.layout.names, joined):
            setattr(out, name, a)
        return out

    def estimate(self, level: float = 0.95):
        """The estimate, its standard error and its interval at level, as an
        ``estimate.Estimate``: this state's row of the class's ``estimates``,
        or that row's error raised."""
        params = {p: getattr(self, p) for p in self.params}
        return self.estimates(*[a[None] for a in self.state_arrays()], level, **params).estimate()

    def state_bytes(self) -> int:
        return sum(a.nbytes for a in self.state_arrays())


def merge(*sketches):
    """Fold any number of same-configuration sketches into one."""
    if not sketches:
        raise ValueError("nothing to merge")
    out = sketches[0]
    for other in sketches[1:]:
        out = out.merge(other)
    return out


# --- checks and combine rules -------------------------------------------

def keys_and_quantities(items, d) -> tuple[np.ndarray, np.ndarray]:
    """uint64 keys of a stream's items and their quantities as float64,
    all ones when d is None; StreamIntegrityError unless d holds finite
    numbers, one per item."""
    keys = hashing.keys_array(items)
    if d is None:
        return keys, np.ones(len(keys))
    d = np.asarray(d)
    if d.dtype.kind not in "biuf":
        raise StreamIntegrityError(f"quantities must be numbers, got {d.dtype}")
    if d.shape != keys.shape:
        raise StreamIntegrityError(
            f"d must match items in length, got shape {d.shape} for {len(keys)} items")
    d = d.astype(np.float64, copy=False)
    if not np.isfinite(d).all():
        raise StreamIntegrityError("quantities must be finite numbers")
    return keys, d


def header(m, seed) -> tuple[int, int]:
    """(m, salt) as ints, checked to fit the binary header's u32 and u64."""
    m, salt = int(m), int(seed)
    if not 1 <= m <= U32_MAX:
        raise ValueError(f"m must lie in [1, 2**32), got {m}")
    if not 0 <= salt <= U64_MAX:
        raise ValueError(f"seed must lie in [0, 2**64), got {salt}")
    return m, salt


def _shaped(a: np.ndarray, shape: tuple, what: str, reps=None) -> np.ndarray:
    """a, if it has the shape (reps, *shape), or shape when reps is None."""
    if reps is not None:
        shape = (reps, *shape)
    if a.shape != shape:
        raise ValueError(f"{what} must have shape {shape}, got {a.shape}")
    return a


def merge_rows(a: np.ndarray, b: np.ndarray, descending: bool) -> np.ndarray:
    """The k = a.shape[1] largest distinct values of each row of the rows
    a (as ``Rows`` lays them out) joined to the candidate rows b (any
    order, repeats and padding allowed), or the k smallest.  Descending
    rows are sorted negated, and their padding is a fresh positive NaN."""
    pool = np.concatenate([a, b], axis=1)
    if descending:
        pool = np.where(np.isnan(pool), np.inf, -pool)
    pool.sort(axis=1)
    pool[:, 1:][pool[:, 1:] == pool[:, :-1]] = np.inf  # repeats become padding
    pool.sort(axis=1)
    best = pool[:, :a.shape[1]]
    return np.where(best == np.inf, np.nan, -best) if descending else best.copy()


def signed_add(s1, l1, s2, l2):
    """Element-wise sum of signed log-space numbers (sign, log|x|).

    (0, -inf) is the zero element, equal magnitudes of opposite sign give
    exactly (0, -inf), and x + x gives log(2) + log|x| bit for bit.
    Returns (int8 signs, log-magnitudes).
    """
    hi = np.maximum(l1, l2)
    with np.errstate(divide="ignore", invalid="ignore"):  # -inf - -inf; log(0) on cancelling
        d = np.minimum(l1, l2) - hi
        # log(e**hi - e**lo), on the branch that keeps its digits
        diff = hi + np.where(d > -_LOG2, np.log(-np.expm1(d)), np.log1p(-np.exp(d)))
    mag = np.where(np.multiply(s1, s2) < 0, diff, np.logaddexp(l1, l2))
    sign = np.where(l1 > l2, s1, s2)
    return np.where(mag == -np.inf, 0, sign).astype(np.int8), mag


def _floats(x, copy: bool) -> np.ndarray:
    """x as a float64 array: a copy, or x itself if it is one and copy is False."""
    return np.array(x, dtype=np.float64) if copy else np.asarray(x, dtype=np.float64)


# --- encodings ----------------------------------------------------------

def _f2s(x: float) -> str:
    return repr(float(x))


def _s2f(s) -> float:
    try:
        return float(s)
    except (TypeError, ValueError) as exc:
        raise SerializationError(f"bad float literal {s!r}") from exc


def json_int(v) -> int:
    """A JSON integer; rejects floats, strings and booleans."""
    if type(v) is not int:
        raise SerializationError(f"expected an integer, got {v!r}")
    return v


def _entries(state, m: int) -> list:
    if not isinstance(state, list) or len(state) != m:
        raise SerializationError(f"state must be a list of m={m} entries")
    return state


class Reader:
    """Bounds-checked cursor over a binary frame."""

    def __init__(self, data: bytes, pos: int = 0):
        self.data = data
        self.pos = pos

    def _skip(self, n: int) -> int:
        """Where the next n bytes start; moves past them."""
        if self.pos + n > len(self.data):
            raise SerializationError("truncated binary sketch")
        self.pos += n
        return self.pos - n

    def take(self, n: int) -> bytes:
        start = self._skip(n)
        return self.data[start:start + n]

    def array(self, dtype: str, count: int, copy: bool = True) -> np.ndarray:
        """The next count values, a copy or, with copy=False, a read-only
        view of the frame."""
        dt = np.dtype(dtype)
        a = np.frombuffer(self.data, dtype=dt, count=count, offset=self._skip(dt.itemsize * count))
        return a.copy() if copy else a


class Scalar:
    """A parameter: f8 in binary and a repr string in JSON, or u2 in binary
    and a JSON integer."""

    def __init__(self, fmt: str):
        self.fmt = struct.Struct(fmt)
        self.real = fmt == "<d"

    def to_json(self, v):
        return _f2s(v) if self.real else int(v)

    def from_json(self, v):
        if self.real:
            return _s2f(v)
        if not 0 <= json_int(v) <= U16_MAX:  # sizes the rows of a kth state
            raise SerializationError(f"{v} does not fit a u16 parameter")
        return v

    def pack(self, v) -> bytes:
        return self.fmt.pack(v)

    def unpack(self, r: Reader):
        return self.fmt.unpack(r.take(self.fmt.size))[0]


# --- layouts ------------------------------------------------------------

class Vector:
    """m values of one little-endian dtype, none above hi (a bound or a
    function of m): floats none NaN (-inf is allowed), integers none
    negative.  Combined by the slot-wise maximum.  JSON writes floats as
    repr strings, integers as integers."""

    def __init__(self, name: str, dtype: str, hi, what: str):
        self.names = (name,)
        self.dtype = np.dtype(dtype)
        self.real = self.dtype.kind == "f"
        self.hi = hi
        self.what = what

    def checked(self, m: int, x, reps=None, copy=True, **params) -> tuple:
        hi = self.hi(m) if callable(self.hi) else self.hi
        if self.real:
            a = _shaped(_floats(x, copy), (m,), self.what, reps)
            if np.isnan(a).any() or (a > hi).any():
                raise ValueError(f"{self.what} must be numbers <= {hi}")
            return (a,)
        a = _shaped(np.asarray(x), (m,), self.what, reps)
        if a.dtype.kind not in "biu":
            raise ValueError(f"{self.what} must be integers, got {a.dtype}")
        if a.size and (a.min() < 0 or a.max() > hi):
            raise ValueError(f"{self.what} must lie in [0, {hi}]")
        return (a.astype(self.dtype.type, copy=copy),)

    @staticmethod
    def joined(a, b) -> tuple:
        return (np.maximum(a, b),)

    def empty(self, m: int, **params) -> tuple:
        """The state of no items: -inf floats or zero integers."""
        return (np.full(m, -np.inf) if self.real else np.zeros(m, self.dtype.type),)

    def to_json(self, a) -> list:
        return [_f2s(v) for v in a.tolist()] if self.real else a.tolist()

    def from_json(self, state, m: int, params: dict) -> tuple:
        state = _entries(state, m)
        return (np.array([_s2f(v) for v in state] if self.real else state),)

    def pack(self, a) -> bytes:
        return a.astype(self.dtype).tobytes()

    def unpack(self, r: Reader, m: int, params: dict) -> tuple:
        return (r.array(self.dtype.str, m),)


class Bits(Vector):
    """m u1 values in [0, 1]; binary packs them eight to a byte, high bit
    first."""

    def pack(self, a) -> bytes:
        return np.packbits(a).tobytes()

    def unpack(self, r: Reader, m: int, params: dict) -> tuple:
        bits = np.unpackbits(r.array("<u1", (m + 7) // 8, copy=False))
        if bits[m:].any():
            raise SerializationError("nonzero padding bits after the last bit")
        return (bits[:m],)


class SignedLog:
    """m signed log-space accumulators: m signs in {-1, 0, +1} and m
    log-magnitudes, none NaN or +inf, with a sign of 0 exactly where the
    log-magnitude is -inf.  Combined by ``signed_add``.  JSON writes
    [[sign, "logmag"], ...]; binary the m signs as i1, then the m
    log-magnitudes as f8."""

    names = ("signs", "logmag")
    _logmag = Vector("logmag", "<f8", sys.float_info.max, "projection log-magnitudes")
    joined = staticmethod(signed_add)

    @staticmethod
    def empty(m: int, **params) -> tuple:
        return np.zeros(m, dtype=np.int8), np.full(m, -np.inf)

    def checked(self, m: int, signs, logmag, reps=None, copy=True, **params) -> tuple:
        s = _shaped(np.asarray(signs), (m,), "projection signs", reps)
        if s.dtype.kind not in "biu" or not np.isin(s, (-1, 0, 1)).all():
            raise ValueError("projection signs must lie in {-1, 0, +1}")
        (lm,) = self._logmag.checked(m, logmag, reps, copy)
        if ((s == 0) != np.isneginf(lm)).any():
            raise ValueError("a projection sign must be 0 exactly where its "
                             "log-magnitude is -inf")
        return s.astype(np.int8, copy=copy), lm

    def to_json(self, signs, logmag) -> list:
        return [[s, _f2s(lm)] for s, lm in zip(signs.tolist(), logmag.tolist())]

    def from_json(self, state, m: int, params: dict) -> tuple:
        pairs = _entries(state, m)
        return (np.array([s for s, _ in pairs]),
                np.array([_s2f(lm) for _, lm in pairs], dtype=np.float64))

    def pack(self, signs, logmag) -> bytes:
        return signs.astype("<i1").tobytes() + logmag.astype("<f8").tobytes()

    def unpack(self, r: Reader, m: int, params: dict) -> tuple:
        return r.array("<i1", m), r.array("<f8", m)


class Rows:
    """An (m, k) matrix of values in (0, 1], k a parameter's value (named by
    width) or a fixed count, each row sorted (ties allowed) and padded at
    the end: NaN after descending values, inf after ascending.  Combined by
    ``merge_rows``.  Only the values are stored: JSON as one list per row,
    binary as the m row lengths (u2) followed by every value (f8).

    Hashed values lie strictly inside (0, 1); the exact samplers can round
    a value to 1 and two neighbours to one double when c is large."""

    def __init__(self, name: str, pad: float, width, what: str):
        self.names = (name,)
        self.pad = pad
        self.descending = math.isnan(pad)
        self.width = width
        self.what = what

    def _k(self, params: dict) -> int:
        if not isinstance(self.width, str):
            return self.width
        if self.width not in params:  # as the constructor would refuse it
            raise TypeError(f"missing the parameter {self.width!r}")
        return params[self.width]

    def empty(self, m: int, **params) -> tuple:
        return (np.full((m, self._k(params)), self.pad),)

    def checked(self, m: int, x, reps=None, copy=True, **params) -> tuple:
        a = _shaped(_floats(x, copy), (m, self._k(params)), self.what, reps)
        pad = self._padding(a)
        # boolean temporaries only, so a large state is not copied again
        ok = a <= 1.0
        ok &= a > 0.0
        ok |= pad
        if not ok.all():
            raise ValueError(f"{self.what} values must lie in (0, 1]")
        del ok
        if (pad[..., :-1] & ~pad[..., 1:]).any():
            raise ValueError(f"{self.what} padding must come after every value")
        lo, hi = (a[..., 1:], a[..., :-1]) if self.descending else (a[..., :-1], a[..., 1:])
        if (lo > hi).any():  # NaN and inf padding compare False
            order = "descending" if self.descending else "ascending"
            raise ValueError(f"{self.what} must be sorted {order}")
        return (a,)

    def joined(self, a, b) -> tuple:
        return (merge_rows(a, b, self.descending),)

    def absorbed(self, a, rows, values) -> None:
        """Join candidate values, each in its row of a (any order, repeats
        allowed), into a in place: only the rows they name are merged, and
        only in the columns that their values and candidates can fill."""
        # row numbers in the narrowest integer type, which numpy's stable
        # argsort radix-sorts when it has 16 bits or fewer
        order = np.argsort(rows.astype(np.min_scalar_type(len(a) - 1)), kind="stable")
        rows = rows[order]
        rank = np.arange(len(rows)) - np.searchsorted(rows, rows)
        touched = rows[rank == 0]
        cand = np.full((len(touched), int(rank.max(initial=0)) + 1), self.pad)
        cand[np.cumsum(rank == 0) - 1, rank] = values[order]
        held = a[touched]
        width = held.shape[1]
        # padding comes last in a row, so while every touched row has room
        # the join needs only the columns some row fills, and as many more
        # as the candidates
        if cand.shape[1] < width and self._padding(held[:, -1]).all():
            filled = width - np.count_nonzero(self._padding(held).all(axis=0))
            width = min(width, filled + cand.shape[1])
        a[touched, :width] = merge_rows(held[:, :width], cand, self.descending)

    def _padding(self, x: np.ndarray) -> np.ndarray:
        """The mask of the padding entries of x."""
        return np.isnan(x) if self.descending else np.isposinf(x)

    @staticmethod
    def _dense_enough(m: int, k: int, stored: int) -> None:
        """Refuse an (m, k) matrix that is mostly padding for its stored
        values: such a state is neither encoded nor decoded."""
        if m * k > max(_ROWS_FLOOR, _ROWS_PER_STORED * (m + stored)):
            raise SerializationError(
                f"an (m={m}, k={k}) matrix is mostly padding for {stored} stored values; "
                f"the codecs take at most max({_ROWS_FLOOR}, {_ROWS_PER_STORED} * (m + "
                "stored values)) entries")

    def _matrix(self, counts: np.ndarray, values, m: int, params: dict) -> np.ndarray:
        k = self._k(params)
        if (counts > k).any():
            raise SerializationError(f"a row holds more than k={k} values")
        self._dense_enough(m, k, len(values))
        values = np.asarray(values, dtype=np.float64)
        if not np.isfinite(values).all():  # padding is never stored
            raise SerializationError("stored row values must be finite")
        out = np.full((m, k), self.pad)
        out[np.arange(k)[None, :] < counts[:, None]] = values
        return out

    def to_json(self, a) -> list:
        self._dense_enough(*a.shape, int(np.count_nonzero(np.isfinite(a))))
        return [[_f2s(v) for v in row[np.isfinite(row)].tolist()] for row in a]

    def from_json(self, state, m: int, params: dict) -> tuple:
        state = _entries(state, m)
        if not all(isinstance(row, list) for row in state):
            raise SerializationError("every row must be a list")
        counts = np.array([len(row) for row in state])
        values = [_s2f(v) for row in state for v in row]
        return (self._matrix(counts, values, m, params),)

    def pack(self, a) -> bytes:
        filled = np.isfinite(a)
        self._dense_enough(*a.shape, int(np.count_nonzero(filled)))
        return filled.sum(axis=1).astype("<u2").tobytes() + a[filled].astype("<f8").tobytes()

    def unpack(self, r: Reader, m: int, params: dict) -> tuple:
        counts = r.array("<u2", m)
        # a view of the frame: _matrix copies the values into the matrix
        values = r.array("<f8", int(counts.sum()), copy=False)
        return (self._matrix(counts, values, m, params),)


REAL = Scalar("<d")
U16 = Scalar("<H")
