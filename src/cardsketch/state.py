"""Sketch state: the base every sketch class derives from, the checks every
``from_state`` runs on its arrays, the merge of sorted rows, and the
layouts (and encodings) the arrays are stored in.

The checks are the gate between outside data and a sketch: both decoders
build every sketch through ``from_state``.  The decoders check sizes
first, so no array sized by a declared m or k exists before the payload
has shown it holds that many entries.
"""

from __future__ import annotations

import copy
import struct
import sys

import numpy as np

from .errors import IncompatibleSketchError, SerializationError

U16_MAX = 0xFFFF
U32_MAX = 0xFFFFFFFF
U64_MAX = 0xFFFFFFFFFFFFFFFF


# --- the sketch base ----------------------------------------------------

class Sketch:
    """A mergeable summary: m hash streams under one salt, named parameters,
    state arrays and one associative combine rule.

    A subclass declares ``params`` and ``arrays``, its parameter and state
    attribute names in ``from_state`` order, and writes ``add_batch`` and
    two hooks:

    - ``_checked(m, *arrays, **params)``, static: the arrays, checked
      against m and the parameters, as a tuple;
    - ``_joined(other)``: the merged arrays, as a tuple of new arrays that
      writes into neither input.  The default, the slot-wise maximum, is
      the combine rule of every maximal-term state.
    """

    params: tuple = ()
    arrays: tuple = ()

    def __init__(self, m: int, seed: int = 0):
        self.m, self.salt = header(m, seed)

    @classmethod
    def from_state(cls, m, seed, *args, **params):
        """The sketch holding the given state arrays, then parameters by
        position or by name.  The arrays are checked before the sketch is
        built, so nothing is sized from an unchecked declaration."""
        n = len(cls.arrays)
        named = dict(zip(cls.params, args[n:]))
        if not n <= len(args) <= n + len(cls.params) or named.keys() & params.keys():
            raise TypeError(f"{cls.__name__}.from_state takes m, seed, the arrays "
                            f"{cls.arrays} and the parameters {cls.params}")
        params.update(named)
        m, salt = header(m, seed)
        arrays = cls._checked(m, *args[:n], **params)
        sk = cls(m, seed=salt, **params)
        for name, a in zip(cls.arrays, arrays):
            setattr(sk, name, a)
        return sk

    def add(self, item, d: int = 1) -> None:
        """Ingest one item with quantity d: a one-row ``add_batch``."""
        self.add_batch([item], [d])

    def merge(self, other):
        """The sketch of both inputs' streams, as a new object.  Raises
        IncompatibleSketchError unless other has this type, m, salt and
        parameters."""
        if type(other) is not type(self):
            raise IncompatibleSketchError(
                f"cannot merge {type(self).__name__} with {type(other).__name__}")
        if any(getattr(self, n) != getattr(other, n) for n in ("m", "salt", *self.params)):
            raise IncompatibleSketchError(
                "sketch configurations differ (m, salt or parameters)")
        out = copy.copy(self)
        for name, a in zip(self.arrays, self._joined(other)):
            setattr(out, name, a)
        return out

    def _joined(self, other) -> tuple:
        return tuple(np.maximum(getattr(self, n), getattr(other, n)) for n in self.arrays)

    def state_bytes(self) -> int:
        return sum(getattr(self, n).nbytes for n in self.arrays)


# --- checks -------------------------------------------------------------

def header(m, seed) -> tuple[int, int]:
    """(m, salt) as ints, checked to fit the binary header's u32 and u64."""
    m, salt = int(m), int(seed)
    if not 1 <= m <= U32_MAX:
        raise ValueError(f"m must lie in [1, 2**32), got {m}")
    if not 0 <= salt <= U64_MAX:
        raise ValueError(f"seed must lie in [0, 2**64), got {salt}")
    return m, salt


def _shaped(a: np.ndarray, shape: tuple, what: str) -> np.ndarray:
    if a.shape != shape:
        raise ValueError(f"{what} must have shape {shape}, got {a.shape}")
    return a


def floats(x, m: int, hi: float, what: str) -> np.ndarray:
    """m float64 values, none NaN and none above hi; -inf is allowed."""
    a = _shaped(np.array(x, dtype=np.float64), (m,), what)
    if np.isnan(a).any() or (a > hi).any():
        raise ValueError(f"{what} must be numbers <= {hi}")
    return a


def uints(x, m: int, hi: int, dtype, what: str) -> np.ndarray:
    """m integers in [0, hi], returned as dtype."""
    a = _shaped(np.asarray(x), (m,), what)
    if a.dtype.kind not in "biu":
        raise ValueError(f"{what} must be integers, got {a.dtype}")
    if a.min() < 0 or a.max() > hi:
        raise ValueError(f"{what} must lie in [0, {hi}]")
    return a.astype(dtype)


def rows(x, m: int, k: int, descending: bool, what: str) -> np.ndarray:
    """(m, k) rows of values in (0, 1], each sorted (ties allowed) and
    padded at the end: NaN after descending values, inf after ascending.

    Hashed values lie strictly inside (0, 1); the exact samplers can round
    a value to 1 and two neighbours to one double when c is large."""
    a = _shaped(np.array(x, dtype=np.float64), (m, k), what)
    pad = np.isnan(a) if descending else np.isposinf(a)
    values = a[~pad]
    if not ((values > 0.0) & (values <= 1.0)).all():
        raise ValueError(f"{what} values must lie in (0, 1]")
    if (pad[:, :-1] & ~pad[:, 1:]).any():
        raise ValueError(f"{what} padding must come after every value")
    lo, hi = (a[:, 1:], a[:, :-1]) if descending else (a[:, :-1], a[:, 1:])
    if (lo > hi).any():  # NaN and inf padding compare False
        order = "descending" if descending else "ascending"
        raise ValueError(f"{what} must be sorted {order}")
    return a


def merge_rows(a: np.ndarray, b: np.ndarray, descending: bool) -> np.ndarray:
    """The k = a.shape[1] largest distinct values of each row of the rows
    a (as ``rows`` lays them out) joined to the candidate rows b (any
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


def signed_log(signs, logmag, m: int) -> tuple[np.ndarray, np.ndarray]:
    """m signs in {-1, 0, +1} and m log-magnitudes, none NaN or +inf, with
    a sign of 0 exactly where the log-magnitude is -inf."""
    s = _shaped(np.asarray(signs), (m,), "projection signs")
    if s.dtype.kind not in "biu" or not np.isin(s, (-1, 0, 1)).all():
        raise ValueError("projection signs must lie in {-1, 0, +1}")
    lm = floats(logmag, m, sys.float_info.max, "projection log-magnitudes")
    if ((s == 0) != np.isneginf(lm)).any():
        raise ValueError("a projection sign must be 0 exactly where its "
                         "log-magnitude is -inf")
    return s.astype(np.int8), lm


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

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise SerializationError("truncated binary sketch")
        self.pos += n
        return self.data[self.pos - n:self.pos]

    def array(self, dtype: str, count: int) -> np.ndarray:
        dt = np.dtype(dtype)
        return np.frombuffer(self.take(dt.itemsize * count), dtype=dt).copy()


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


class Vector:
    """m values of one little-endian dtype (the f64, u32 and u8 layouts);
    JSON writes floats as repr strings, integers as integers."""

    def __init__(self, dtype: str):
        self.dtype = np.dtype(dtype)
        self.real = self.dtype.kind == "f"

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
    """m 0/1 values; binary packs them eight to a byte, high bit first."""

    def pack(self, a) -> bytes:
        return np.packbits(a).tobytes()

    def unpack(self, r: Reader, m: int, params: dict) -> tuple:
        bits = np.unpackbits(r.array("<u1", (m + 7) // 8))
        if bits[m:].any():
            raise SerializationError("nonzero padding bits after the last bit")
        return (bits[:m],)


class SignedLog:
    """m (sign, log-magnitude) pairs: [[sign, "logmag"], ...] in JSON; in
    binary the m signs as i1, then the m log-magnitudes as f8."""

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
    """An (m, k) matrix of ragged rows padded at the end with pad, where k
    is a parameter's value (named by width) or a fixed count.  Only the
    values are stored: JSON as one list per row, binary as the m row
    lengths (u2) followed by every value (f8), row by row."""

    def __init__(self, pad: float, width):
        self.pad = pad
        self.width = width

    def _matrix(self, counts: np.ndarray, values, m: int, params: dict) -> np.ndarray:
        k = params[self.width] if isinstance(self.width, str) else self.width
        if (counts > k).any():
            raise SerializationError(f"a row holds more than k={k} values")
        values = np.asarray(values, dtype=np.float64)
        if not np.isfinite(values).all():  # padding is never stored
            raise SerializationError("stored row values must be finite")
        out = np.full((m, k), self.pad)
        out[np.arange(k)[None, :] < counts[:, None]] = values
        return out

    def to_json(self, a) -> list:
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
        return filled.sum(axis=1).astype("<u2").tobytes() + a[filled].astype("<f8").tobytes()

    def unpack(self, r: Reader, m: int, params: dict) -> tuple:
        counts = r.array("<u2", m)
        values = r.array("<f8", int(counts.sum()))
        return (self._matrix(counts, values, m, params),)


REAL = Scalar("<d")
U16 = Scalar("<H")
F64 = Vector("<f8")
U32 = Vector("<u4")
U8 = Vector("<u1")
BITS = Bits("<u1")
SIGNED_LOG = SignedLog()
