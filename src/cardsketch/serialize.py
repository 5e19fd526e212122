"""Sketch serialization: a versioned JSON envelope and a compact binary
frame for the CLI merge pipeline.

JSON stores log-space reals as decimal strings (shortest round-trip repr),
so deserialize(serialize(s)) reproduces the state bit for bit, including
the -inf empty sentinels.  The binary frame is magic + version + type tag
followed by a little-endian payload.
"""

from __future__ import annotations

import json
import struct

import numpy as np

from .baselines import MINCOUNT_K, HyperLogLogSketch, LogLogSketch, MinCountSketch
from .errors import SerializationError
from .order_sketch import (
    BernoulliSketch,
    ContinuousMaxSketch,
    GeometricMaxSketch,
    KthOrderSketch,
)
from .projection import ProjectionSketch

FORMAT = "cardsketch"
VERSION = 1
MAGIC = b"CSKB"

TYPE_TAGS = {
    "max-uniform": 1,
    "max-exp": 2,
    "max-geom": 3,
    "kth": 4,
    "bernoulli": 5,
    "projection": 6,
    "loglog": 7,
    "hll": 8,
    "mincount": 9,
}
_TAG_TYPES = {v: k for k, v in TYPE_TAGS.items()}


def sketch_type(sk) -> str:
    if isinstance(sk, ContinuousMaxSketch):
        return "max-uniform" if sk.kind == "uniform" else "max-exp"
    if isinstance(sk, GeometricMaxSketch):
        return "max-geom"
    if isinstance(sk, KthOrderSketch):
        return "kth"
    if isinstance(sk, BernoulliSketch):
        return "bernoulli"
    if isinstance(sk, ProjectionSketch):
        return "projection"
    if isinstance(sk, LogLogSketch):
        return "loglog"
    if isinstance(sk, HyperLogLogSketch):
        return "hll"
    if isinstance(sk, MinCountSketch):
        return "mincount"
    raise SerializationError(f"unknown sketch class {type(sk).__name__}")


def _f2s(x: float) -> str:
    return repr(float(x))


def _s2f(s) -> float:
    try:
        return float(s)
    except (TypeError, ValueError) as exc:
        raise SerializationError(f"bad float literal {s!r}") from exc


def to_json_obj(sk) -> dict:
    t = sketch_type(sk)
    obj = {"format": FORMAT, "version": VERSION, "type": t,
           "m": sk.m, "salt": sk.salt, "params": {}, "state": None}
    if t in ("max-uniform", "max-exp"):
        obj["state"] = [_f2s(v) for v in sk.slots]
    elif t == "max-geom":
        obj["params"]["q"] = _f2s(sk.q)
        obj["state"] = [int(v) for v in sk.slots]
    elif t == "kth":
        obj["params"]["k"] = sk.k
        obj["state"] = [
            [_f2s(v) for v in row[~np.isnan(row)]] for row in sk.topk
        ]
    elif t == "bernoulli":
        obj["params"]["p"] = _f2s(sk.p)
        obj["state"] = [int(b) for b in sk.bits]
    elif t == "projection":
        obj["params"]["alpha"] = _f2s(sk.alpha)
        obj["state"] = [[int(s), _f2s(l)] for s, l in zip(sk.signs, sk.logmag)]
    elif t in ("loglog", "hll"):
        obj["state"] = [int(r) for r in sk.registers]
    elif t == "mincount":
        obj["state"] = [
            [_f2s(v) for v in row[np.isfinite(row)]] for row in sk.smallest
        ]
    return obj


def from_json_obj(obj: dict):
    if not isinstance(obj, dict) or obj.get("format") != FORMAT:
        raise SerializationError("not a cardsketch document")
    if obj.get("version") != VERSION:
        raise SerializationError(f"unsupported version {obj.get('version')!r}")
    t = obj.get("type")
    if t not in TYPE_TAGS:
        raise SerializationError(f"unknown sketch type {t!r}")
    try:
        m = int(obj["m"])
        salt = int(obj["salt"])
        params = obj.get("params", {})
        state = obj["state"]
        if t in ("max-uniform", "max-exp"):
            slots = np.array([_s2f(v) for v in state])
            kind = "uniform" if t == "max-uniform" else "exponential"
            return ContinuousMaxSketch.from_state(m, salt, slots, kind)
        if t == "max-geom":
            return GeometricMaxSketch.from_state(
                m, salt, np.array(state, dtype=np.uint32), _s2f(params["q"]))
        if t == "kth":
            k = int(params["k"])
            topk = np.full((m, k), np.nan)
            for j, row in enumerate(state):
                vals = [_s2f(v) for v in row]
                topk[j, :len(vals)] = vals
            return KthOrderSketch.from_state(m, salt, topk, k)
        if t == "bernoulli":
            return BernoulliSketch.from_state(
                m, salt, np.array(state, dtype=np.uint8), _s2f(params["p"]))
        if t == "projection":
            signs = np.array([int(s) for s, _ in state], dtype=np.int8)
            logmag = np.array([_s2f(l) for _, l in state])
            return ProjectionSketch.from_state(m, salt, signs, logmag,
                                               _s2f(params["alpha"]))
        if t in ("loglog", "hll"):
            cls = LogLogSketch if t == "loglog" else HyperLogLogSketch
            return cls.from_state(m, salt, np.array(state, dtype=np.uint8))
        smallest = np.full((m, MINCOUNT_K), np.inf)
        for b, row in enumerate(state):
            vals = [_s2f(v) for v in row]
            smallest[b, :len(vals)] = vals
        return MinCountSketch.from_state(m, salt, smallest)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise SerializationError(f"malformed {t} state: {exc}") from exc


def dumps(sk) -> str:
    return json.dumps(to_json_obj(sk), separators=(",", ":"))


def loads(text: str):
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SerializationError(f"invalid JSON: {exc}") from exc
    return from_json_obj(obj)


# --- binary frame --------------------------------------------------------

_HEADER = struct.Struct("<4sBBIQ")  # magic, version, tag, m, salt


def pack(sk) -> bytes:
    t = sketch_type(sk)
    out = [_HEADER.pack(MAGIC, VERSION, TYPE_TAGS[t], sk.m, sk.salt)]
    if t in ("max-uniform", "max-exp"):
        out.append(sk.slots.astype("<f8").tobytes())
    elif t == "max-geom":
        out.append(struct.pack("<d", sk.q))
        out.append(sk.slots.astype("<u4").tobytes())
    elif t == "kth":
        out.append(struct.pack("<H", sk.k))
        counts = (~np.isnan(sk.topk)).sum(axis=1).astype("<u2")
        out.append(counts.tobytes())
        for j in range(sk.m):
            row = sk.topk[j]
            out.append(row[~np.isnan(row)].astype("<f8").tobytes())
    elif t == "bernoulli":
        out.append(struct.pack("<d", sk.p))
        out.append(np.packbits(sk.bits).tobytes())
    elif t == "projection":
        out.append(struct.pack("<d", sk.alpha))
        out.append(sk.signs.astype("<i1").tobytes())
        out.append(sk.logmag.astype("<f8").tobytes())
    elif t in ("loglog", "hll"):
        out.append(sk.registers.astype("<u1").tobytes())
    else:  # mincount
        counts = np.isfinite(sk.smallest).sum(axis=1).astype("<u2")
        out.append(counts.tobytes())
        for b in range(sk.m):
            row = sk.smallest[b]
            out.append(row[np.isfinite(row)].astype("<f8").tobytes())
    return b"".join(out)


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise SerializationError("truncated binary sketch")
        chunk = self.data[self.pos:self.pos + n]
        self.pos += n
        return chunk

    def array(self, dtype: str, count: int) -> np.ndarray:
        dt = np.dtype(dtype)
        return np.frombuffer(self.take(dt.itemsize * count), dtype=dt).copy()


def unpack(data: bytes):
    """Decode a binary frame; any malformed frame or invalid state, and any
    byte after the payload, raises SerializationError."""
    if len(data) < _HEADER.size:
        raise SerializationError("truncated binary sketch")
    magic, version, tag, m, salt = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise SerializationError("bad magic; not a binary cardsketch frame")
    if version != VERSION:
        raise SerializationError(f"unsupported binary version {version}")
    t = _TAG_TYPES.get(tag)
    if t is None:
        raise SerializationError(f"unknown type tag {tag}")
    r = _Reader(data)
    r.pos = _HEADER.size
    try:
        sk = _unpack_state(r, t, m, salt)
    except SerializationError:
        raise
    except ValueError as exc:
        raise SerializationError(f"invalid {t} state: {exc}") from exc
    if r.pos != len(data):
        raise SerializationError(
            f"{len(data) - r.pos} trailing bytes after the {t} payload")
    return sk


def _unpack_state(r: _Reader, t: str, m: int, salt: int):
    if t in ("max-uniform", "max-exp"):
        slots = r.array("<f8", m)
        kind = "uniform" if t == "max-uniform" else "exponential"
        return ContinuousMaxSketch.from_state(m, salt, slots, kind)
    if t == "max-geom":
        (q,) = struct.unpack("<d", r.take(8))
        return GeometricMaxSketch.from_state(m, salt, r.array("<u4", m), q)
    if t == "kth":
        (k,) = struct.unpack("<H", r.take(2))
        counts = r.array("<u2", m)
        topk = np.full((m, k), np.nan)
        for j in range(m):
            n = int(counts[j])
            if n > k:
                raise SerializationError("top-k row longer than k")
            topk[j, :n] = r.array("<f8", n)
        return KthOrderSketch.from_state(m, salt, topk, k)
    if t == "bernoulli":
        (p,) = struct.unpack("<d", r.take(8))
        packed = r.array("<u1", (m + 7) // 8)
        bits = np.unpackbits(packed)[:m]
        return BernoulliSketch.from_state(m, salt, bits, p)
    if t == "projection":
        (alpha,) = struct.unpack("<d", r.take(8))
        signs = r.array("<i1", m)
        logmag = r.array("<f8", m)
        return ProjectionSketch.from_state(m, salt, signs, logmag, alpha)
    if t in ("loglog", "hll"):
        cls = LogLogSketch if t == "loglog" else HyperLogLogSketch
        return cls.from_state(m, salt, r.array("<u1", m))
    counts = r.array("<u2", m)
    smallest = np.full((m, MINCOUNT_K), np.inf)
    for b in range(m):
        n = int(counts[b])
        if n > MINCOUNT_K:
            raise SerializationError("mincount row longer than k")
        smallest[b, :n] = r.array("<f8", n)
    return MinCountSketch.from_state(m, salt, smallest)


def load_any(data: bytes):
    """Sniff JSON vs binary and deserialize either."""
    if data[:4] == MAGIC:
        return unpack(data)
    return loads(data.decode("utf-8"))


def _json_default(o):
    if isinstance(o, (np.integer,)):
        return int(o)
    if isinstance(o, (np.floating,)):
        return float(o)
    raise TypeError(f"not JSON serializable: {type(o).__name__}")


def json_dumps(obj, **kw) -> str:
    """json.dumps that tolerates numpy scalars."""
    return json.dumps(obj, default=_json_default, **kw)
