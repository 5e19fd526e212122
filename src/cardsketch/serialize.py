"""Sketch serialization: a versioned JSON envelope and a compact binary
frame for the CLI merge pipeline.

The sketch-type table (sketch_types.TYPES) and the state layout each
class declares (state module) are the single description of both
formats.  A sketch is a (header, params, arrays) triple:

- header: type, m and salt.  JSON: {"format", "version", "type", "m",
  "salt", "params", "state"}.  Binary: magic "CSKB", u8 version, u8 type
  tag, u32 m, u64 salt, all little-endian.
- params, in table order: floats (q, p, alpha) as repr strings in JSON and
  f8 in binary; k as a JSON integer and u2 in binary.
- arrays, in the layout the type's class declares, which also checks
  them.  JSON carries them as "state", binary right after the params.

JSON stores reals as their shortest round-trip repr, so decoding
reproduces the state bit for bit, including the -inf empty sentinels.
Decoding goes through the class's from_state, which checks the state;
every malformed document or frame, invalid state, or byte after the
payload raises SerializationError.
"""

from __future__ import annotations

import contextlib
import json
import struct

import numpy as np

from . import state
from .errors import SerializationError
from .sketch_types import BY_TAG, TYPES, type_of

FORMAT = "cardsketch"
VERSION = 1
MAGIC = b"CSKB"


@contextlib.contextmanager
def _decoding(t):
    """Re-raise any failure to decode or check a state as SerializationError."""
    try:
        yield
    except SerializationError:
        raise
    except (KeyError, IndexError, TypeError, ValueError, OverflowError,
            MemoryError) as exc:
        raise SerializationError(f"invalid {t.name} state: {exc}") from exc


def to_json_obj(sk) -> dict:
    t = type_of(sk)
    return {"format": FORMAT, "version": VERSION, "type": t.name,
            "m": sk.m, "salt": sk.salt,
            "params": {n: codec.to_json(getattr(sk, n)) for n, codec in t.params},
            "state": t.cls.layout.to_json(*sk.state_arrays())}


def from_json_obj(obj: dict):
    if not isinstance(obj, dict) or obj.get("format") != FORMAT:
        raise SerializationError("not a cardsketch document")
    if obj.get("version") != VERSION:
        raise SerializationError(f"unsupported version {obj.get('version')!r}")
    name = obj.get("type")
    t = TYPES.get(name) if isinstance(name, str) else None
    if t is None:
        raise SerializationError(f"unknown sketch type {name!r}")
    with _decoding(t):
        m, salt = state.json_int(obj["m"]), state.json_int(obj["salt"])
        raw = obj.get("params", {})
        params = {n: codec.from_json(raw[n]) for n, codec in t.params}
        arrays = t.cls.layout.from_json(obj["state"], m, params)
        return t.from_state(m, salt, arrays, params)


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
    t = type_of(sk)
    out = [_HEADER.pack(MAGIC, VERSION, t.tag, sk.m, sk.salt)]
    out += [codec.pack(getattr(sk, n)) for n, codec in t.params]
    out.append(t.cls.layout.pack(*sk.state_arrays()))
    return b"".join(out)


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
    t = BY_TAG.get(tag)
    if t is None:
        raise SerializationError(f"unknown type tag {tag}")
    r = state.Reader(data, _HEADER.size)
    with _decoding(t):
        params = {n: codec.unpack(r) for n, codec in t.params}
        arrays = t.cls.layout.unpack(r, m, params)
        if r.pos != len(data):
            raise SerializationError(
                f"{len(data) - r.pos} trailing bytes after the {t.name} payload")
        return t.from_state(m, salt, arrays, params)


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
