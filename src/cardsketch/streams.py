"""Synthetic stream generation and the exact counting oracle."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import hashing
from .errors import StreamIntegrityError

_STREAM_TAG = 0x517CC1B727220A95


@dataclass
class Stream:
    """A materialized stream: parallel arrays of item keys and quantities."""

    keys: np.ndarray              # uint64 item identities
    d: np.ndarray                 # int64 signed quantities
    target_c: int = 0             # live-set size the generator aimed for
    ids: list = field(default=None, repr=False)  # optional text ids (CLI)

    def __len__(self) -> int:
        return len(self.keys)

    def elements(self):
        for key, dv in zip(self.keys.tolist(), self.d.tolist()):
            yield key, dv


def distinct_keys(c: int, seed: int, offset: int = 0) -> np.ndarray:
    """c distinct 64-bit item keys, a deterministic function of seed.

    The avalanche is bijective, so distinct counter values can never
    collide.
    """
    base = hashing.mix64(seed ^ _STREAM_TAG)
    counters = np.arange(offset + 1, offset + c + 1, dtype=np.uint64)
    with np.errstate(over="ignore"):
        return hashing.mix64_array(np.uint64(base) + counters * np.uint64(hashing._GAMMA))


def generate_stream(
    c: int,
    seed: int = 0,
    repeats: int = 1,
    heavy_tail: bool = False,
    d_model: str = "unit",
    deleted_extra: int = 0,
) -> Stream:
    """Emit exactly c distinct live items in a seed-determined shuffled order.

    repeats: every distinct item appears this many times (R >= 1);
    heavy_tail draws per-item repetition counts from a Pareto-like law
    instead.  d_model "unit" sets all quantities to 1, "random" draws them
    uniformly from 1..10; deleted_extra adds that many additional items,
    each inserted once and deleted once, leaving the live set unchanged
    (projection sketches only; the insert-only sketches reject the
    deletions).
    """
    if c < 1:
        raise ValueError("c must be >= 1")
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    if d_model not in ("unit", "random"):
        raise ValueError(f"unknown d model {d_model!r}")
    rng = np.random.default_rng((int(seed) & 0xFFFFFFFFFFFFFFFF, 0x5EED))
    base = distinct_keys(c, seed)
    if heavy_tail:
        reps = 1 + np.floor(rng.pareto(1.5, size=c)).astype(np.int64)
        reps = np.minimum(reps, 50)
    else:
        reps = np.full(c, repeats, dtype=np.int64)
    keys = np.repeat(base, reps)
    if d_model == "unit":
        d = np.ones(len(keys), dtype=np.int64)
    else:
        d = rng.integers(1, 11, size=len(keys), dtype=np.int64)
    if deleted_extra:
        extra = distinct_keys(deleted_extra, seed, offset=c)
        keys = np.concatenate([keys, extra, extra])
        d = np.concatenate([d, np.ones(deleted_extra, dtype=np.int64),
                            -np.ones(deleted_extra, dtype=np.int64)])
    order = rng.permutation(len(keys))
    return Stream(keys=keys[order], d=d[order], target_c=c)


def exact_count(stream: Stream) -> int:
    """Ground truth: the number of items with positive cumulative quantity.

    Deletions are honored; an item left with negative total quantity means
    the stream was not a valid insert/delete history and raises.
    """
    if len(stream) == 0:
        return 0
    _, inverse = np.unique(stream.keys, return_inverse=True)
    totals = np.bincount(inverse, weights=stream.d.astype(np.float64))
    if np.any(totals < 0):
        raise StreamIntegrityError("an item ended with negative cumulative quantity")
    return int((totals > 0).sum())
