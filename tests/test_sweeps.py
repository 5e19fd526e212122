"""Two sweeps over the paths outside data can reach.

- Every sketch type at the edges of its constructor's parameters: each
  point is refused by the constructor with ValueError, or is built, fed
  1, 5 and 300 keys, and after each feed re-encodes byte for byte through
  both codecs, merges with itself, and estimates to a finite value or a
  SketchError.  Known defect 8 is the one exception taken: a kth state
  at k = 65535 that is mostly padding is refused by both encoders with
  SerializationError.
- In-process ``cardsketch merge``, ``estimate`` and ``estimate --median``
  on a seeded subset of the codec-fixture mutants (tests/cli_mutants.py):
  each call exits 0, 3 or 4, and lets no exception escape.
"""

import math
import sys

import numpy as np
import pytest

import cli_mutants
from cardsketch import serialize, state
from cardsketch.errors import SerializationError
from cardsketch.order_sketch import _Q_MAX
from cardsketch.projection import _ALPHA_MIN
from cardsketch.sketch_types import TYPES

_Q_MIN = math.exp(-0.5 * math.log(sys.float_info.max))  # about 7.46e-155


def _around(x, *more):
    """x, the doubles on either side of it, and more."""
    return (math.nextafter(x, 0.0), x, math.nextafter(x, 2.0), *more)


# each type's parameter values; every type runs at each m of M_GRID
PARAMS = {
    "max-geom": [{"q": q} for q in _around(_Q_MIN) + _around(_Q_MAX, 0.5, 1.0)],
    "bernoulli": [{"p": p} for p in (0.0, 5e-324, 1e-300, 1e-9) + _around(1.0)],
    "projection": [{"alpha": a} for a in _around(_ALPHA_MIN) + _around(1.0, 1e-3)],
    "kth": [{"k": k} for k in (0, 1, 2, 65535, 65536)],
}
M_GRID = (1, 2, 3, 16, 17, 64)
FEEDS = (1, 5, 300)
# k = 65535 runs at m up to 17, where a state holds under 9 MB
BIG_K_M = 17

POINTS = [(name, m, params) for name in sorted(TYPES) for m in M_GRID
          for params in PARAMS.get(name, [{}])
          if not (params.get("k") == 65535 and m > BIG_K_M)]


def _sparse_kth(sk) -> bool:
    """Known defect 8: a kth matrix of more than 2**20 entries, mostly padding."""
    return type(sk).__name__ == "KthOrderSketch" and sk.m * sk.k > state._ROWS_FLOOR


def _round_trips(sk) -> None:
    for encode, decode in ((serialize.dumps, serialize.loads),
                           (serialize.pack, serialize.unpack)):
        try:
            doc = encode(sk)
        except SerializationError as exc:
            assert _sparse_kth(sk) and "mostly padding" in str(exc), exc
            continue
        assert encode(decode(doc)) == doc


def _reads_cleanly(sk) -> None:
    fault = cli_mutants.read_fault(sk)
    assert fault is None, fault
    if type(sk).__name__ != "ProjectionSketch":  # the others are idempotent
        for mine, theirs in zip(sk.state_arrays(), sk.merge(sk).state_arrays()):
            assert mine.tobytes() == theirs.tobytes()


@pytest.mark.filterwarnings("ignore:alpha=:UserWarning")  # a large-alpha projection estimate
def test_every_parameter_edge_is_refused_or_round_trips():
    keys = np.arange(1, FEEDS[-1] + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    built = refused = sparse = 0
    for name, m, params in POINTS:
        try:
            sk = TYPES[name].build(m, 7, params)
        except ValueError:
            refused += 1
            continue
        built += 1
        fed = 0
        for n in FEEDS:
            sk.add_batch(keys[fed:n])
            fed = n
            _round_trips(sk)
            _reads_cleanly(sk)
        sparse += _sparse_kth(sk)
    # both sides of every bound are reached
    assert built > 100 and refused > 50 and sparse == 1, (built, refused, sparse)


@pytest.mark.filterwarnings("ignore:alpha=:UserWarning")
def test_cli_calls_on_mutants_exit_0_3_or_4():
    calls, found = cli_mutants.sweep(cli_mutants.TIER1_CASES, 0)
    assert calls == 3 * cli_mutants.TIER1_CASES
    assert not found, f"{len(found)} faults, the first: {found[0]}"
