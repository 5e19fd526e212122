"""The contract every entry of the sketch-type table keeps through the
``state.Sketch`` base: merge refuses any other configuration and writes
into neither input, from_state binds parameters by position or by name,
state_bytes reports the stored size, and add_batch checks quantities
before it touches the state."""

import numpy as np
import pytest

from cardsketch.errors import (IncompatibleSketchError, StreamIntegrityError,
                               UnsupportedDeletionError)
from cardsketch.sketch_types import TYPES

M = 64
PARAMS = {"q": 0.5, "k": 3, "p": 0.001, "alpha": 0.05}
OTHER_PARAMS = {"q": 0.6, "k": 4, "p": 0.002, "alpha": 0.1}
STATE_BYTES = {"max-uniform": 512, "max-exp": 512, "max-geom": 256, "kth": 1536,
               "bernoulli": 8, "projection": 576, "loglog": 64, "hll": 64,
               "mincount": 512}


def _filled(t, m=M, salt=7, lo=0, **changed):
    params = {n: changed.get(n, PARAMS[n]) for n in t.param_names}
    sk = t.build(m, salt, params)
    sk.add_batch(np.arange(lo, lo + 1000, dtype=np.uint64))
    return sk


def _raw(sk) -> dict:
    """Every attribute, arrays as (dtype, shape, raw bytes)."""
    return {k: (v.dtype.str, v.shape, v.tobytes()) if isinstance(v, np.ndarray) else v
            for k, v in vars(sk).items()}


@pytest.mark.parametrize("name", list(TYPES))
def test_contract(name):
    t = TYPES[name]
    a, b = _filled(t), _filled(t, lo=500)

    others = [_filled(t, m=2 * M), _filled(t, salt=8)]
    others += [_filled(t, **{n: OTHER_PARAMS[n]}) for n in t.param_names]
    others += [_filled(u) for u in TYPES.values() if u is not t]
    for other in others:
        with pytest.raises(IncompatibleSketchError):
            a.merge(other)

    before = _raw(a), _raw(b)
    out = a.merge(b)
    assert out is not a and out is not b
    assert (_raw(a), _raw(b)) == before
    for n in t.cls.layout.names:
        assert not np.shares_memory(getattr(out, n), getattr(a, n))
        assert not np.shares_memory(getattr(out, n), getattr(b, n))

    arrays = [getattr(out, n) for n in t.cls.layout.names]
    params = {n: getattr(out, n) for n in t.cls.params}
    by_position = t.cls.from_state(M, 7, *arrays, *params.values())
    assert _raw(by_position) == _raw(t.cls.from_state(M, 7, *arrays, **params)) == _raw(out)
    with pytest.raises(TypeError):
        t.cls.from_state(M, 7, *arrays, *params.values(), 0)
    if params:
        with pytest.raises(TypeError):
            t.cls.from_state(M, 7, *arrays, *params.values(), **params)

    assert out.state_bytes() == STATE_BYTES[name]


@pytest.mark.parametrize("name", ["max-geom", "kth", "bernoulli"])
def test_from_state_without_a_required_parameter_is_a_type_error(name):
    t = TYPES[name]
    out = _filled(t)
    with pytest.raises(TypeError):
        t.cls.from_state(M, 7, *out.state_arrays())


@pytest.mark.parametrize("name", list(TYPES))
def test_quantities_are_checked_before_the_state_changes(name):
    sk = _filled(TYPES[name])
    before = _raw(sk)
    malformed = [(["a", "b", "c"], [1]), (["a", "b"], [5] * 4), (["a", "b"], [1, np.nan]),
                 (["a", "b"], [np.inf, 1]), (["a", "b"], [1, -np.inf]), (["a"], ["x"])]
    for items, d in malformed:
        with pytest.raises(StreamIntegrityError):
            sk.add_batch(items, d)
        assert _raw(sk) == before
    for d in ([1, 0], [-1, 1]):
        if name == "projection":  # the one linear sketch: it deletes
            sk.add_batch(["a", "b"], d)
            continue
        with pytest.raises(UnsupportedDeletionError):
            sk.add_batch(["a", "b"], d)
        assert _raw(sk) == before
