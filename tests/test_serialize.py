"""Bit-exact round-trips through the JSON envelope and the binary frame."""

import json
import tracemalloc

import numpy as np
import pytest

from cardsketch import serialize
from cardsketch.baselines import HyperLogLogSketch, LogLogSketch, MinCountSketch
from cardsketch.errors import SerializationError
from cardsketch.order_sketch import (
    BernoulliSketch,
    ContinuousMaxSketch,
    GeometricMaxSketch,
    KthOrderSketch,
)
from cardsketch.projection import ProjectionSketch
from cardsketch.streams import distinct_keys


def _build_all():
    keys = distinct_keys(120, seed=42)
    out = []
    cont = ContinuousMaxSketch(8, seed=1)
    cont.add_batch(keys)
    out.append(cont)
    expo = ContinuousMaxSketch(8, seed=1, kind="exponential")
    expo.add_batch(keys)
    out.append(expo)
    geo = GeometricMaxSketch(8, q=10 / 11, seed=2)
    geo.add_batch(keys)
    out.append(geo)
    kth = KthOrderSketch(8, k=3, seed=3)
    kth.add_batch(keys[:30])
    out.append(kth)
    bern = BernoulliSketch(16, p=0.05, seed=4)
    bern.add_batch(keys)
    out.append(bern)
    proj = ProjectionSketch(8, alpha=0.05, seed=5)
    proj.add_batch(keys)
    proj.add("gone", 1)
    proj.add("gone", -1)  # leaves a genuine (0, -inf) slot state
    out.append(proj)
    ll = LogLogSketch(16, seed=6)
    ll.add_batch(keys)
    out.append(ll)
    hll = HyperLogLogSketch(16, seed=7)
    hll.add_batch(keys)
    out.append(hll)
    mc = MinCountSketch(16, seed=8)
    mc.add_batch(keys)
    out.append(mc)
    return out


def _states_equal(a, b):
    assert type(a) is type(b)
    assert (a.m, a.salt) == (b.m, b.salt)
    if isinstance(a, ContinuousMaxSketch):
        assert a.kind == b.kind
        np.testing.assert_array_equal(a.slots, b.slots)
    elif isinstance(a, GeometricMaxSketch):
        assert a.q == b.q
        np.testing.assert_array_equal(a.slots, b.slots)
    elif isinstance(a, KthOrderSketch):
        assert a.k == b.k
        np.testing.assert_array_equal(np.nan_to_num(a.topk), np.nan_to_num(b.topk))
    elif isinstance(a, BernoulliSketch):
        assert a.p == b.p
        np.testing.assert_array_equal(a.bits, b.bits)
    elif isinstance(a, ProjectionSketch):
        assert a.alpha == b.alpha
        np.testing.assert_array_equal(a.signs, b.signs)
        np.testing.assert_array_equal(a.logmag, b.logmag)
    elif isinstance(a, MinCountSketch):
        np.testing.assert_array_equal(a.smallest, b.smallest)
    else:
        np.testing.assert_array_equal(a.registers, b.registers)


@pytest.mark.parametrize("idx", range(9))
def test_json_roundtrip_bit_exact(idx):
    sk = _build_all()[idx]
    _states_equal(sk, serialize.loads(serialize.dumps(sk)))


@pytest.mark.parametrize("idx", range(9))
def test_binary_roundtrip_bit_exact(idx):
    sk = _build_all()[idx]
    _states_equal(sk, serialize.unpack(serialize.pack(sk)))


def test_empty_sketch_roundtrip_preserves_sentinels():
    sk = ContinuousMaxSketch(4, seed=0)
    back = serialize.loads(serialize.dumps(sk))
    assert np.isneginf(back.slots).all()
    back2 = serialize.unpack(serialize.pack(sk))
    assert np.isneginf(back2.slots).all()


def test_load_any_sniffs_format():
    sk = GeometricMaxSketch(4, q=0.5, seed=1)
    sk.add("a")
    _states_equal(sk, serialize.load_any(serialize.pack(sk)))
    _states_equal(sk, serialize.load_any(serialize.dumps(sk).encode()))


def test_json_is_plain_data():
    sk = ContinuousMaxSketch(4, seed=0)
    sk.add("a")
    doc = json.loads(serialize.dumps(sk))
    assert doc["format"] == "cardsketch"
    assert doc["version"] == 2
    assert doc["type"] == "max-uniform"
    assert all(isinstance(v, str) for v in doc["state"])


def test_rejects_bad_documents():
    with pytest.raises(SerializationError):
        serialize.loads("not json")
    with pytest.raises(SerializationError):
        serialize.loads(json.dumps({"format": "other"}))
    with pytest.raises(SerializationError):
        serialize.loads(json.dumps(
            {"format": "cardsketch", "version": 99, "type": "max-uniform",
             "m": 1, "salt": 0, "state": ["-1.0"]}))
    with pytest.raises(SerializationError):
        serialize.loads(json.dumps(
            {"format": "cardsketch", "version": 1, "type": "nope",
             "m": 1, "salt": 0, "state": []}))


def test_rejects_bad_binary():
    sk = ContinuousMaxSketch(4, seed=0)
    data = serialize.pack(sk)
    with pytest.raises(SerializationError):
        serialize.unpack(b"XXXX" + data[4:])
    with pytest.raises(SerializationError):
        serialize.unpack(data[:10])


@pytest.mark.parametrize("idx", range(9))
def test_binary_rejects_trailing_bytes(idx):
    data = serialize.pack(_build_all()[idx])
    with pytest.raises(SerializationError, match="trailing"):
        serialize.unpack(data + b"\x00")


def test_binary_invalid_state_is_serialization_error():
    data = bytearray(serialize.pack(ContinuousMaxSketch(4, seed=0)))
    data[-8:] = np.array([0.5], dtype="<f8").tobytes()  # a log-CDF above 0
    with pytest.raises(SerializationError):
        serialize.unpack(bytes(data))
    empty = serialize.pack(HyperLogLogSketch(16, seed=0))
    m_zero = empty[:6] + (0).to_bytes(4, "little") + empty[10:18]
    with pytest.raises(SerializationError):
        serialize.unpack(m_zero)


def test_merge_after_roundtrip():
    keys = distinct_keys(100, seed=9)
    a = ContinuousMaxSketch(8, seed=3)
    b = ContinuousMaxSketch(8, seed=3)
    a.add_batch(keys[:50])
    b.add_batch(keys[50:])
    whole = ContinuousMaxSketch(8, seed=3)
    whole.add_batch(keys)
    merged = serialize.unpack(serialize.pack(a)).merge(serialize.loads(serialize.dumps(b)))
    np.testing.assert_array_equal(merged.slots, whole.slots)


def test_unpack_builds_a_large_state_about_once():
    # a 2 MiB top-k state: the frame's values are read in place and the
    # matrix they fill is checked without a second copy
    rng = np.random.default_rng(3)
    rows = -np.sort(-rng.random((1024, 256)), axis=1)
    frame = serialize.pack(KthOrderSketch.from_state(1024, 7, rows, 256))
    tracemalloc.start()
    try:
        back = serialize.unpack(frame)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(back.topk, rows)
    assert peak < 1.5 * rows.nbytes
