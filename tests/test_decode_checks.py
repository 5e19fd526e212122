"""Invalid sketch state is refused when it is decoded, on both formats and
through the CLI, as SerializationError (CLI exit 3) and never later as a
silent wrong estimate, a bare ValueError or a crash."""

import json
import math
import struct
import tracemalloc
import warnings

import numpy as np
import pytest

from cardsketch import sampling, serialize
from cardsketch.baselines import HyperLogLogSketch, MinCountSketch
from cardsketch.cli import main
from cardsketch.errors import SaturatedSketchError, SerializationError
from cardsketch.order_sketch import (
    ContinuousMaxSketch,
    GeometricMaxSketch,
    KthOrderSketch,
    geometric_slots,
)
from cardsketch.projection import ProjectionSketch


def _doc(sk, **changes) -> str:
    obj = json.loads(serialize.dumps(sk))
    obj.update(changes)
    return json.dumps(obj)


def _frame(tag: int, m: int, payload: bytes, salt: int = 0) -> bytes:
    return struct.pack("<4sBBIQ", b"CSKB", 1, tag, m, salt) + payload


def _f8(*values) -> bytes:
    return np.array(values, dtype="<f8").tobytes()


def _u2(*values) -> bytes:
    return np.array(values, dtype="<u2").tobytes()


def _kth():
    sk = KthOrderSketch(4, k=2, seed=3)
    sk.add_batch(range(40))
    return sk


def _max():
    sk = ContinuousMaxSketch(4, seed=1)
    sk.add_batch(range(50))
    return sk


JSON_CASES = {
    "nan slot": _doc(_max(), state=["nan", "-0.5", "-0.25", "-1.0"]),
    "positive slot": _doc(_max(), state=["0.5", "-0.5", "-0.25", "-1.0"]),
    "short state": _doc(_max(), state=["-0.5"]),
    "kth nan before value": _doc(_kth(), state=[["nan", "0.5"], ["0.9"], ["0.9"], ["0.9"]]),
    "kth ascending row": _doc(_kth(), state=[["0.3", "0.5"], ["0.9"], ["0.9"], ["0.9"]]),
    "kth value above 1": _doc(_kth(), state=[["1.5"], ["0.9"], ["0.9"], ["0.9"]]),
    "kth row longer than k": _doc(_kth(), state=[["0.9", "0.8", "0.7"], [], [], []]),
    "kth k beyond u16": _doc(_kth(), params={"k": 10**6}, state=[[], [], [], []]),
    "kth declares m=10**7, k=1000": _doc(_kth(), m=10**7, params={"k": 1000}),
    "mincount descending row": _doc(MinCountSketch(2, seed=0), state=[["0.5", "0.3"], []]),
    "mincount inf before value": _doc(MinCountSketch(2, seed=0), state=[["inf", "0.3"], []]),
    "mincount nan value": _doc(MinCountSketch(2, seed=0), state=[["nan"], []]),
    "hll register above max_rank": _doc(HyperLogLogSketch(4, seed=0), state=[64, 0, 0, 0]),
    "hll register 300": _doc(HyperLogLogSketch(4, seed=0), state=[300, 0, 0, 0]),
    "negative max-geom slot": _doc(GeometricMaxSketch(2, q=0.5), state=[-1, 3]),
    "fractional max-geom slot": _doc(GeometricMaxSketch(2, q=0.5), state=[1.5, 3]),
    "max-geom q 1 - 1e-12": _doc(GeometricMaxSketch(2, q=0.5), params={"q": repr(1 - 1e-12)}),
    "negative salt": _doc(_max(), salt=-5),
    "salt beyond u64": _doc(_max(), salt=2**64),
    "projection (0, finite)": _doc(ProjectionSketch(2, alpha=0.5), state=[[0, "1.5"], [1, "2.0"]]),
    "projection (1, -inf)": _doc(ProjectionSketch(2, alpha=0.5), state=[[1, "-inf"], [1, "2.0"]]),
    "projection nan": _doc(ProjectionSketch(2, alpha=0.5), state=[[1, "nan"], [1, "2.0"]]),
    "projection sign 2": _doc(ProjectionSketch(2, alpha=0.5), state=[[2, "1.0"], [1, "2.0"]]),
}

# type tags: 1 max-uniform, 3 max-geom, 4 kth, 5 bernoulli, 6 projection,
# 8 hll, 9 mincount
BINARY_CASES = {
    "nan slot": _frame(1, 2, _f8(math.nan, -0.5)),
    "kth nan before value": _frame(4, 1, _u2(2) + _u2(2) + _f8(math.nan, 0.5)),
    "kth ascending row": _frame(4, 1, _u2(2) + _u2(2) + _f8(0.3, 0.5)),
    "kth row longer than k": _frame(4, 1, _u2(1) + _u2(2) + _f8(0.5, 0.3)),
    "kth declares m=10**7": _frame(4, 10**7, _u2(1000) + _u2(0, 0)),
    "mincount descending row": _frame(9, 2, _u2(2, 0) + _f8(0.5, 0.3)),
    "hll register above max_rank": _frame(8, 4, bytes([200, 0, 0, 0])),
    "projection (0, finite)": _frame(6, 1, _f8(0.5) + bytes([0]) + _f8(1.5)),
    "projection (1, -inf)": _frame(6, 1, _f8(0.5) + bytes([1]) + _f8(-math.inf)),
    "bernoulli padding bit": _frame(5, 3, _f8(0.1) + bytes([0b11110000])),
    "max-geom q nan": _frame(3, 1, _f8(math.nan) + bytes(4)),
    "max-geom q 1 - 1e-12": _frame(3, 1, _f8(1 - 1e-12) + bytes(4)),
}


@pytest.mark.parametrize("case", sorted(JSON_CASES))
def test_json_rejects(case):
    with pytest.raises(SerializationError):
        serialize.loads(JSON_CASES[case])


@pytest.mark.parametrize("case", sorted(BINARY_CASES))
def test_binary_rejects(case):
    with pytest.raises(SerializationError):
        serialize.unpack(BINARY_CASES[case])


@pytest.mark.parametrize("fmt,case", [("json", c) for c in sorted(JSON_CASES)]
                         + [("bin", c) for c in sorted(BINARY_CASES)])
def test_cli_exits_3_without_traceback(tmp_path, capsys, fmt, case):
    path = tmp_path / "bad"
    if fmt == "json":
        path.write_text(JSON_CASES[case])
    else:
        path.write_bytes(BINARY_CASES[case])
    out = str(tmp_path / "out")
    assert main(["estimate", str(path)]) == 3
    assert main(["merge", str(path), "--binary", "--out", out]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_unpackable_seed_is_refused_at_construction(capsys):
    with pytest.raises(ValueError):
        ContinuousMaxSketch(4, seed=-5)
    assert main(["sketch", "--type", "hll", "--m", "16", "--seed", str(2**64),
                 "--in", "/dev/null", "--binary"]) == 3
    assert "seed" in capsys.readouterr().err


def test_kth_beyond_u16_is_refused_at_construction():
    with pytest.raises(ValueError):
        KthOrderSketch(4, k=2**16)


def test_geometric_q_near_one_is_refused_at_construction(capsys):
    # a slot of a larger q could pass the u32 maximum
    with pytest.raises(ValueError, match="q must lie"):
        GeometricMaxSketch(8, 1 - 1e-12)
    assert main(["sketch", "--type", "max-geom", "--m", "8", "--q", repr(1 - 1e-12),
                 "--in", "/dev/null"]) == 3
    assert "q must lie" in capsys.readouterr().err
    sk = GeometricMaxSketch(8, 1 - 2.0**-26)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sk.add_batch(["a", "b", "c"])
    assert sk.slots.max() < 2**32 - 1


def test_sampled_geometric_refuses_q_before_drawing():
    # q above 1 - 2**-26 is refused as the constructor refuses it, with no
    # RuntimeWarning from the slot cast and nothing drawn from the rng
    rng = np.random.default_rng(3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="q must lie"):
            sampling.sample_geometric(100, 8, 1 - 1e-12, rng)
    assert rng.bit_generator.state == np.random.default_rng(3).bit_generator.state


def test_sampled_geometric_slot_past_u32_is_refused():
    # at the largest q a sampled continuous slot log(U)/c near 0 (huge c)
    # rounds past the u32 maximum: a typed error, not a wrapped cast
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SaturatedSketchError, match="u32 maximum"):
            sampling.sample_geometric(10**30, 8, 1 - 2**-26, np.random.default_rng(4))
        with pytest.raises(SaturatedSketchError, match="u32 maximum"):
            geometric_slots(np.array([-1.0, -2.0**-100]), 1 - 2**-26)


def test_from_state_checks_row_order_and_padding():
    for rows in ([[np.nan, 0.5]], [[0.3, 0.5]]):
        with pytest.raises(ValueError):
            KthOrderSketch.from_state(1, 0, rows, 2)
    for rows in ([[np.inf, 0.2, 0.3]] * 2, [[0.3, 0.2, np.inf]] * 2):
        with pytest.raises(ValueError):
            MinCountSketch.from_state(2, 0, rows)


def test_from_state_checks_shape_before_building():
    # a (10**7, 1000) matrix would take 74.5 GiB
    with pytest.raises(ValueError, match="shape"):
        KthOrderSketch.from_state(10**7, 0, np.full((2, 1000), np.nan), 1000)


def test_sampler_rounding_at_large_c_loads():
    # at c = 10**12, exp(log(u) / c) rounds to 1.0 for about one stream in
    # 20000, and neighbouring order statistics can round to one double
    rows = [[1.0, 1.0], [0.5, 0.5]]
    sk = KthOrderSketch.from_state(2, 0, rows, 2)
    assert serialize.unpack(serialize.pack(sk)).topk.tolist() == rows
    assert serialize.loads(serialize.dumps(sk)).topk.tolist() == rows


# 5000 empty rows declaring k = 2000: 15 KB of JSON or 10 KB of binary ask
# for a 76 MiB matrix of padding
SPARSE_KTH = {
    "json": _doc(_kth(), m=5000, params={"k": 2000}, state=[[]] * 5000).encode(),
    "binary": _frame(4, 5000, _u2(2000) + _u2(*[0] * 5000)),
}


@pytest.mark.parametrize("fmt", sorted(SPARSE_KTH))
def test_mostly_padding_kth_is_refused_before_the_matrix_exists(fmt):
    tracemalloc.start()
    try:
        with pytest.raises(SerializationError, match="padding"):
            serialize.load_any(SPARSE_KTH[fmt])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


@pytest.mark.parametrize("name", ["kth", "mincount"])
def test_from_state_allocates_no_empty_state_beside_the_checked_one(name):
    # the constructor's (m, k) matrix used to be allocated and then replaced
    values = np.sort(np.random.default_rng(4).random((1024, 256)), axis=1)
    if name == "kth":
        rows = values[:, ::-1].copy()
        build = lambda: KthOrderSketch.from_state(1024, 3, rows, 256)  # noqa: E731
    else:
        rows = np.sort(values.reshape(-1, 4)[:, :3], axis=1)
        build = lambda: MinCountSketch.from_state(len(rows), 3, rows)  # noqa: E731
    tracemalloc.start()
    try:
        sk = build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * sk.state_arrays()[0].nbytes


def test_from_state_still_checks_the_parameters():
    with pytest.raises(ValueError, match="k must lie"):
        KthOrderSketch.from_state(2, 0, np.full((2, 0), np.nan), 0)
    with pytest.raises(ValueError, match="q must lie"):
        GeometricMaxSketch.from_state(2, 0, [1, 1], 1.5)
    with pytest.raises(ValueError, match="m must lie"):
        ContinuousMaxSketch.from_state(0, 0, [], "uniform")
    with pytest.raises(ValueError, match="power of two"):
        HyperLogLogSketch.from_state(3, 0, [0, 0, 0])
    with pytest.raises(ValueError, match="alpha must lie"):
        ProjectionSketch.from_state(1, 0, [0], [-np.inf], 1.0)


def test_empty_kth_at_the_padding_floor_still_loads():
    sk = KthOrderSketch(1024, k=1024, seed=3)
    for data in (serialize.dumps(sk).encode(), serialize.pack(sk)):
        np.testing.assert_array_equal(serialize.load_any(data).topk, sk.topk)


def _sparse_kth():
    # three items fill 3 of each row's 1000 slots: 12288 stored values for
    # a 4096 x 1000 matrix, which the decoders refuse as mostly padding
    sk = KthOrderSketch(4096, 1000, 1)
    sk.add_batch(["a", "b", "c"])
    return sk


@pytest.mark.parametrize("encode", [serialize.pack, serialize.dumps])
def test_a_state_that_would_not_decode_is_refused_when_written(encode):
    with pytest.raises(SerializationError, match="mostly padding for 12288 stored values"):
        encode(_sparse_kth())


@pytest.mark.parametrize("binary", [[], ["--binary"]])
def test_cli_sketch_refuses_a_state_that_would_not_decode(tmp_path, capsys, binary):
    ids = tmp_path / "ids.txt"
    ids.write_text("a\nb\nc\n")
    out = tmp_path / "kth.sk"
    assert main(["sketch", "--type", "kth", "--k", "1000", "--m", "4096", *binary,
                 "--in", str(ids), "--out", str(out)]) == 3
    assert "mostly padding" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("m, k, per_row", [(1024, 1024, 0), (1024, 1025, 0), (4096, 1000, 3),
                                           (256, 4200, 600), (256, 4200, 500)])
def test_the_encoders_write_exactly_the_kth_states_the_decoders_read(m, k, per_row):
    values = -np.sort(-np.random.default_rng(m + k).random((m, per_row)), axis=1)
    rows = np.hstack([values, np.full((m, k - per_row), np.nan)])
    sk = KthOrderSketch.from_state(m, 2, rows, k)
    by_hand = _frame(4, m, _u2(k) + _u2(*[per_row] * m) + values.astype("<f8").tobytes(), salt=2)
    by_hand = by_hand[:4] + bytes([sk.version]) + by_hand[5:]
    try:
        written = [serialize.pack(sk), serialize.dumps(sk).encode()]
    except SerializationError as exc:
        assert "padding" in str(exc)
        with pytest.raises(SerializationError, match="padding"):
            serialize.unpack(by_hand)
        return
    assert written[0] == by_hand
    for data in written:
        np.testing.assert_array_equal(serialize.load_any(data).topk, rows)


def test_a_large_mincount_state_round_trips():
    # m * 3 entries pass the 2**20 floor, but never eight per stored row
    sk = MinCountSketch(2**19, seed=1)
    sk.add_batch(range(1000))
    for data in (serialize.pack(sk), serialize.dumps(sk).encode()):
        np.testing.assert_array_equal(serialize.load_any(data).smallest, sk.smallest)
