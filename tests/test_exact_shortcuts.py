"""Shortcuts on the sampled experiment path that must give the values of
the code they replace, bit for bit or byte for byte: the geometric MLE's
row sums by length, the bucket samplers' shared probability vector and
the report writer."""

import json
import math

import numpy as np
import pytest

from cardsketch import experiment, sampling, serialize
from cardsketch.experiment import ALGOS, ExperimentConfig, run_experiment
from cardsketch.order_sketch import _length_groups, _row_sums


# -- order_sketch._row_sums ---------------------------------------------

def _per_row(v, n):
    return [float(v[i, :k].sum()) for i, k in enumerate(n.tolist())]


@pytest.mark.parametrize("seed", range(4))
def test_row_sums_by_length_match_per_row_sums_bit_for_bit(seed):
    rng = np.random.default_rng(seed)
    for _ in range(150):
        rows, width = int(rng.integers(1, 300)), int(rng.integers(1, 200))
        v = rng.standard_normal((rows, width)) * 10.0 ** rng.integers(-8, 8, (rows, width))
        n = rng.integers(1, width + 1, size=rows)
        got = _row_sums(v, _length_groups(n)).tolist()
        assert [x.hex() for x in got] == [x.hex() for x in _per_row(v, n)]


def test_row_sums_of_one_row_and_of_one_length():
    v = np.array([[0.1, 0.2, 0.3, 1e16, -1e16, 0.7, 0.9, 1.1, 1.3, 1.7]])
    for k in range(1, v.shape[1] + 1):
        n = np.array([k])
        assert _row_sums(v, _length_groups(n)).tolist() == _per_row(v, n)
    block = np.tile(v, (5, 1)) * np.arange(1, 6)[:, None]
    n = np.full(5, 9)
    assert _row_sums(block, _length_groups(n)).tolist() == _per_row(block, n)


def test_length_groups_cover_each_row_once_in_ascending_order():
    n = np.array([3, 1, 3, 2, 1, 3])
    groups = _length_groups(n)
    assert [k for _, k in groups] == [1, 2, 3]
    assert [rows.tolist() for rows, _ in groups] == [[1, 4], [3], [0, 2, 5]]


# -- sampling._uniform_p ---------------------------------------------------

def test_bucket_probabilities_are_built_once_per_m_and_read_only():
    p = sampling._uniform_p(128)
    assert sampling._uniform_p(128) is p
    assert np.array_equal(p, np.full(128, 1.0 / 128))
    assert not p.flags.writeable
    with pytest.raises(ValueError):
        p[0] = 1.0
    a, b = np.random.default_rng(9), np.random.default_rng(9)
    assert np.array_equal(sampling._bucket_counts(10**6, 128, a),
                          b.multinomial(10**6, np.full(128, 1.0 / 128)))


# -- serialize.json_dumps_indented ------------------------------------------

def _reference(obj, indent=2):
    return serialize.json_dumps(obj, indent=indent, sort_keys=True)


def _report_pairs(monkeypatch, report):
    got = [report.to_json(canonical=True), report.to_json(canonical=True, indent=4)]
    monkeypatch.setattr(experiment, "json_dumps_indented", _reference)
    want = [report.to_json(canonical=True), report.to_json(canonical=True, indent=4)]
    return got, want


def test_a_sampled_report_is_written_as_json_writes_it(monkeypatch):
    cfg = ExperimentConfig(c=20000, m=16, algos=ALGOS, replicates=12, seed=5,
                           method="sampled")
    got, want = _report_pairs(monkeypatch, run_experiment(cfg))
    assert got == want


def test_a_hash_report_with_failed_replicates_is_written_as_json_writes_it(monkeypatch):
    cfg = ExperimentConfig(c=150, m=8, algos=ALGOS, replicates=3, seed=2, method="hash",
                           deleted_extra=10)
    got, want = _report_pairs(monkeypatch, run_experiment(cfg))
    assert got == want


EDGE = {
    "nan": math.nan,
    "inf": [math.inf, -math.inf, 0.0, -0.0, 1e-320, 1.7976931348623157e308],
    "none": None,
    "bools": [True, False, None],
    "empty": [[], {}, ()],
    "empty_list": [],
    "empty_dict": {},
    "numpy": [np.float64(1.5), np.int64(-3), np.float32(0.25), np.uint8(7)],
    "numpy_scalar": np.float64(2.5),
    "numpy_in_dict": {"a": np.int64(4), "b": np.float64(math.nan)},
    "text": "naïve €\U0001F600 \"quoted\" \\ \n\t\x00",
    "été": ["ü", "]", "[", ",", "{"],
    "nested": [{"b": 1, "a": [1, [2, {}], ()]}, [], [[]], [{"z": {"y": [None]}}]],
    "tuple": (1, "two", 3.0),
    "number_keys": {2: [1, 2], 1.5: {"x": [3]}, 0: "zero"},
    "flat_number_keys": {3: "c", 1: "a", 2.5: "b"},
}


@pytest.mark.parametrize("indent", [2, 0, 4, "\t", ""])
def test_edge_values_are_written_as_json_writes_them(indent):
    assert serialize.json_dumps_indented(EDGE, indent) == _reference(EDGE, indent)
    for part in EDGE.values():
        assert serialize.json_dumps_indented(part, indent) == _reference(part, indent)


def test_a_value_json_cannot_encode_is_refused_alike():
    for bad in ({"a": [np.bool_(True)]}, {"a": {"b": object()}}, [np.zeros(2)]):
        with pytest.raises(TypeError):
            _reference(bad)
        with pytest.raises(TypeError):
            serialize.json_dumps_indented(bad)
    assert json.loads(serialize.json_dumps_indented({"k": [1, 2]})) == {"k": [1, 2]}
