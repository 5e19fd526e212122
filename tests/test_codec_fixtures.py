"""Both wire formats pinned byte for byte.

data/codec_fixtures.json holds, per case, the ``dumps`` text and the
``pack`` bytes (hex) of a sketch built by hashing before the codecs were
derived from the sketch-type table: every type, full and empty, kth and
mincount rows shorter than k, and projections holding (0, -inf) slots
left by an insert and a matching delete.  All of them are version 1, the
per-stream hash scheme, and data/codec_fixture_estimates.json holds the
estimate (or the error) the version-1 code gave for each.

data/codec_fixtures_v2.json holds the max family under the arrival
scheme, version 2, built by ``_V2_RECIPES`` below.

Decoding a fixture and encoding it again must give the same text and
bytes, and the two decoders must agree bit for bit.  A version-1 max
family state keeps its version: it merges only with version-1 states and
refuses new items, through the API and through the CLI (exit 3).
"""

import json
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from cardsketch import serialize
from cardsketch.errors import IncompatibleSketchError, SketchError
from cardsketch.order_sketch import (
    BernoulliSketch,
    ContinuousMaxSketch,
    GeometricMaxSketch,
    KthOrderSketch,
)

DATA = Path(__file__).parent / "data"
FIXTURES = json.loads((DATA / "codec_fixtures.json").read_text())
FIXTURES_V2 = json.loads((DATA / "codec_fixtures_v2.json").read_text())
V1_ESTIMATES = json.loads((DATA / "codec_fixture_estimates.json").read_text())
MAX_FAMILY = {"max-uniform", "max-exp", "max-geom", "kth", "bernoulli"}


def _items(n, tag):
    return [f"{tag}-{i}" for i in range(n)]


# how each version-2 fixture was built: an empty sketch and its items
_V2_RECIPES = {
    "max-uniform": (lambda: ContinuousMaxSketch(8, 31), _items(300, "u")),
    "max-exp": (lambda: ContinuousMaxSketch(8, 32, "exponential"), _items(300, "e")),
    "max-geom": (lambda: GeometricMaxSketch(8, 10 / 11, 33), _items(300, "g")),
    "kth": (lambda: KthOrderSketch(8, 3, 34), _items(300, "k")),
    "kth-short": (lambda: KthOrderSketch(8, 4, 35), _items(3, "s")),
    "bernoulli": (lambda: BernoulliSketch(13, 0.01, 36), _items(150, "b")),
    "empty-max-uniform": (lambda: ContinuousMaxSketch(5, 2**64 - 1), []),
    "empty-kth": (lambda: KthOrderSketch(5, 2, 37), []),
}


def _state_bytes(sk) -> dict:
    """Every attribute, arrays as (dtype, shape, raw bytes)."""
    return {k: (v.dtype.str, v.shape, v.tobytes()) if isinstance(v, np.ndarray) else v
            for k, v in vars(sk).items()}


def test_fixtures_cover_every_type():
    types = {json.loads(doc["json"])["type"] for doc in FIXTURES.values()}
    assert types == {"max-uniform", "max-exp", "max-geom", "kth", "bernoulli",
                     "projection", "loglog", "hll", "mincount"}


def _decoded(doc):
    """The fixture decoded from its JSON text and from its binary frame."""
    return serialize.loads(doc["json"]), serialize.unpack(bytes.fromhex(doc["binary"]))


def test_version_2_fixtures_cover_the_max_family():
    docs = [json.loads(doc["json"]) for doc in FIXTURES_V2.values()]
    assert {d["type"] for d in docs} == MAX_FAMILY
    assert {d["version"] for d in docs} == {2}
    assert {json.loads(doc["json"])["version"] for doc in FIXTURES.values()} == {1}


@pytest.mark.parametrize("case", sorted(FIXTURES_V2))
def test_version_2_fixtures_rebuild_by_hashing(case):
    make, items = _V2_RECIPES[case]
    sk = make()
    sk.add_batch(items)
    assert serialize.dumps(sk) == FIXTURES_V2[case]["json"]
    assert serialize.pack(sk).hex() == FIXTURES_V2[case]["binary"]


def _estimate(sk) -> dict:
    """The estimate as text, or the name of the error it raises."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # large-alpha projections
            e = sk.estimate()
    except SketchError as exc:
        return {"error": type(exc).__name__}
    return {"c_hat": repr(e.c_hat), "std_error": repr(e.std_error),
            "ci": [repr(v) for v in e.ci], "estimator": e.estimator}


@pytest.mark.parametrize("case", sorted(FIXTURES))
def test_version_1_fixtures_estimate_as_the_version_1_code_did(case):
    legacy = json.loads(FIXTURES[case]["json"])["type"] in MAX_FAMILY
    for sk in _decoded(FIXTURES[case]):
        assert sk.version == 1
        assert ("version" in vars(sk)) == legacy
        assert _estimate(sk) == V1_ESTIMATES[case]


@pytest.mark.parametrize("case", sorted(FIXTURES) + [f"v2-{c}" for c in sorted(FIXTURES_V2)])
def test_reencoding_a_fixture_is_byte_identical(case):
    doc = FIXTURES_V2[case[3:]] if case.startswith("v2-") else FIXTURES[case]
    text, data = doc["json"], bytes.fromhex(doc["binary"])
    from_json = serialize.loads(text)
    from_binary = serialize.unpack(data)
    assert _state_bytes(from_json) == _state_bytes(from_binary)
    for sk in (from_json, from_binary):
        assert serialize.dumps(sk) == text
        assert serialize.pack(sk) == data
    assert _state_bytes(serialize.load_any(text.encode())) == _state_bytes(from_json)
    assert _state_bytes(serialize.load_any(data)) == _state_bytes(from_json)


@pytest.mark.parametrize("name", sorted(MAX_FAMILY))
def test_a_version_1_state_merges_only_with_version_1(name):
    case = next(c for c, doc in FIXTURES.items() if json.loads(doc["json"])["type"] == name
                and not c.startswith("empty-"))
    for old in _decoded(FIXTURES[case]):
        again = old.merge(serialize.loads(FIXTURES[case]["json"]))
        assert again.version == 1
        assert serialize.dumps(again) == FIXTURES[case]["json"]
        fresh = serialize.loads(serialize.dumps(old).replace('"version":1', '"version":2'))
        assert fresh.version == 2 and "version" not in vars(fresh)
        for a, b in ((old, fresh), (fresh, old)):
            with pytest.raises(IncompatibleSketchError, match="versions differ"):
                a.merge(b)
        before = serialize.dumps(old)
        for add in (lambda: old.add("x"), lambda: old.add_batch(["x", "y"])):
            with pytest.raises(IncompatibleSketchError, match="scheme version 1"):
                add()
        assert serialize.dumps(old) == before


def test_every_other_type_reads_and_writes_version_1_only():
    for case, doc in FIXTURES.items():
        if json.loads(doc["json"])["type"] in MAX_FAMILY:
            continue
        text = doc["json"].replace('"version":1', '"version":2')
        with pytest.raises(serialize.SerializationError, match="unsupported version 2"):
            serialize.loads(text)
        frame = bytearray(bytes.fromhex(doc["binary"]))
        frame[4] = 2
        with pytest.raises(serialize.SerializationError, match="unsupported version 2"):
            serialize.unpack(bytes(frame))


def _cli(*args):
    return subprocess.run([sys.executable, "-m", "cardsketch.cli", *args],
                          capture_output=True, text=True)


@pytest.mark.parametrize("binary", [False, True])
def test_cli_merge_refuses_mixed_schemes(tmp_path, binary):
    doc = FIXTURES["max-uniform"]
    old = tmp_path / "old.sk"
    if binary:
        old.write_bytes(bytes.fromhex(doc["binary"]))
    else:
        old.write_text(doc["json"])
    meta = json.loads(doc["json"])
    (tmp_path / "ids.txt").write_text("a\nb\nc\n")
    fresh = tmp_path / "fresh.sk"
    p = _cli("sketch", "--type", "max-uniform", "--m", str(meta["m"]), "--seed", str(meta["salt"]),
             "--in", str(tmp_path / "ids.txt"), "--out", str(fresh), *(["--binary"] if binary else []))
    assert p.returncode == 0, p.stderr
    p = _cli("merge", str(old), str(fresh), "--out", str(tmp_path / "merged.sk"))
    assert p.returncode == 3
    assert "versions differ" in p.stderr and "Traceback" not in p.stderr
    p = _cli("merge", str(old), str(old), "--out", str(tmp_path / "same.json"))
    assert p.returncode == 0, p.stderr
    assert (tmp_path / "same.json").read_text().strip() == doc["json"]
