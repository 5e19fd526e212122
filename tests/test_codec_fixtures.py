"""Both wire formats pinned byte for byte.

data/codec_fixtures.json holds, per case, the ``dumps`` text and the
``pack`` bytes (hex) of a sketch built by hashing before the codecs were
derived from the sketch-type table: every type, full and empty, kth and
mincount rows shorter than k, and projections holding (0, -inf) slots
left by an insert and a matching delete.  Decoding a fixture and encoding
it again must give the same text and bytes, and the two decoders must
agree bit for bit.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from cardsketch import serialize

FIXTURES = json.loads((Path(__file__).parent / "data" / "codec_fixtures.json").read_text())


def _state_bytes(sk) -> dict:
    """Every attribute, arrays as (dtype, shape, raw bytes)."""
    return {k: (v.dtype.str, v.shape, v.tobytes()) if isinstance(v, np.ndarray) else v
            for k, v in vars(sk).items()}


def test_fixtures_cover_every_type():
    types = {json.loads(doc["json"])["type"] for doc in FIXTURES.values()}
    assert types == {"max-uniform", "max-exp", "max-geom", "kth", "bernoulli",
                     "projection", "loglog", "hll", "mincount"}


@pytest.mark.parametrize("case", sorted(FIXTURES))
def test_reencoding_a_fixture_is_byte_identical(case):
    text, data = FIXTURES[case]["json"], bytes.fromhex(FIXTURES[case]["binary"])
    from_json = serialize.loads(text)
    from_binary = serialize.unpack(data)
    assert _state_bytes(from_json) == _state_bytes(from_binary)
    for sk in (from_json, from_binary):
        assert serialize.dumps(sk) == text
        assert serialize.pack(sk) == data
    assert _state_bytes(serialize.load_any(text.encode())) == _state_bytes(from_json)
    assert _state_bytes(serialize.load_any(data)) == _state_bytes(from_json)
