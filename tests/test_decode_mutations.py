"""Mutants of every committed codec fixture, through both decoders.

Each binary frame has every byte set to 0, 1, 0x7f, 0x80 and 0xff, every
truncation and one appended byte; each JSON document has every leaf
replaced by 17 edge values.  A mutant must either be refused with
SerializationError or decode to a sketch that re-packs to the same bytes
(binary mutants), and whose self-merge, ``estimate()`` and, for
projection, ``median_estimate()`` either raise a SketchError or return,
the estimates a finite value: never a bare ValueError, another exception
or a RuntimeWarning (an error under the suite's filterwarnings).
"""

import json
import math
from pathlib import Path

import pytest

from cardsketch import serialize
from cardsketch.errors import SerializationError, SketchError
from cardsketch.projection import ProjectionSketch

DATA = Path(__file__).parent / "data"
FIXTURES = {
    **{f"v1-{case}": doc
       for case, doc in json.loads((DATA / "codec_fixtures.json").read_text()).items()},
    **{f"v2-{case}": doc
       for case, doc in json.loads((DATA / "codec_fixtures_v2.json").read_text()).items()},
}

BYTE_VALUES = (0x00, 0x01, 0x7F, 0x80, 0xFF)
EDGE_VALUES = (0, -1, 1, 2**32, 2**64, -2**63, 1.5, "1e308", "-inf", "inf", "nan", None,
               True, [], {}, "x", "1e-320")


def _frame_mutants(frame: bytes):
    for i in range(len(frame)):
        for value in BYTE_VALUES:
            yield frame[:i] + bytes([value]) + frame[i + 1:]
    for n in range(len(frame)):
        yield frame[:n]
    yield frame + b"\x00"


def _leaf_paths(node, path=()):
    """The key path of every leaf: a scalar, or an empty list or object."""
    if isinstance(node, dict) and node:
        for key, child in node.items():
            yield from _leaf_paths(child, path + (key,))
    elif isinstance(node, list) and node:
        for i, child in enumerate(node):
            yield from _leaf_paths(child, path + (i,))
    else:
        yield path


def _text_mutants(text: str):
    for path in list(_leaf_paths(json.loads(text))):
        for value in EDGE_VALUES:
            doc = json.loads(text)
            if path:
                parent = doc
                for key in path[:-1]:
                    parent = parent[key]
                parent[path[-1]] = value
            else:
                doc = value
            yield json.dumps(doc)


def _fault(decode, data, frame: bool):
    """None if the mutant data passes, else what went wrong."""
    try:
        sk = decode(data)
    except SerializationError:
        return None
    except Exception as exc:  # noqa: BLE001 -- any other decode failure is the finding
        return f"decode raised {exc!r}"
    if frame and serialize.pack(sk) != data:
        return "the decoded sketch re-packs to other bytes"
    reads = {"merge": lambda: sk.merge(sk), "estimate": lambda: sk.estimate().c_hat}
    if isinstance(sk, ProjectionSketch):
        reads["median_estimate"] = sk.median_estimate
    for name, read in reads.items():
        try:
            value = read()
        except SketchError:
            continue
        except Exception as exc:  # noqa: BLE001
            return f"{name} raised {exc!r}"
        if name != "merge" and not math.isfinite(value):
            return f"{name} returned {value!r}"
    return None


@pytest.mark.filterwarnings("ignore:alpha=:UserWarning")  # a large-alpha projection estimate
@pytest.mark.parametrize("codec", ["binary", "json"])
@pytest.mark.parametrize("case", sorted(FIXTURES))
def test_every_mutant_is_refused_or_reads_cleanly(case, codec):
    doc = FIXTURES[case]
    if codec == "binary":
        mutants = _frame_mutants(bytes.fromhex(doc["binary"]))
        faults = [(m.hex(), _fault(serialize.unpack, m, True)) for m in mutants]
    else:
        mutants = _text_mutants(doc["json"])
        faults = [(m, _fault(serialize.loads, m, False)) for m in mutants]
    faults = [(m, f) for m, f in faults if f is not None]
    assert not faults, f"{len(faults)} mutants, the first: {faults[0]}"
