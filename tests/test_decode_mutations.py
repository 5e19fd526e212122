"""Mutants of every committed codec fixture, through both decoders.

Each binary frame has every byte set to 0, 1, 0x7f, 0x80 and 0xff, every
truncation and one appended byte; each JSON document has every leaf
replaced by 17 edge values.  A mutant must either be refused with
SerializationError or decode to a sketch that re-packs to the same bytes
(binary mutants), and whose self-merge, ``estimate()`` and, for
projection, ``median_estimate()`` either raise a SketchError or return,
the estimates a finite value: never a bare ValueError, another exception
or a RuntimeWarning (an error under the suite's filterwarnings).  The
mutants and the read check are tests/cli_mutants.py's, whose CLI sweep
draws from the same mutants.
"""

import json

import pytest

import cli_mutants
from cardsketch import serialize
from cardsketch.errors import SerializationError

FIXTURES = cli_mutants.fixtures()


def _frame_mutants(frame: bytes):
    return (cli_mutants.frame_mutant(frame, j) for j in range(6 * len(frame) + 1))


def _text_mutants(text: str):
    for path in list(cli_mutants.leaf_paths(json.loads(text))):
        for value in cli_mutants.EDGE_VALUES:
            yield cli_mutants.text_mutant(text, path, value)


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
    return cli_mutants.read_fault(sk)


@pytest.mark.filterwarnings("ignore:alpha=:UserWarning")  # a large-alpha projection estimate
@pytest.mark.parametrize("codec", ["binary", "json"])
@pytest.mark.parametrize("case", sorted(FIXTURES))
def test_every_mutant_is_refused_or_reads_cleanly(case, codec):
    frame, text = FIXTURES[case]
    if codec == "binary":
        faults = [(m.hex(), _fault(serialize.unpack, m, True)) for m in _frame_mutants(frame)]
    else:
        faults = [(m, _fault(serialize.loads, m, False)) for m in _text_mutants(text)]
    faults = [(m, f) for m, f in faults if f is not None]
    assert not faults, f"{len(faults)} mutants, the first: {faults[0]}"
