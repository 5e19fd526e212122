"""Mutants of the committed codec fixtures, defined once, and a seeded
sweep of them through in-process ``cardsketch merge``, ``estimate`` and
``estimate --median``.

A mutant is a binary frame with one byte set to 0, 1, 0x7f, 0x80 or 0xff,
cut short, or given one more byte (``frame_mutant``), or a JSON document
with one leaf replaced by one of 17 edge values (``text_mutant``).
tests/test_decode_mutations.py decodes every one of them and checks the
sketches with ``read_fault``; the sweep here draws them at random.  Each
drawn mutant is merged with its fixture and estimated, plainly and by the
median: each call must exit 0, 3 or 4 and let no exception escape, a
RuntimeWarning included.  The documented UserWarning of a projection
estimate at alpha > 0.1 is let through.

This module imports no pytest, so a longer sweep runs without it:
``python tests/cli_mutants.py`` runs ten times the tier-1 count of
mutants on seed 1, prints the number of calls, and exits 1 after printing
the first fault.  Another count or seed is a call of ``sweep()``.
"""

import contextlib
import io
import json
import math
import random
import sys
import tempfile
import warnings
from pathlib import Path

from cardsketch.cli import main
from cardsketch.errors import SketchError

DATA = Path(__file__).parent / "data"
BYTE_VALUES = (0x00, 0x01, 0x7F, 0x80, 0xFF)
EDGE_VALUES = (0, -1, 1, 2**32, 2**64, -2**63, 1.5, "1e308", "-inf", "inf", "nan", None,
               True, [], {}, "x", "1e-320")
TIER1_CASES = 1000  # tests/test_sweeps.py; the CI sweep runs ten times as many
EXITS = (0, 3, 4)


def fixtures() -> dict:
    """Each committed fixture's binary frame and JSON text, by name."""
    out = {}
    for version, name in (("v1", "codec_fixtures.json"), ("v2", "codec_fixtures_v2.json")):
        for case, doc in json.loads((DATA / name).read_text()).items():
            out[f"{version}-{case}"] = bytes.fromhex(doc["binary"]), doc["json"]
    return out


def leaf_paths(node, path=()):
    """The key path of every leaf: a scalar, or an empty list or object."""
    if isinstance(node, (dict, list)) and node:
        for key, child in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield from leaf_paths(child, path + (key,))
    else:
        yield path


def frame_mutant(frame: bytes, j: int) -> bytes:
    """Mutant j of the frame's 6 len(frame) + 1: each byte set to each of
    BYTE_VALUES in turn, then each truncation, then one appended byte."""
    if j < 5 * len(frame):
        i = j // 5
        return frame[:i] + bytes([BYTE_VALUES[j % 5]]) + frame[i + 1:]
    if j < 6 * len(frame):
        return frame[:j - 5 * len(frame)]
    return frame + b"\x00"


def text_mutant(text: str, path: tuple, value) -> str:
    """The document with the leaf at path replaced by value."""
    doc = json.loads(text)
    if not path:
        return json.dumps(value)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return json.dumps(doc)


def read_fault(sk):
    """None if the sketch merges with itself and each of its estimates
    (``estimate``, and ``median_estimate`` where it has one) returns a
    finite value, or any of them raises a SketchError; else what went
    wrong."""
    reads = {"merge": lambda: sk.merge(sk), "estimate": lambda: sk.estimate().c_hat}
    if hasattr(sk, "median_estimate"):
        reads["median_estimate"] = sk.median_estimate
    for name, read in reads.items():
        try:
            value = read()
        except SketchError:
            continue
        except Exception as exc:  # noqa: BLE001 -- any other failure is the finding
            return f"{name} raised {exc!r}"
        if name != "merge" and not math.isfinite(value):
            return f"{name} returned {value!r}"
    return None


def mutants(count: int, seed: int):
    """count seeded (fixture name, fixture, mutant) triples, each document
    bytes (a binary frame) or str (JSON)."""
    rng = random.Random(seed)
    docs = fixtures()
    names = sorted(docs)
    for _ in range(count):
        name = rng.choice(names)
        frame, text = docs[name]
        if rng.random() < 0.5:
            yield name, frame, frame_mutant(frame, rng.randrange(6 * len(frame) + 1))
        else:
            path = rng.choice(list(leaf_paths(json.loads(text))))
            yield name, text, text_mutant(text, path, rng.choice(EDGE_VALUES))


def _call(args) -> object:
    """main's exit code, or the exception that escaped it."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return main(args)
        except (Exception, SystemExit) as exc:  # noqa: BLE001 -- an escape is the finding
            return exc


def sweep(count: int, seed: int) -> tuple:
    """(calls made, faults) over count seeded mutants: each fault a call that
    exited other than 0, 3 or 4, as (fixture name, args, what it returned
    or raised)."""
    calls, found = 0, []
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        warnings.filterwarnings("ignore", "alpha=", UserWarning)
        original, mutant, out = (str(Path(tmp) / n) for n in ("original", "mutant", "out"))
        for name, doc, bad in mutants(count, seed):
            for path, data in ((original, doc), (mutant, bad)):
                with open(path, "wb") as fh:
                    fh.write(data if isinstance(data, bytes) else data.encode())
            for args in (["merge", mutant, original, "--out", out], ["estimate", mutant],
                         ["estimate", "--median", mutant]):
                calls += 1
                got = _call(args)
                if got not in EXITS:
                    found.append((name, args, got))
    return calls, found


if __name__ == "__main__":
    calls, found = sweep(10 * TIER1_CASES, 1)
    print(f"{calls} calls on {10 * TIER1_CASES} mutants, {len(found)} faults")
    if found:
        print("first fault:", found[0])
        sys.exit(1)
