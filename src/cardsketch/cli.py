"""Command-line interface.

Subcommands: sketch (build from a text stream), merge, estimate,
simulate (replicated experiments), analyze (closed-form constants) and
equivalence (coupled maximal-term / projection diagnostics).

sketch reads its elements, from a file or stdin, as UTF-8 bytes, whatever
the locale: LF, CRLF and a lone CR each end a line, and an id keys as its
bytes.  Input that is not UTF-8 is a data error.  The ids are keyed as
byte spans of the input buffer, with no Python object per line, and a
quantity is parsed, as a Python int, only on a line that has a tab.
UTF-8 is checked slice by slice with the stdlib's incremental decoder, so
no str of the whole input is built.  Every input (element file, sketch,
simulate config, analyze grid) is read by one reader, from stdin for -.

A command loads only the sketch family it touches: the type table names
each type's class, and its module is imported when a sketch of that type
is first built or decoded, so ``sketch --type hll`` and the merge and
estimate of its output load ``baselines``, never ``order_sketch``,
``projection``, ``sampling`` or ``inference``.  Modules and names that
only one subcommand uses (``experiment`` for simulate, ``inference`` for
analyze, ``streams`` and ``coupled_residuals`` for equivalence) are
imported when that command runs.

Exit codes: 0 ok, 2 usage, 3 data or format error, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import codecs
import dataclasses
import functools
import io
import json
import sys

import numpy as np

from . import hashing, serialize, state
from .errors import (IncompatibleSketchError, SerializationError, SketchError,
                     UnsupportedDeletionError)
from .serialize import json_dumps
from .sketch_types import TYPES, type_of

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

_UTF8_SLICE = 1 << 16  # bytes decoded at a time by _check_utf8


def _make_sketch(args) -> object:
    t = TYPES[args.type]
    params = {}
    for name in t.param_names:
        params[name] = getattr(args, name)
        if params[name] is None:
            raise SerializationError(f"--{name} is required for {t.name}")
    return t.build(args.m, args.seed, params)


def _check_utf8(data: bytes) -> None:
    """Raise the UnicodeDecodeError that ``data.decode("utf-8")`` raises,
    decoding max(_UTF8_SLICE, 4) bytes at a time and dropping each str.

    The stdlib's incremental decoder leaves a character cut by a slice's
    end unconsumed, and the next slice starts at it.
    """
    view = memoryview(data)
    start = 0
    while start < len(data):
        end = start + max(_UTF8_SLICE, 4)
        try:
            start += codecs.utf_8_decode(view[start:end], "strict", end >= len(data))[1]
        except UnicodeDecodeError as exc:
            raise UnicodeDecodeError("utf-8", data, start + exc.start, start + exc.end,
                                     exc.reason) from None


def _read_bytes(path: str) -> bytes:
    """The whole of the file at path, or of stdin for ``-``."""
    if path == "-":
        return sys.stdin.buffer.read()
    with open(path, "rb") as fh:
        return fh.read()


def _read_json(path: str, what: str):
    """The JSON document at path, read as UTF-8 text with universal newlines."""
    try:
        return json.load(io.TextIOWrapper(io.BytesIO(_read_bytes(path)), encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise SerializationError(f"{what} is not valid JSON: {exc}")


def _read_elements(path: str):
    """One element per line: <item_id>[<TAB><d>], missing d = 1.  Returns
    the ids' uint64 keys, folded as byte spans of the input, and the int64
    quantities; the first bad line in file order is reported."""
    data = _read_bytes(path)
    _check_utf8(data)  # UnicodeDecodeError, a ValueError, on a bad byte
    if b"\r" in data:  # the two-byte search is slow: skip it when there is no CR
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    buf = np.frombuffer(data, dtype=np.uint8)
    # line i spans buf[starts[i]:ends[i]]; empty lines are dropped, and
    # lineno keeps the number of each line left
    ends = np.append(np.flatnonzero(buf == 10), len(buf))
    starts = np.r_[0, ends[:-1] + 1]
    lineno = np.flatnonzero(ends > starts)
    starts, ends = starts[lineno], ends[lineno]
    lineno += 1
    # each line's id ends at its first tab, if it has one
    tabs = np.append(np.flatnonzero(buf == 9), len(buf))
    id_ends = np.minimum(tabs[np.searchsorted(tabs, starts)], ends)
    # an empty id has a tab, so one pass over the lines with a tab, in
    # order, finds the first bad line
    tabbed = np.flatnonzero(id_ends < ends)
    fields = (a[tabbed].tolist() for a in (lineno, starts, id_ends, ends))
    quantities = []
    for n, start, tab, end in zip(*fields):
        if tab == start:
            raise SerializationError(f"line {n}: empty item id")
        dtext = data[tab + 1:end].decode("utf-8")
        try:
            d = int(dtext) if dtext else 1
        except ValueError:
            raise SerializationError(
                f"line {n}: quantity {dtext!r} is not an integer")
        if not -2**63 <= d < 2**63:
            raise SerializationError(
                f"line {n}: quantity {dtext!r} is outside int64")
        quantities.append(d)
    ds = np.ones(len(starts), dtype=np.int64)
    ds[tabbed] = quantities
    return hashing.fold_spans(buf, starts, id_ends - starts), ds


def _write_sketch(sk, path: str, binary: bool) -> None:
    if binary:
        data = serialize.pack(sk)
        if path == "-":
            sys.stdout.buffer.write(data)
        else:
            with open(path, "wb") as fh:
                fh.write(data)
    else:
        text = serialize.dumps(sk) + "\n"
        if path == "-":
            sys.stdout.write(text)
        else:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)


def _cmd_sketch(args) -> int:
    sk = _make_sketch(args)
    keys, ds = _read_elements(args.input)
    sk.add_batch(keys, ds)
    _write_sketch(sk, args.out, args.binary)
    return EXIT_OK


def _cmd_merge(args) -> int:
    sketches = [serialize.load_any(_read_bytes(p)) for p in args.sketches]
    merged = state.merge(*sketches)
    _write_sketch(merged, args.out, args.binary)
    return EXIT_OK


def _cmd_estimate(args) -> int:
    sk = serialize.load_any(_read_bytes(args.sketch))
    if args.median:
        if type_of(sk).name != "projection":
            raise SerializationError("--median applies to projection sketches only")
        doc = {"c_hat": sk.median_estimate(), "estimator": "projection-median",
               "m": sk.m}
    else:
        doc = dataclasses.asdict(sk.estimate(args.level))
    sys.stdout.write(json_dumps(doc, indent=2, sort_keys=True) + "\n")
    return EXIT_OK


def _cmd_simulate(args) -> int:
    from .experiment import ExperimentConfig, run_experiment
    raw = _read_json(args.config, "config")
    try:
        cfg = ExperimentConfig.from_dict(raw)
    except (TypeError, ValueError) as exc:
        raise SerializationError(f"bad experiment config: {exc}")
    report = run_experiment(cfg)
    text = report.to_json(canonical=args.canonical)
    if args.out_json:
        with open(args.out_json, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")
    if args.out_csv:
        with open(args.out_csv, "w", encoding="utf-8") as fh:
            fh.write(report.to_csv())
    return EXIT_OK


def _cmd_analyze(args) -> int:
    from .inference import (are_bernoulli, chernoff_bounds, optimal_lambda, psi_infinity,
                            required_m, sketch_storage_bits)
    grid = _read_json(args.grid, "grid")
    if not isinstance(grid, dict):
        raise SerializationError("grid must be a JSON object")
    out = {"optimal_lambda": optimal_lambda()}
    try:
        if "lambda" in grid:
            out["are_bernoulli"] = {repr(l): are_bernoulli(l) for l in grid["lambda"]}
        if "q" in grid:
            out["psi_infinity"] = {repr(q): psi_infinity(q) for q in grid["q"]}
        if "epsilon" in grid:
            m = grid.get("m", [256])
            if not m:
                raise ValueError("m must list at least one value")
            if len(m) > 1:
                raise ValueError(f"m must list one value, got {m!r}")
            bounds = {repr(e): chernoff_bounds(e, m[0]) for e in grid["epsilon"]}
            out["chernoff"] = {e: {"c1": b.c1, "c2": b.c2, "upper": b.upper, "lower": b.lower}
                               for e, b in bounds.items()}
            if "delta" in grid:
                out["required_m"] = {
                    f"({e},{d})": required_m(e, d)
                    for e in grid["epsilon"] for d in grid["delta"]
                }
                if "c" in grid and "q" in grid:
                    out["storage_bits"] = {
                        f"({e},{d},c={c},q={q})": sketch_storage_bits(e, d, c, q)[1]
                        for e in grid["epsilon"] for d in grid["delta"]
                        for c in grid["c"] for q in grid["q"]
                    }
    except (TypeError, ValueError, OverflowError) as exc:  # psi_infinity's bound
        raise SerializationError(f"bad grid values: {exc}")
    sys.stdout.write(json_dumps(out, indent=2, sort_keys=True) + "\n")
    return EXIT_OK


def _cmd_equivalence(args) -> int:
    from .projection import coupled_residuals
    from .streams import generate_stream
    alphas = [float(a) for a in args.alphas.split(",") if a]
    if not alphas:
        raise SerializationError("--alphas must list at least one value")
    out = {"c": args.c, "m": args.m, "seed": args.seed, "runs": {}}
    stream = generate_stream(args.c, seed=args.seed)
    for alpha in alphas:
        run = coupled_residuals(stream.keys, args.m, alpha, seed=args.seed)
        out["runs"][repr(alpha)] = {
            "median_abs_residual": float(np.median(np.abs(run.residuals))),
            "max_abs_residual": float(np.max(np.abs(run.residuals))),
            "sandwich_ok": bool(run.sandwich_ok),
            "sandwich_low_violation": run.sandwich_low,
            "sandwich_high_violation": run.sandwich_high,
            "ratio_log_min": float(run.ratio_log.min()),
            "ratio_log_max": float(run.ratio_log.max()),
            "ratio_log_bound": alpha * float(np.log(run.total_weight)),
        }
    sys.stdout.write(json_dumps(out, indent=2, sort_keys=True) + "\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="cardsketch",
                                 description="streaming cardinality sketches")
    sub = ap.add_subparsers(dest="command", required=True)

    sk = sub.add_parser("sketch", help="build a sketch from a text stream")
    sk.add_argument("--type", required=True, choices=tuple(TYPES))
    sk.add_argument("--m", type=int, required=True)
    sk.add_argument("--seed", type=int, default=0)
    sk.add_argument("--q", type=float, default=None)
    sk.add_argument("--p", type=float, default=None)
    sk.add_argument("--alpha", type=float, default=0.05)
    sk.add_argument("--k", type=int, default=3)
    sk.add_argument("--in", dest="input", default="-",
                    help="element file, one '<item>[TAB<d>]' per line; - for stdin")
    sk.add_argument("--out", default="-")
    sk.add_argument("--binary", action="store_true")
    sk.set_defaults(func=_cmd_sketch)

    mg = sub.add_parser("merge", help="merge serialized sketches")
    mg.add_argument("sketches", nargs="+")
    mg.add_argument("--out", default="-")
    mg.add_argument("--binary", action="store_true")
    mg.set_defaults(func=_cmd_merge)

    es = sub.add_parser("estimate", help="estimate cardinality from a sketch")
    es.add_argument("sketch")
    es.add_argument("--level", type=float, default=0.95)
    es.add_argument("--median", action="store_true",
                    help="median estimator (projection sketches)")
    es.set_defaults(func=_cmd_estimate)

    si = sub.add_parser("simulate", help="run a replicated experiment")
    si.add_argument("--config", required=True)
    si.add_argument("--out-json", default=None)
    si.add_argument("--out-csv", default=None)
    si.add_argument("--canonical", action="store_true",
                    help="omit wall-clock fields so reruns are byte-identical")
    si.set_defaults(func=_cmd_simulate)

    an = sub.add_parser("analyze", help="closed-form constants for a grid")
    an.add_argument("--grid", required=True)
    an.set_defaults(func=_cmd_analyze)

    eq = sub.add_parser("equivalence",
                        help="coupled maximal-term / projection residuals")
    eq.add_argument("--c", type=int, required=True)
    eq.add_argument("--m", type=int, required=True)
    eq.add_argument("--alphas", required=True,
                    help="comma-separated stability indices")
    eq.add_argument("--seed", type=int, default=0)
    eq.set_defaults(func=_cmd_equivalence)
    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser: parsing leaves it as it was."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    # SerializationError, StreamIntegrityError and UnicodeDecodeError are
    # ValueErrors; every other SketchError is a numeric failure
    except (IncompatibleSketchError, UnsupportedDeletionError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except SketchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
