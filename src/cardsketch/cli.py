"""Command-line interface.

Subcommands: sketch (build from a text stream), merge, estimate,
simulate (replicated experiments), analyze (closed-form constants) and
equivalence (coupled maximal-term / projection diagnostics).

Exit codes: 0 ok, 2 usage, 3 data or format error, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import io
import json
import sys

import numpy as np

from . import serialize
from .errors import (
    DegenerateSketchError,
    EmptySketchError,
    EstimationNumericError,
    IncompatibleSketchError,
    InsufficientDataError,
    SaturatedSketchError,
    SerializationError,
    SketchError,
    StreamIntegrityError,
    UnsupportedDeletionError,
)
from .experiment import ExperimentConfig, run_experiment
from .inference import (
    are_bernoulli,
    chernoff_bounds,
    optimal_lambda,
    psi_infinity,
    required_m,
    sketch_storage_bits,
)
from .order_sketch import merge as merge_sketches
from .projection import ProjectionSketch, coupled_residuals
from .serialize import json_dumps
from .sketch_types import TYPES

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

_DATA_ERRORS = (SerializationError, IncompatibleSketchError, StreamIntegrityError,
                UnsupportedDeletionError, UnicodeDecodeError, OSError)
_NUMERIC_ERRORS = (EmptySketchError, DegenerateSketchError, SaturatedSketchError,
                   InsufficientDataError, EstimationNumericError)


def _make_sketch(args) -> object:
    t = TYPES[args.type]
    params = {}
    for name in t.param_names:
        params[name] = getattr(args, name)
        if params[name] is None:
            raise SerializationError(f"--{name} is required for {t.name}")
    return t.build(args.m, args.seed, params)


def _read_elements(path: str):
    """One element per line: <item_id>[<TAB><d>], missing d = 1; UTF-8 with
    universal newlines, from a file or from stdin alike."""
    if path == "-":
        # detached, not closed, afterwards: main() may run again in-process
        fh = io.TextIOWrapper(sys.stdin.buffer, encoding="utf-8")
        done = fh.detach
    else:
        fh = open(path, "r", encoding="utf-8")
        done = fh.close
    items, ds = [], []
    try:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if not line:
                continue
            item, _, dtext = line.partition("\t")
            if not item:
                raise SerializationError(f"line {lineno}: empty item id")
            try:
                d = int(dtext) if dtext else 1
            except ValueError:
                raise SerializationError(
                    f"line {lineno}: quantity {dtext!r} is not an integer")
            if not -2**63 <= d < 2**63:
                raise SerializationError(
                    f"line {lineno}: quantity {dtext!r} is outside int64")
            items.append(item)
            ds.append(d)
    finally:
        done()
    return items, np.array(ds, dtype=np.int64)


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


def _read_sketch(path: str):
    if path == "-":
        return serialize.load_any(sys.stdin.buffer.read())
    with open(path, "rb") as fh:
        return serialize.load_any(fh.read())


def _cmd_sketch(args) -> int:
    sk = _make_sketch(args)
    items, ds = _read_elements(args.input)
    sk.add_batch(items, ds)
    _write_sketch(sk, args.out, args.binary)
    return EXIT_OK


def _cmd_merge(args) -> int:
    sketches = [_read_sketch(p) for p in args.sketches]
    merged = merge_sketches(*sketches)
    _write_sketch(merged, args.out, args.binary)
    return EXIT_OK


def _cmd_estimate(args) -> int:
    sk = _read_sketch(args.sketch)
    if args.median:
        if not isinstance(sk, ProjectionSketch):
            raise SerializationError("--median applies to projection sketches only")
        doc = {"c_hat": sk.median_estimate(), "estimator": "projection-median",
               "m": sk.m}
    else:
        doc = sk.estimate(args.level).to_dict()
    sys.stdout.write(json_dumps(doc, indent=2, sort_keys=True) + "\n")
    return EXIT_OK


def _cmd_simulate(args) -> int:
    with open(args.config, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SerializationError(f"config is not valid JSON: {exc}")
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
    with open(args.grid, "r", encoding="utf-8") as fh:
        try:
            grid = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SerializationError(f"grid is not valid JSON: {exc}")
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
    except (TypeError, ValueError) as exc:
        raise SerializationError(f"bad grid values: {exc}")
    sys.stdout.write(json_dumps(out, indent=2, sort_keys=True) + "\n")
    return EXIT_OK


def _cmd_equivalence(args) -> int:
    from .streams import generate_stream
    alphas = [float(a) for a in args.alphas.split(",") if a]
    if not alphas:
        raise SerializationError("--alphas must list at least one value")
    out = {"c": args.c, "m": args.m, "seed": args.seed, "runs": {}}
    for alpha in alphas:
        stream = generate_stream(args.c, seed=args.seed)
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


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _NUMERIC_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except _DATA_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except SketchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
