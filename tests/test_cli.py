"""End-to-end CLI: build, merge, estimate, simulate, analyze, equivalence."""

import io
import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from cardsketch import cli
from cardsketch.cli import main
from cardsketch.hashing import keys_array
from cardsketch.inference import chernoff_bounds
from cardsketch.order_sketch import GeometricMaxSketch
from cardsketch.serialize import dumps


def _run(args, stdin_text=None):
    proc = subprocess.run(
        [sys.executable, "-m", "cardsketch.cli", *args],
        input=stdin_text.encode() if stdin_text is not None else None,
        capture_output=True,
    )
    return proc


def _stream_text(n, start=0):
    return "".join(f"item-{i}\n" for i in range(start, start + n))


def _text_reader_oracle(data: bytes):
    """(keys, quantities) as the element reader gave them when it read a
    UTF-8 text stream with universal newlines, line by line."""
    items, ds = [], []
    for line in io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"):
        line = line.rstrip("\n")
        if line:
            item, _, dtext = line.partition("\t")
            items.append(item)
            ds.append(int(dtext) if dtext else 1)
    return keys_array(items).tolist(), ds


_READER_CASES = {
    "lf": b"a\nb\t3\nc\n",
    "crlf": b"a\r\nb\t3\r\nc\r\n",
    "lone cr": b"a\rb\t3\rc\r",
    "mixed": b"a\r\nb\t3\rc\nd\r\r\ne\n\rf",
    "blank lines": b"\n\na\n\r\n\rb\n\n",
    "bom": b"\xef\xbb\xbfa\nb\n",
    "no final newline": b"a\nb\t2",
    "tab quantities": "a\t-3\nb\t+4\nc\t0\nd\t 7 \ne\t1_000\nf\t٣\n".encode(),
    "non-ascii ids": "café\t2\nsí\nnaïve\r€-1\t-1\r\n😀\n".encode(),
    "empty": b"",
    "only line ends": b"\n\r\n\r\n\n",
    "tab in a last line without LF": b"a\t2\r\nb\t",
    "two tabs on one line": b"a\t\t3\nb\t4\t\nc\n",
}


@pytest.mark.parametrize("case", sorted(_READER_CASES))
def test_reader_matches_the_text_reader(case, tmp_path, monkeypatch):
    data = _READER_CASES[case]
    want = _text_reader_oracle(data)
    path = tmp_path / "in.txt"
    path.write_bytes(data)
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data), encoding="latin-1"))
    for source in (str(path), "-"):
        items, ds = cli._read_elements(source)
        assert (keys_array(items).tolist(), ds.tolist()) == want


# (input, sketch type, stderr) for input the reader refuses, exit 3; the
# line-by-line reader gave these messages.  The first bad line in file
# order wins, and blank lines, CRLF and a lone CR each count as a line.
_DATA_ERRORS = [
    (b"a\tx\n\n\t5\n", "hll", "line 1: quantity 'x' is not an integer"),
    (b"a\n\t5\nb\tx\n", "hll", "line 2: empty item id"),
    (b"\tx\n", "hll", "line 1: empty item id"),
    (b"ok\n\t\n", "hll", "line 2: empty item id"),
    (b"a\nb\t99999999999999999999\n\tx\n", "hll",
     "line 2: quantity '99999999999999999999' is outside int64"),
    (b"x\t-9223372036854775809\r\t1\r", "hll",
     "line 1: quantity '-9223372036854775809' is outside int64"),
    (b"a\r\n\r\n\rb\r\t3\n", "hll", "line 5: empty item id"),
    (b"\r\r\nx\t1.5\n", "hll", "line 3: quantity '1.5' is not an integer"),
    (b"\n\r\n\ra\t2\rb\tnine\r\n\tx", "hll", "line 5: quantity 'nine' is not an integer"),
    (b"\n\n\n\tx", "hll", "line 4: empty item id"),
    ("é\t٣x\r\n".encode(), "hll", "line 1: quantity '٣x' is not an integer"),
    (b"a\t1\nb\t-1\n", "max-uniform", "ContinuousMaxSketch cannot delete; got a quantity <= 0"),
    (b"\tx\n\xff\n", "hll",
     "'utf-8' codec can't decode byte 0xff in position 3: invalid start byte"),
]


@pytest.mark.parametrize("data,kind,message", _DATA_ERRORS)
def test_reader_reports_the_first_bad_line(data, kind, message, tmp_path, monkeypatch, capsys):
    path = tmp_path / "in.txt"
    path.write_bytes(data)
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data), encoding="latin-1"))
    for source in (str(path), "-"):
        assert main(["sketch", "--type", kind, "--m", "16", "--in", source]) == 3
        out, err = capsys.readouterr()
        assert (out, err) == ("", f"error: {message}\n")


def test_invalid_utf8_is_data_error(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"ok\n\xff\n")
    for p in (_run(["sketch", "--type", "hll", "--m", "16", "--in", str(path)]),
              subprocess.run([sys.executable, "-m", "cardsketch.cli", "sketch", "--type",
                              "hll", "--m", "16"], input=path.read_bytes(), capture_output=True)):
        assert p.returncode == 3
        assert b"Traceback" not in p.stderr


class TestSketchEstimate:
    def test_stdin_to_estimate(self, tmp_path):
        sk_file = tmp_path / "s.json"
        p = _run(["sketch", "--type", "max-uniform", "--m", "64", "--seed", "1",
                  "--out", str(sk_file)], stdin_text=_stream_text(500))
        assert p.returncode == 0, p.stderr
        p = _run(["estimate", str(sk_file)])
        assert p.returncode == 0, p.stderr
        doc = json.loads(p.stdout)
        assert doc["estimator"] == "max-uniform"
        assert 200 < doc["c_hat"] < 1200
        assert doc["ci"][0] <= doc["c_hat"] <= doc["ci"][1]

    def test_tab_quantities_and_dup_insensitivity(self, tmp_path):
        text = "a\t3\nb\nb\na\t2\n"
        f1 = tmp_path / "a.json"
        p = _run(["sketch", "--type", "max-geom", "--m", "8", "--q", "0.5",
                  "--out", str(f1)], stdin_text=text)
        assert p.returncode == 0, p.stderr
        f2 = tmp_path / "b.json"
        p = _run(["sketch", "--type", "max-geom", "--m", "8", "--q", "0.5",
                  "--out", str(f2)], stdin_text="a\nb\n")
        assert p.returncode == 0
        assert (f1.read_text() == f2.read_text())

    def test_projection_with_deletions(self, tmp_path):
        text = "a\nb\nc\t2\ngone\t1\ngone\t-1\n"
        f = tmp_path / "p.json"
        p = _run(["sketch", "--type", "projection", "--m", "9", "--alpha", "0.25",
                  "--seed", "3", "--out", str(f)], stdin_text=text)
        assert p.returncode == 0, p.stderr
        p = _run(["estimate", str(f)])
        assert p.returncode == 0
        p = _run(["estimate", str(f), "--median"])
        assert p.returncode == 0
        assert json.loads(p.stdout)["estimator"] == "projection-median"

    def test_max_sketch_rejects_deletion(self):
        p = _run(["sketch", "--type", "max-uniform", "--m", "8"],
                 stdin_text="a\t-1\n")
        assert p.returncode == 3

    def test_bad_quantity_is_data_error(self):
        p = _run(["sketch", "--type", "max-uniform", "--m", "8"],
                 stdin_text="a\tx\n")
        assert p.returncode == 3

    def test_quantity_outside_int64_is_data_error(self):
        for q in ("99999999999999999999", str(2**63), str(-2**63 - 1)):
            p = _run(["sketch", "--type", "hll", "--m", "16"],
                     stdin_text=f"a\nb\t{q}\n")
            assert p.returncode == 3
            assert b"line 2" in p.stderr and b"Traceback" not in p.stderr

    def test_stdin_reads_like_in(self, tmp_path):
        # CRLF line ends and a non-UTF-8 locale encoding must not change
        # what stdin yields against the same file given with --in
        crlf = tmp_path / "crlf.txt"
        crlf.write_bytes("é-1\r\nß\t2\r\n€\r\nplain\r\n".encode())
        lf = tmp_path / "lf.txt"
        lf.write_bytes(crlf.read_bytes().replace(b"\r\n", b"\n"))
        args = ["sketch", "--type", "hll", "--m", "64"]
        via_in = _run([*args, "--in", str(crlf)])
        assert via_in.returncode == 0, via_in.stderr
        assert via_in.stdout == _run([*args, "--in", str(lf)]).stdout
        for encoding in (None, "latin-1"):
            env = dict(os.environ)
            env.pop("PYTHONIOENCODING", None)
            if encoding:
                env["PYTHONIOENCODING"] = encoding
            via_stdin = subprocess.run(
                [sys.executable, "-m", "cardsketch.cli", *args],
                input=crlf.read_bytes(), capture_output=True, env=env)
            assert via_stdin.returncode == 0, via_stdin.stderr
            assert via_stdin.stdout == via_in.stdout

    def test_usage_error_is_2(self):
        p = _run(["sketch", "--type", "bogus", "--m", "8"], stdin_text="")
        assert p.returncode == 2

    def test_estimate_empty_sketch_is_numeric_error(self, tmp_path):
        f = tmp_path / "e.json"
        p = _run(["sketch", "--type", "max-uniform", "--m", "4", "--out", str(f)],
                 stdin_text="")
        assert p.returncode == 0
        p = _run(["estimate", str(f)])
        assert p.returncode == 4

    def test_estimate_out_of_range_geometric_is_numeric_error(self, tmp_path):
        # a slot whose q**y underflows: exit 4 with no RuntimeWarning
        f = tmp_path / "g.json"
        sk = GeometricMaxSketch.from_state(
            8, 0, np.array([1] * 7 + [2000], dtype=np.uint32), 0.5)
        f.write_text(dumps(sk))
        p = _run(["estimate", str(f)])
        assert p.returncode == 4
        assert b"Warning" not in p.stderr, p.stderr


class TestMergePipeline:
    def test_binary_merge_matches_single_pass(self, tmp_path):
        a, b, whole = (tmp_path / n for n in ("a.bin", "b.bin", "w.bin"))
        for path, text in ((a, _stream_text(300)), (b, _stream_text(300, start=150)),
                           (whole, _stream_text(450))):
            p = _run(["sketch", "--type", "hll", "--m", "32", "--seed", "5",
                      "--binary", "--out", str(path)], stdin_text=text)
            assert p.returncode == 0, p.stderr
        merged = tmp_path / "m.bin"
        p = _run(["merge", str(a), str(b), "--binary", "--out", str(merged)])
        assert p.returncode == 0, p.stderr
        assert merged.read_bytes() == whole.read_bytes()

    def test_mixed_format_merge(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.bin"
        _run(["sketch", "--type", "max-uniform", "--m", "16", "--seed", "2",
              "--out", str(a)], stdin_text=_stream_text(100))
        _run(["sketch", "--type", "max-uniform", "--m", "16", "--seed", "2",
              "--binary", "--out", str(b)], stdin_text=_stream_text(100, start=50))
        p = _run(["merge", str(a), str(b)])
        assert p.returncode == 0, p.stderr

    def test_incompatible_merge_is_data_error(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        _run(["sketch", "--type", "max-uniform", "--m", "16", "--seed", "1",
              "--out", str(a)], stdin_text="x\n")
        _run(["sketch", "--type", "max-uniform", "--m", "16", "--seed", "2",
              "--out", str(b)], stdin_text="x\n")
        p = _run(["merge", str(a), str(b)])
        assert p.returncode == 3

    def test_garbage_file_is_data_error(self, tmp_path):
        f = tmp_path / "g.bin"
        f.write_bytes(b"garbage")
        p = _run(["estimate", str(f)])
        assert p.returncode == 3


class TestSimulate:
    def test_simulate_writes_json_and_csv(self, tmp_path):
        cfg = {"c": 400, "m": 16, "algos": ["max-uniform", "hll"],
               "replicates": 3, "seed": 4, "method": "hash"}
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(cfg))
        out_json = tmp_path / "rep.json"
        out_csv = tmp_path / "rep.csv"
        p = _run(["simulate", "--config", str(cfg_file),
                  "--out-json", str(out_json), "--out-csv", str(out_csv)])
        assert p.returncode == 0, p.stderr
        doc = json.loads(out_json.read_text())
        assert doc["exact_c"] == 400
        assert doc["summary"]["hll"]["replicates"] == 3
        assert out_csv.read_text().startswith("algo,")

    def test_canonical_rerun_byte_identical(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(
            {"c": 200, "m": 16, "algos": ["max-uniform"], "replicates": 1,
             "seed": 6, "method": "hash"}))
        p1 = _run(["simulate", "--config", str(cfg_file), "--canonical"])
        p2 = _run(["simulate", "--config", str(cfg_file), "--canonical"])
        assert p1.returncode == 0 and p2.returncode == 0
        assert p1.stdout == p2.stdout

    def test_bad_config_is_data_error(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"c": 10, "m": 4, "bogus": True}))
        p = _run(["simulate", "--config", str(cfg_file)])
        assert p.returncode == 3


class TestAnalyze:
    def test_constants_table(self, tmp_path):
        grid = {"lambda": [1.594], "q": [0.5], "epsilon": [0.1],
                "delta": [0.05], "c": [100000], "m": [256]}
        f = tmp_path / "grid.json"
        f.write_text(json.dumps(grid))
        p = _run(["analyze", "--grid", str(f)])
        assert p.returncode == 0, p.stderr
        doc = json.loads(p.stdout)
        assert abs(doc["optimal_lambda"] - 1.594) < 1e-3
        assert abs(doc["psi_infinity"]["0.5"] - 0.9304) < 1e-4
        assert abs(doc["chernoff"]["0.1"]["c1"] - 2.272) < 1e-3
        bounds = chernoff_bounds(0.1, 256)
        assert doc["chernoff"]["0.1"] == {"c1": bounds.c1, "c2": bounds.c2,
                                          "upper": bounds.upper, "lower": bounds.lower}
        assert doc["required_m"]["(0.1,0.05)"] >= 1
        assert list(doc["storage_bits"].values())[0] > 0


class TestEquivalence:
    def test_residual_report(self):
        p = _run(["equivalence", "--c", "500", "--m", "16",
                  "--alphas", "0.2,0.1", "--seed", "3"])
        assert p.returncode == 0, p.stderr
        doc = json.loads(p.stdout)
        runs = doc["runs"]
        assert runs["0.2"]["sandwich_ok"] and runs["0.1"]["sandwich_ok"]
        assert runs["0.1"]["median_abs_residual"] < runs["0.2"]["median_abs_residual"]


@pytest.mark.parametrize("kind", ["loglog", "hll", "mincount"])
def test_insert_only_baselines_reject_deletions(kind, tmp_path):
    # live set {a, b}; the negative quantities used to be dropped silently
    src = tmp_path / "elements.txt"
    src.write_text("a\nb\nc\t-1\nd\t-5\n")
    out = tmp_path / "s.json"
    argv = ["sketch", "--type", kind, "--m", "16", "--in", str(src), "--out", str(out)]
    assert main(argv) == 3
    assert not out.exists()


def test_main_callable_in_process(capsys, tmp_path):
    # the console entry point returns exit codes rather than raising
    grid = tmp_path / "g.json"
    grid.write_text(json.dumps({"q": [0.5]}))
    assert main(["analyze", "--grid", str(grid)]) == 0
    assert main(["analyze", "--grid", str(tmp_path / "missing.json")]) == 3


def test_stdin_stays_open_in_process(monkeypatch, tmp_path):
    raw = io.BytesIO(b"a\r\nb\r\n")
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(raw, encoding="latin-1"))
    out = tmp_path / "s.json"
    assert main(["sketch", "--type", "hll", "--m", "16", "--out", str(out)]) == 0
    assert not raw.closed
    lf = tmp_path / "lf.txt"
    lf.write_text("a\nb\n", encoding="utf-8")
    again = tmp_path / "t.json"
    assert main(["sketch", "--type", "hll", "--m", "16", "--in", str(lf),
                 "--out", str(again)]) == 0
    assert out.read_text() == again.read_text()


def test_parser_is_built_once(monkeypatch, tmp_path):
    # main reuses the process's parser; parsing leaves it unchanged
    cli._parser()
    monkeypatch.setattr(cli, "build_parser", lambda: pytest.fail("parser rebuilt"))
    grid = tmp_path / "g.json"
    grid.write_text(json.dumps({"q": [0.5]}))
    assert main(["analyze", "--grid", str(grid)]) == 0
    with pytest.raises(SystemExit) as exc:
        main(["sketch", "--type", "nope", "--m", "4"])
    assert exc.value.code == 2
    assert main(["analyze", "--grid", str(grid)]) == 0


def _decode_error(data: bytes):
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        return str(exc)
    return None


def test_bad_byte_beyond_the_first_utf8_slice(tmp_path, capsys):
    data = b"ok\n" * cli._UTF8_SLICE + "café\n".encode() + b"\xff\n"
    path = tmp_path / "in.txt"
    path.write_bytes(data)
    assert main(["sketch", "--type", "hll", "--m", "16", "--in", str(path)]) == 3
    out, err = capsys.readouterr()
    at = 3 * cli._UTF8_SLICE + 6
    message = f"'utf-8' codec can't decode byte 0xff in position {at}: invalid start byte"
    assert message == _decode_error(data)
    assert (out, err) == ("", f"error: {message}\n")


@pytest.mark.parametrize("char", ["é", "€", "😀"])
def test_character_split_across_utf8_slices(char, tmp_path):
    encoded = char.encode()
    for shift in range(len(encoded) + 1):
        data = b"x" * (cli._UTF8_SLICE - shift) + encoded + b"\t2\nafter\n"
        path = tmp_path / "in.txt"
        path.write_bytes(data)
        keys, ds = cli._read_elements(str(path))
        assert (keys.tolist(), ds.tolist()) == _text_reader_oracle(data), shift


def test_sliced_utf8_check_raises_what_the_whole_decode_raises(monkeypatch):
    # every cut of short inputs mixing valid characters, stray continuation
    # bytes, truncated and overlong sequences and surrogates
    pieces = [b"a", b"\n", "é".encode(), "€".encode(), "😀".encode(), b"\x80", b"\xff",
              b"\xc3", b"\xe2\x82", b"\xf0\x9f\x98", b"\xed\xa0\x80", b"\xc0\xaf",
              b"\xf4\x90\x80\x80", b"\xbf\xbf\xbf\xbf"]
    rng = np.random.default_rng(5)
    for _ in range(1500):
        data = b"".join(pieces[i] for i in rng.integers(0, len(pieces), rng.integers(1, 12)))
        want = _decode_error(data)
        for size in range(4, 10):
            monkeypatch.setattr(cli, "_UTF8_SLICE", size)
            try:
                cli._check_utf8(data)
                got = None
            except UnicodeDecodeError as exc:
                got = str(exc)
            assert got == want, (data, size)


def test_utf8_check_holds_one_slice_of_text():
    # 5.1 MB, whose whole decode peaks at 29 MiB
    data = "ünïcødé-€-😀-ид\n".encode() * (3 << 16)
    tracemalloc.start()
    try:
        cli._check_utf8(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * cli._UTF8_SLICE


def test_estimate_refuses_a_bad_level_on_a_saturated_bernoulli_sketch(tmp_path, capsys):
    ids, f = tmp_path / "ids.txt", tmp_path / "saturated.json"
    ids.write_text(_stream_text(500))
    assert main(["sketch", "--type", "bernoulli", "--m", "16", "--p", "0.9", "--in", str(ids),
                 "--out", str(f)]) == 0
    capsys.readouterr()
    assert main(["estimate", str(f), "--level", "1"]) == 3
    out, err = capsys.readouterr()
    assert (out, err) == ("", "error: confidence level must lie in (0,1), got 1.0\n")
    p = _run(["estimate", str(f), "--level", "1"])
    assert p.returncode == 3 and b"Traceback" not in p.stderr, p.stderr
