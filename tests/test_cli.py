"""End-to-end CLI: build, merge, estimate, simulate, analyze, equivalence."""

import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from cardsketch.cli import main
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
