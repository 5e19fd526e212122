"""A fresh interpreter loads only the modules its caller uses: the package
resolves its public names on first use, the CLI imports a one-command
module inside that command, and the stable median needs no
numpy.polynomial."""

import importlib
import json
import os
import subprocess
import sys
import textwrap

import pytest

import cardsketch

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")

PROJECTION_MODULES = ["cardsketch", "cardsketch.errors", "cardsketch.estimate",
                      "cardsketch.hashing", "cardsketch.projection", "cardsketch.state"]


def _fresh(code: str, *args) -> dict:
    """Run code in a new interpreter with src/ on the path; it ends by
    printing one JSON document, returned here."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [SRC] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    code = "import json, sys\n" + textwrap.dedent(code) + textwrap.dedent("""
        print(json.dumps({
            "cardsketch": sorted(m for m in sys.modules if m.split(".")[0] == "cardsketch"),
            "polynomial": sorted(m for m in sys.modules if m.startswith("numpy.polynomial")),
            **globals().get("extra", {}),
        }))
    """)
    proc = subprocess.run([sys.executable, "-c", code, *map(str, args)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_bare_import_loads_no_submodule():
    assert _fresh("import cardsketch")["cardsketch"] == ["cardsketch"]


def test_a_submodule_loads_when_read_as_an_attribute():
    out = _fresh("""
        import cardsketch as cs
        extra = {"interval": list(cs.estimate.gamma_pivot_interval(1.0, 128, 0.95))}
    """)
    assert out["cardsketch"] == ["cardsketch", "cardsketch.errors", "cardsketch.estimate"]
    assert len(out["interval"]) == 2


def test_projection_user_loads_five_modules():
    out = _fresh("""
        import numpy as np
        import cardsketch as cs
        keys = np.arange(2000, dtype=np.uint64)
        a, b = cs.ProjectionSketch(17, 0.05, seed=3), cs.ProjectionSketch(17, 0.05, seed=3)
        a.add_batch(keys[:1000])
        b.add_batch(keys[1000:], np.full(1000, 2))
        b.add_batch(["x", "y"], [1, -1])
        merged = a.merge(b)
        extra = {"c_hat": merged.estimate().c_hat, "median": merged.median_estimate()}
    """)
    assert out["cardsketch"] == PROJECTION_MODULES
    assert out["polynomial"] == []
    assert 500 < out["c_hat"] < 8000 and 500 < out["median"] < 8000


def test_stable_median_loads_no_numpy_polynomial():
    out = _fresh("""
        from cardsketch.projection import stable_median_log
        extra = {"median": stable_median_log(0.05)}
    """)
    assert out["polynomial"] == []
    assert out["median"] == pytest.approx(6.741029314351114, rel=1e-13)


def test_cli_sketch_merge_estimate_load_no_experiment_or_streams(tmp_path):
    for part in range(2):
        (tmp_path / f"{part}.txt").write_text("".join(f"id-{i}\n" for i in range(part * 500,
                                                                                 part * 500 + 800)))
    out = _fresh("""
        import contextlib, io, os
        from cardsketch.cli import main
        work = sys.argv[1]
        path = lambda name: os.path.join(work, name)
        with contextlib.redirect_stdout(io.StringIO()):
            for kind, binary in (("projection", []), ("hll", ["--binary"]), ("kth", [])):
                for part in range(2):
                    assert main(["sketch", "--type", kind, "--m", "32", *binary,
                                 "--in", path(f"{part}.txt"), "--out", path(f"{kind}-{part}")]) == 0
                assert main(["merge", path(f"{kind}-0"), path(f"{kind}-1"), *binary,
                             "--out", path(kind)]) == 0
                assert main(["estimate", path(kind)]) == 0
            assert main(["estimate", "--median", path("projection")]) == 0
    """, tmp_path)
    assert "cardsketch.experiment" not in out["cardsketch"]
    assert "cardsketch.streams" not in out["cardsketch"]


def test_public_names_resolve_to_their_defining_modules():
    assert len(set(cardsketch.__all__)) == len(cardsketch.__all__) == 47
    assert cardsketch.__all__ == sorted(cardsketch.__all__)
    for name in cardsketch.__all__:
        home = importlib.import_module(f"cardsketch.{cardsketch._HOME[name]}")
        value = getattr(cardsketch, name)
        assert value is getattr(home, name), name
        assert getattr(value, "__module__", home.__name__) == home.__name__, name
    assert set(cardsketch.__all__) <= set(dir(cardsketch))
    namespace = {}
    exec("from cardsketch import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(cardsketch.__all__)


@pytest.mark.parametrize("name", ["no_such_name", "_HIDDEN", "__wrapped__"])
def test_unknown_names_raise_attribute_error(name):
    with pytest.raises(AttributeError, match=f"has no attribute '{name}'"):
        getattr(cardsketch, name)
    assert not hasattr(cardsketch, name)
