"""A fresh interpreter loads only the modules its caller uses: the package
resolves its public names on first use, the type table imports a sketch
family when a sketch of it is first built or decoded, the CLI imports a
one-command module inside that command, and the stable median needs no
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


CLI_MODULES = ["cardsketch", "cardsketch.cli", "cardsketch.errors", "cardsketch.hashing",
               "cardsketch.serialize", "cardsketch.sketch_types", "cardsketch.state"]

# the module of each sketch family and the types it holds
FAMILIES = {"baselines": ("loglog", "hll", "mincount"),
            "order_sketch": ("max-uniform", "max-exp", "max-geom", "kth", "bernoulli"),
            "projection": ("projection",)}


def test_cli_import_loads_no_sketch_family():
    out = _fresh("import cardsketch.cli")
    assert out["cardsketch"] == CLI_MODULES


def _cli_run(tmp_path, kind: str) -> list:
    """The modules a fresh interpreter holds after ``cardsketch`` sketch,
    merge and estimate of one type, in JSON and in binary."""
    for part in range(2):
        (tmp_path / f"{part}.txt").write_text("".join(f"id-{i}\n" for i in range(part * 500,
                                                                                 part * 500 + 800)))
    return _fresh("""
        import contextlib, io, json, os
        from cardsketch.cli import main
        work, kind = sys.argv[1], sys.argv[2]
        path = lambda name: os.path.join(work, name)
        c_hat = []
        for binary in ([], ["--binary"]):
            with contextlib.redirect_stdout(io.StringIO()) as out:
                for part in range(2):
                    assert main(["sketch", "--type", kind, "--m", "64", *binary,
                                 "--in", path(f"{part}.txt"), "--out", path(f"{part}")]) == 0
                assert main(["merge", path("0"), path("1"), *binary, "--out", path("all")]) == 0
                assert main(["estimate", path("all")]) == 0
            c_hat.append(json.loads(out.getvalue())["c_hat"])
        extra = {"c_hat": c_hat}
    """, tmp_path, kind)


def test_cli_hll_loads_only_baselines(tmp_path):
    out = _cli_run(tmp_path, "hll")
    assert out["cardsketch"] == sorted(CLI_MODULES + ["cardsketch.baselines",
                                                      "cardsketch.estimate"])
    assert len(out["c_hat"]) == 2 and all(1000 < c < 1700 for c in out["c_hat"])


def test_cli_max_uniform_loads_only_order_sketch(tmp_path):
    out = _cli_run(tmp_path, "max-uniform")
    assert out["cardsketch"] == sorted(CLI_MODULES + ["cardsketch.estimate",
                                                      "cardsketch.order_sketch"])
    assert len(out["c_hat"]) == 2 and all(600 < c < 2500 for c in out["c_hat"])


def test_max_geom_estimate_alone_loads_inference():
    out = _fresh("""
        from cardsketch.sketch_types import TYPES
        sk = TYPES["max-geom"].build(32, 1, {"q": 0.5})
        sk.add_batch(list(range(2000)))
        built = sorted(m for m in sys.modules if m.startswith("cardsketch"))
        sk.estimate()
        extra = {"built": built}
    """)
    assert "cardsketch.inference" not in out["built"]
    assert "cardsketch.inference" in out["cardsketch"]


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_decoding_a_fixture_loads_only_its_family(family):
    data = os.path.join(os.path.dirname(__file__), "data")
    out = _fresh("""
        import json, os
        from cardsketch import serialize
        data, names = sys.argv[1], sys.argv[2:]
        decoded = 0
        for fixtures in ("codec_fixtures.json", "codec_fixtures_v2.json"):
            with open(os.path.join(data, fixtures)) as fh:
                for doc in json.load(fh).values():
                    if json.loads(doc["json"])["type"] in names:
                        serialize.loads(doc["json"])
                        serialize.unpack(bytes.fromhex(doc["binary"]))
                        decoded += 1
        extra = {"decoded": decoded}
    """, data, *FAMILIES[family])
    assert out["decoded"] >= len(FAMILIES[family])
    assert out["cardsketch"] == sorted(["cardsketch", "cardsketch.errors", "cardsketch.estimate",
                                        "cardsketch.hashing", "cardsketch.serialize",
                                        "cardsketch.sketch_types", "cardsketch.state",
                                        f"cardsketch.{family}"])


def test_type_of_imports_nothing():
    out = _fresh("""
        from cardsketch.baselines import HyperLogLogSketch
        from cardsketch.errors import SerializationError
        from cardsketch.sketch_types import TYPES, type_of
        before = sorted(sys.modules)
        named = type_of(HyperLogLogSketch(16)).name
        try:
            type_of(object())
        except SerializationError:
            refused = True
        extra = {"named": named, "refused": refused, "same": sorted(sys.modules) == before,
                 "described": [t.name for t in TYPES.values() if t.describes(object())]}
    """)
    assert out["named"] == "hll" and out["refused"] and out["same"]
    assert out["described"] == []
    for module in ("order_sketch", "projection", "sampling", "inference"):
        assert f"cardsketch.{module}" not in out["cardsketch"]


def test_type_entries_resolve_once_per_process():
    from cardsketch import sampling
    from cardsketch.sketch_types import TYPES
    values = {"q": 0.5, "k": 2, "p": 0.1, "alpha": 0.05}
    for t in TYPES.values():
        cls, sampler = t.cls, t.sampler
        # kept on the entry: a second read resolves nothing
        assert vars(t)["cls"] is cls and vars(t)["sampler"] is sampler
        assert f"{t.cls.__module__}.{t.cls.__name__}" == f"cardsketch.{t.home}"
        assert t.sampler is getattr(sampling, t.steps)
        sk = t.build(16, 0, {n: values[n] for n in t.param_names})
        assert [u.name for u in TYPES.values() if u.describes(sk)] == [t.name]
