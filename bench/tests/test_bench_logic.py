"""Tests of the benchmark's own logic: inputs, span arithmetic, tracing,
import-time parsing, the correctness band and the emitted metric names.
They run no workload.

    python3 -m pytest -q bench/tests
"""

import json
import sys
import types
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import inputs  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import ERROR, NAME, PARENT, Tracer, self_times  # noqa: E402

GENERATORS = {
    "bulk-ingest": inputs.bulk_inputs,
    "cli-text": inputs.cli_inputs,
    "turnstile": inputs.turnstile_inputs,
    "simulate": inputs.simulate_inputs,
}


def _flatten(obj):
    """A comparable form of an inputs object: arrays as bytes, recursively."""
    if isinstance(obj, np.ndarray):
        return (obj.dtype.str, obj.shape, obj.tobytes())
    if isinstance(obj, (list, tuple)):
        return [_flatten(x) for x in obj]
    if isinstance(obj, dict):
        return {k: _flatten(v) for k, v in obj.items()}
    if hasattr(obj, "__dataclass_fields__"):
        return {k: _flatten(v) for k, v in vars(obj).items()}
    return obj


@pytest.mark.parametrize("workload", sorted(GENERATORS))
def test_same_seed_same_inputs_other_seed_other_inputs(workload):
    make = GENERATORS[workload]
    assert _flatten(make(7)) == _flatten(make(7))
    assert _flatten(make(7)) != _flatten(make(8))


def test_turnstile_prefixes_are_valid_histories():
    for tenant in inputs.turnstile_inputs(3).tenants:
        for shard in tenant.shards:
            _, inverse = np.unique(shard.keys, return_inverse=True)
            running = np.zeros(inverse.max() + 1, dtype=np.int64)
            for key, d in zip(inverse.tolist(), shard.d.tolist()):
                running[key] += d
                assert running[key] >= 0
            lo, hi = shard.batches[0]
            assert np.all(shard.d[lo:hi] > 0)
            assert np.any(shard.d < 0)
            assert shard.final_count == int((running > 0).sum())


def test_live_counts_rejects_a_deletion_before_its_insertion():
    keys = np.array([5, 5], dtype=np.uint64)
    with pytest.raises(ValueError):
        inputs.live_counts(keys, np.array([-1, 1]), [1])
    assert inputs.live_counts(keys, np.array([2, -1]), [1, 2]) == [1, 1]


def _span(name, start, end, parent):
    return [name, start, end, parent, "job0", False]


def test_self_time_on_a_hand_built_tree():
    spans = [
        _span("root", 0.0, 10.0, -1),
        _span("a", 1.0, 4.0, 0),
        _span("a.leaf", 1.5, 2.0, 1),
        _span("a.leaf2", 2.5, 3.5, 1),
        _span("b", 5.0, 7.0, 0),
        _span("other", 20.0, 21.0, -1),
    ]
    assert self_times(spans) == pytest.approx([10.0 - 3.0 - 2.0, 3.0 - 0.5 - 1.0, 0.5, 1.0, 2.0, 1.0])


def test_tracer_records_spans_and_restores_originals(monkeypatch):
    pkg = types.ModuleType("fakepkg")
    inner = types.ModuleType("fakepkg.inner")
    user = types.ModuleType("fakepkg.user")

    def leaf(x):
        if x < 0:
            raise ValueError("negative")
        return x

    class Box:
        def work(self, x):
            return inner.leaf(x) + user.leaf(x)

    inner.leaf, inner.Box = leaf, Box
    user.leaf = leaf                  # bound by name, as `from .inner import leaf`
    for mod in (pkg, inner, user):
        monkeypatch.setitem(sys.modules, mod.__name__, mod)

    tracer = Tracer()
    skipped = tracer.install("fakepkg", [
        ("inner", "leaf", lambda a: "leaf", lambda t, a: t.count("calls"), None, True),
        ("inner", "Box.work", lambda a: "work", None, None, True),
        ("inner", "gone", lambda a: "gone", None, None, True),
    ])
    assert skipped == ["inner.gone"]
    tracer.job = "job0"
    assert Box().work(2) == 4
    with pytest.raises(ValueError):
        inner.leaf(-1)
    tracer.uninstall()
    assert inner.leaf is leaf and user.leaf is leaf and "work" in vars(Box)
    assert Box.work.__name__ == "work" and not hasattr(Box.work, "__wrapped__")

    names = [rec[NAME] for rec in tracer.spans]
    assert names == ["work", "leaf", "leaf", "leaf"]
    assert [rec[PARENT] for rec in tracer.spans] == [-1, 0, 0, -1]
    assert [rec[ERROR] for rec in tracer.spans] == [False, False, False, True]
    assert tracer.counts["calls", "job0"] == 3


IMPORTTIME = """\
import time: self [us] | cumulative | imported package
import time:       100 |        100 |     numpy._core
import time:        50 |        150 |   numpy
import time:        20 |         20 |       scipy.stats._a
import time:        30 |         70 |         scipy.stats._b.c
import time:        40 |        110 |       scipy.stats._b
import time:        10 |        140 |     mylib.estimate
import time:         5 |         25 |       numpy.linalg
import time:         5 |         30 |     mylib.other
import time:         5 |        325 |   mylib
"""


def test_import_cumulative_sums_outermost_submodules():
    assert run.import_cumulative(IMPORTTIME, "mylib") == 325
    assert run.import_cumulative(IMPORTTIME, "scipy.stats") == 20 + 110
    assert run.import_cumulative(IMPORTTIME, "numpy") == 150 + 25
    assert run.import_cumulative(IMPORTTIME, "absent") == 0


def test_close_is_symmetric_on_a_log_scale():
    se = 100.0 / 11.3          # a relative standard error of about 1/sqrt(128)
    assert workloads.close(100.0, se, 100.0)
    assert workloads.close(60.0, 0.6 * se, 100.0) and workloads.close(168.0, 1.68 * se, 100.0)
    assert not workloads.close(50.0, 0.5 * se, 100.0)
    assert not workloads.close(200.0, 2.0 * se, 100.0)
    assert not workloads.close(0.0, 0.0, 100.0)


class _FakeWorkload:
    """Stands in for a workload: calls nothing in the library."""

    setup_imports, setup_code = "pass", "pass"

    def lazy_init(self):
        pass

    def job(self, ledger):
        ledger.record(True)
        return 10, 0.001

    def checks(self, ledger):
        ledger.record(True)

    def sketch_bytes(self):
        return 64

    def update_calls(self):
        return [(lambda: None,)]

    def estimate_calls(self):
        return {"t": lambda: None}


def _declared(key):
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[key]}


def test_emitted_metrics_are_the_declared_ones(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "measure_setup", lambda wl: 1.0)
    monkeypatch.setattr(run, "run_child", lambda argv: types.SimpleNamespace(stderr=IMPORTTIME))
    _, values = run.measure(_FakeWorkload(), 0.0)
    assert set(values) == set(_declared("end_to_end"))
    _, values = run.measure_traced(_FakeWorkload(), 0.0, tmp_path / "spans.csv")
    assert set(values) == set(_declared("per_layer"))


def test_result_metrics_takes_units_from_benchmark_json():
    declared = _declared("end_to_end")
    values = {name: 1.0 for name in declared}
    out = run.result_metrics(values, traced=False)
    assert out == {name: {"value": 1.0, "unit": unit} for name, unit in declared.items()}
    with pytest.raises(KeyError):
        run.result_metrics({**values, "extra": 1.0}, traced=False)
    del values["job_s"]
    with pytest.raises(KeyError):
        run.result_metrics(values, traced=False)


def test_host_scaled_divides_each_sample_by_its_neighbouring_references():
    nominal = run.REFERENCE_S
    refs = [nominal, 3 * nominal, nominal, nominal]
    # host factors 2, 2 and 1: the middle sample is the median after scaling
    assert run.host_scaled([2.0, 4.0, 1.5], refs) == pytest.approx(1.5)


class _DriftingWorkload(_FakeWorkload):
    """A job whose checked outcome changes from one call to the next."""

    calls = 0

    def job(self, ledger):
        self.calls += 1
        for _ in range(1 + self.calls % 2):
            ledger.record(True)
        return 10, 0.001


def test_counts_come_from_one_job_and_repeats_must_match(monkeypatch):
    monkeypatch.setattr(run, "measure_setup", lambda wl: 1.0)
    steady, _ = run.measure(_FakeWorkload(), 0.0)
    assert (steady.attempted, steady.failed, steady.wrong) == (2, 0, 0)
    drifting, _ = run.measure(_DriftingWorkload(), 0.0)
    assert drifting.wrong > 0
