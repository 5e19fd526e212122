"""Interval quantiles, typed errors for estimates outside double range,
and the import cost of the package."""

import math
import subprocess
import sys
import time

import numpy as np
import pytest
from scipy import stats

from cardsketch import estimate, serialize
from cardsketch.baselines import MinCountSketch
from cardsketch.cli import main
from cardsketch.errors import DegenerateSketchError, EstimationNumericError
from cardsketch.estimate import Estimate, gamma_pivot_interval, normal_interval
from cardsketch.order_sketch import (
    BernoulliSketch,
    ContinuousMaxSketch,
    GeometricMaxSketch,
    KthOrderSketch,
)
from cardsketch.projection import ProjectionSketch


@pytest.mark.parametrize("m", [1, 2, 17, 128, 4096, 65535, 2**20])
@pytest.mark.parametrize("level", [0.5, 0.9, 0.95, 0.999])
def test_quantiles_equal_scipy_stats(m, level):
    # the package computes its own quantiles; scipy is the reference
    s = 3.25
    lo, hi = gamma_pivot_interval(s, m, level)
    assert lo == pytest.approx(float(stats.gamma.ppf((1 - level) / 2, m)) / s, rel=1e-12, abs=0)
    assert hi == pytest.approx(float(stats.gamma.ppf((1 + level) / 2, m)) / s, rel=1e-12, abs=0)
    z = float(stats.norm.ppf((1 + level) / 2))
    assert normal_interval(100.0, 7.5, level) == pytest.approx(
        (100.0 - z * 7.5, 100.0 + z * 7.5), rel=1e-15, abs=0)


@pytest.mark.parametrize("level", [0.5, 0.9, 0.95, 0.999])
def test_quantiles_at_the_largest_m_are_quick_and_bracket(level):
    m = 2**32 - 1
    estimate.gamma_quantile.cache_clear()
    t0 = time.perf_counter()
    lo, hi = gamma_pivot_interval(1.0, m, level)
    elapsed = time.perf_counter() - t0
    assert math.isfinite(lo) and math.isfinite(hi) and lo < m < hi
    assert elapsed < 0.01
    assert lo == pytest.approx(float(stats.gamma.ppf((1 - level) / 2, m)), rel=1e-12, abs=0)
    assert hi == pytest.approx(float(stats.gamma.ppf((1 + level) / 2, m)), rel=1e-12, abs=0)


def test_quantiles_are_cached():
    estimate.gamma_quantile.cache_clear()
    first = gamma_pivot_interval(2.0, 300, 0.9)
    assert estimate.gamma_quantile.cache_info().misses == 2
    assert gamma_pivot_interval(2.0, 300, 0.9) == first
    assert estimate.gamma_quantile.cache_info().hits == 2


def test_non_integer_m_is_refused():
    # the Poisson sum above x = m + 1 holds for integer m only
    with pytest.raises(ValueError):
        gamma_pivot_interval(1.0, 2.5, 0.95)


def test_import_does_not_load_scipy_stats():
    # no scipy module at all: the runtime is numpy and the standard library
    code = "import sys, cardsketch.cli; print(sorted(k for k in sys.modules if k.startswith('scipy')))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


# states at m = 8 that both decoders accept but whose estimate leaves double
# range, with the estimators each must fail in
_M = 8
_OUT_OF_RANGE = {
    "max-geom slots at 2**32-1": (lambda: GeometricMaxSketch.from_state(
        _M, 0, np.full(_M, 2**32 - 1, dtype=np.uint32), 0.5),
        ("estimate", "recursive_estimate")),
    "projection log-magnitudes 1e300": (lambda: ProjectionSketch.from_state(
        _M, 0, np.ones(_M, dtype=np.int8), np.full(_M, 1e300), 0.05),
        ("estimate", "median_estimate")),
    "projection log-magnitudes -1e300": (lambda: ProjectionSketch.from_state(
        _M, 0, np.ones(_M, dtype=np.int8), np.full(_M, -1e300), 0.05),
        ("estimate", "median_estimate")),
    "kth rows at 1": (lambda: KthOrderSketch.from_state(_M, 0, np.ones((_M, 3)), 3),
                      ("estimate",)),
    "bernoulli p 5e-324": (lambda: BernoulliSketch.from_state(
        _M, 0, np.eye(1, _M, dtype=np.uint8)[0], 5e-324), ("estimate",)),
    "max-uniform slots -5e-324": (lambda: ContinuousMaxSketch.from_state(
        _M, 0, np.full(_M, -5e-324)), ("estimate",)),
    "max-uniform slots -1e308": (lambda: ContinuousMaxSketch.from_state(
        _M, 0, np.full(_M, -1e308)), ("estimate",)),
    "mincount values 5e-324": (lambda: MinCountSketch.from_state(
        _M, 0, np.full((_M, 3), 5e-324)), ("estimate",)),
}


@pytest.mark.parametrize("name", list(_OUT_OF_RANGE))
def test_estimate_outside_double_range_is_a_typed_error(name, tmp_path, capsys):
    build, methods = _OUT_OF_RANGE[name]
    sk = build()
    for method in methods:
        with pytest.raises((DegenerateSketchError, EstimationNumericError)):
            getattr(sk, method)()
    (tmp_path / "sk.json").write_text(serialize.dumps(sk))
    (tmp_path / "sk.bin").write_bytes(serialize.pack(sk))
    flags = ([], ["--median"]) if "median_estimate" in methods else ([],)
    for path in (tmp_path / "sk.json", tmp_path / "sk.bin"):
        for extra in flags:
            capsys.readouterr()
            assert main(["estimate", str(path), *extra]) == 4
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("c_hat, se, ci", [
    (math.inf, 1.0, (0.0, math.inf)),
    (1.0, math.inf, (0.0, 2.0)),
    (1.0, 0.5, (0.0, math.nan)),
    (3.0, 0.5, (0.0, 2.0)),
])
def test_estimate_refuses_non_finite_or_unbracketed_values(c_hat, se, ci):
    with pytest.raises(EstimationNumericError):
        Estimate(c_hat, se, ci, 0.95, "test", 8)
