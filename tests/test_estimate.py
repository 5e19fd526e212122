"""Interval quantiles, and the import cost of the package."""

import subprocess
import sys

import pytest
from scipy import stats

from cardsketch.estimate import gamma_pivot_interval, normal_interval


@pytest.mark.parametrize("m", [1, 2, 17, 128, 4096])
@pytest.mark.parametrize("level", [0.5, 0.9, 0.95, 0.999])
def test_quantiles_equal_scipy_stats(m, level):
    s = 3.25
    lo, hi = gamma_pivot_interval(s, m, level)
    assert lo == float(stats.gamma.ppf((1 - level) / 2, m)) / s
    assert hi == float(stats.gamma.ppf((1 + level) / 2, m)) / s
    z = float(stats.norm.ppf((1 + level) / 2))
    assert normal_interval(100.0, 7.5, level) == (max(0.0, 100.0 - z * 7.5), 100.0 + z * 7.5)


def test_import_does_not_load_scipy_stats():
    code = "import sys, cardsketch.cli; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"
