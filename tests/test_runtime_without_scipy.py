"""The runtime needs numpy and the standard library only: every CLI sketch
type, a sampled experiment with its pivot KS test, and the projection
sketch's median run in an interpreter where importing scipy fails."""

import subprocess
import sys

_SCRIPT = r'''
import sys
sys.modules["scipy"] = None  # from here on, any scipy import raises ImportError

import contextlib
import io
import json
import os

import numpy as np

from cardsketch.cli import main
from cardsketch.experiment import ExperimentConfig, run_experiment
from cardsketch.projection import ProjectionSketch, stable_median_log
from cardsketch.sketch_types import TYPES

work = sys.argv[1]
for half in (0, 1):
    with open(os.path.join(work, f"{half}.txt"), "w") as fh:
        fh.writelines(f"id-{i}\n" for i in range(1000 * half, 1000 * half + 2000))
for name in TYPES:
    shards = [os.path.join(work, f"{name}-{half}.json") for half in (0, 1)]
    for half, shard in enumerate(shards):
        assert main(["sketch", "--type", name, "--m", "64", "--q", "0.5", "--p", "0.0005",
                     "--in", os.path.join(work, f"{half}.txt"), "--out", shard]) == 0, name
    merged = os.path.join(work, f"{name}.json")
    assert main(["merge", *shards, "--out", merged]) == 0, name
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["estimate", merged]) == 0, name
    assert 1500 < json.loads(out.getvalue())["c_hat"] < 6000, name

cfg = ExperimentConfig(c=10**5, m=32, algos=("max-uniform", "kth", "projection", "median"),
                       replicates=12, seed=5, method="sampled")
summary = run_experiment(cfg).summary
assert not any(s["failed"] for s in summary.values())
assert 0.0 <= summary["max-uniform"]["pivot_ks_pvalue"] <= 1.0

assert 6.7 < stable_median_log(0.05) < 6.8
sk = ProjectionSketch(33, 0.05, seed=2)
sk.add_batch(np.arange(5000, dtype=np.uint64))
assert 2500 < sk.median_estimate() < 10000

print(sorted(k for k, v in sys.modules.items() if k.startswith("scipy") and v is not None))
'''


def test_runtime_paths_run_without_scipy(tmp_path):
    out = subprocess.run([sys.executable, "-c", _SCRIPT, str(tmp_path)],
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip().splitlines()[-1] == "[]"
