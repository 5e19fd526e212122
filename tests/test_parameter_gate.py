"""One gate for m and the sketch parameters: the constructor.  The
experiment runner, in either mode, and every ``sampling.sample_*`` refuse
an out-of-range value with the constructor's ValueError before they draw
or hash anything."""

import json
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

from cardsketch import sampling
from cardsketch.experiment import (ALGOS, ExperimentConfig, _algo_salt, _params, _rep_rng,
                                   run_experiment)
from cardsketch.sketch_types import TYPES
from cardsketch.streams import generate_stream

C = 1000

# (algorithm, m, config fields, one-row sampler call)
REFUSED = [
    ("max-geom", 16, {"q": 1.0}, lambda rng: sampling.sample_geometric(C, 16, 1.0, rng)),
    ("kth", 16, {"k": 0}, lambda rng: sampling.sample_kth(C, 0, 16, rng)),
    ("bernoulli", 16, {"p": 1.5}, lambda rng: sampling.sample_bernoulli(C, 16, 1.5, rng)),
    ("projection", 16, {"alpha": 0.0},
     lambda rng: sampling.sample_projection(C, 16, 0.0, rng)),
    ("median", 16, {"alpha": 1.0}, lambda rng: sampling.sample_projection(C, 16, 1.0, rng)),
    ("loglog", 100, {}, lambda rng: sampling.sample_loglog(C, 100, rng)),
    ("hll", 100, {}, lambda rng: sampling.sample_hll(C, 100, rng)),
    ("mincount", 100, {}, lambda rng: sampling.sample_mincount(C, 100, rng)),
]


def _refusal(call) -> str:
    with pytest.raises(ValueError) as info:
        call()
    return str(info.value)


@pytest.mark.parametrize("algo, m, fields, sample", REFUSED, ids=[r[0] for r in REFUSED])
def test_every_entry_refuses_with_the_constructors_message(algo, m, fields, sample):
    t = TYPES["projection" if algo == "median" else algo]
    params = _params(t, ExperimentConfig(c=C, m=m, **fields))
    message = _refusal(lambda: t.build(m, 0, params))
    for method in ("sampled", "hash"):
        cfg = ExperimentConfig(c=C, m=m, algos=("max-uniform", algo), replicates=2,
                               method=method, **fields)
        assert _refusal(lambda: run_experiment(cfg)) == message, method
    rng = np.random.default_rng(7)
    before = rng.bit_generator.state
    assert _refusal(lambda: sample(rng)) == message
    assert rng.bit_generator.state == before


def test_sampled_kth_refuses_a_k_past_u16_before_the_too_few_items_check():
    cfg = ExperimentConfig(c=10, m=8, algos=("kth",), k=2**16, method="sampled")
    with pytest.raises(ValueError, match=re.escape("k must lie in [1, 2**16), got 65536")):
        run_experiment(cfg)


@pytest.mark.parametrize("fields, message", [
    ({"k": 0}, "k must lie in [1, 2**16), got 0"),
    ({"p": 1.5}, "p must lie strictly inside (0,1)"),
])
def test_cli_simulate_refuses_a_bad_parameter_with_exit_3(tmp_path, fields, message):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"c": C, "m": 16, "algos": list(ALGOS), "replicates": 2,
                                  "method": "sampled", **fields}))
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    proc = subprocess.run([sys.executable, "-m", "cardsketch.cli", "simulate",
                           "--config", str(config)], capture_output=True, env=env)
    assert proc.returncode == 3
    assert proc.stderr.decode() == f"error: {message}\n"
    assert proc.stdout == b""


def test_hash_report_state_bytes_are_the_built_sketches():
    cfg = ExperimentConfig(c=300, m=16, algos=tuple(TYPES), replicates=1, seed=5,
                           method="hash", q=0.5, k=5)
    summary = run_experiment(cfg).summary
    rng = _rep_rng(cfg.seed, 0)
    stream = generate_stream(cfg.c, seed=int(rng.integers(0, 2**63)))
    for name, t in TYPES.items():
        sk = t.build(cfg.m, _algo_salt(cfg.seed, 0, name), _params(t, cfg))
        sk.add_batch(stream.keys, stream.d)
        assert summary[name]["failed"] == 0, name
        assert summary[name]["state_bytes"] == sk.state_bytes(), name


SAMPLERS = {
    "continuous": lambda c, rng: sampling.sample_continuous(c, 16, rng),
    "geometric": lambda c, rng: sampling.sample_geometric(c, 16, 0.5, rng),
    "kth": lambda c, rng: sampling.sample_kth(c, 3, 16, rng),
    "bernoulli": lambda c, rng: sampling.sample_bernoulli(c, 16, 0.05, rng),
    "projection": lambda c, rng: sampling.sample_projection(c, 16, 0.05, rng),
    "loglog": lambda c, rng: sampling.sample_loglog(c, 16, rng),
    "hll": lambda c, rng: sampling.sample_hll(c, 16, rng),
    "mincount": lambda c, rng: sampling.sample_mincount(c, 16, rng),
}


@pytest.mark.parametrize("name", sorted(SAMPLERS))
@pytest.mark.parametrize("c", [0, -1, 0.0, -2.5, float("nan"), float("inf"), None, "5"])
def test_samplers_refuse_a_bad_c_before_drawing(name, c):
    rng = np.random.default_rng(11)
    before = rng.bit_generator.state
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as info:
            SAMPLERS[name](c, rng)
    assert str(info.value) == f"c must be a finite number > 0, got {c!r}"
    assert rng.bit_generator.state == before
