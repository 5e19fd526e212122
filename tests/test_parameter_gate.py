"""One gate for m and the sketch parameters: the constructor.  The
experiment runner, in either mode, and every ``sampling.sample_*`` refuse
an out-of-range value with the constructor's ValueError before they draw
or hash anything."""

import json
import math
import os
import re
import struct
import subprocess
import sys
import warnings

import numpy as np
import pytest

from cardsketch import hashing, order_sketch, sampling, serialize
from cardsketch.cli import main
from cardsketch.errors import SaturatedSketchError, SerializationError
from cardsketch.experiment import (ALGOS, ExperimentConfig, _algo_salt, _params, _rep_rng,
                                   run_experiment)
from cardsketch.inference import psi_infinity
from cardsketch.order_sketch import GeometricMaxSketch, KthOrderSketch
from cardsketch.projection import ProjectionSketch, coupled_residuals
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


# -- parameters whose arithmetic leaves double range ----------------------

# (type, parameter, refused values, the largest first, and accepted values,
# the smallest first): q is refused where psi_infinity's q**-2 overflows,
# alpha where two hashed variates' logs lie more than DBL_MAX apart
RANGE_BOUNDS = [
    ("max-geom", "q", [7.4583407312000825e-155, 1e-155, 1e-160, 5e-324],
     [7.458340731200083e-155, 1e-150]),
    ("projection", "alpha", [2.2825768173359714e-307, 1e-308, 1e-310, 5e-324],
     [2.2825768173359718e-307, 1e-300]),
]
_GATE_IDS = [f"id-{i}" for i in range(300)]


def _gate_cli(capsys, *args) -> tuple:
    """The CLI's exit code, stdout and stderr for args."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(list(args))
    out, err = capsys.readouterr()
    assert "Traceback" not in err
    return code, out, err


def test_the_bounds_are_where_the_arithmetic_leaves_double_range():
    (_, _, (q_out, *_), (q_in, _)), (_, _, (a_out, *_), (a_in, _)) = RANGE_BOUNDS
    assert math.nextafter(q_in, 0.0) == q_out and math.nextafter(a_in, 0.0) == a_out
    with pytest.raises(OverflowError):
        psi_infinity(q_out)
    assert math.isfinite(psi_infinity(q_in))
    # the extreme hashed uniforms u and Exponential(1) draws w
    u = np.array([2.0**-54, 0.5, 1.0 - 2.0**-53])
    w_low, w_high = np.full(3, 2.0**-54), np.full(3, 53 * math.log(2.0))
    with np.errstate(over="ignore", under="ignore"):
        for alpha, finite in ((a_in, True), (a_out, False)):
            top = hashing.stable_log_variate(u, w_low, alpha).max()
            bottom = hashing.stable_log_variate(u, w_high, alpha).min()
            assert math.isfinite(top) and math.isfinite(bottom)
            assert math.isfinite(bottom - top) is finite


@pytest.mark.parametrize("name, param, refused, accepted", RANGE_BOUNDS,
                         ids=[b[0] for b in RANGE_BOUNDS])
def test_out_of_range_parameters_are_refused_on_every_path(tmp_path, capsys, name, param,
                                                           refused, accepted):
    ids = tmp_path / "ids.txt"
    ids.write_text("\n".join(_GATE_IDS) + "\n")
    t = TYPES[name]
    good = t.build(16, 3, {param: accepted[0]})
    good.add_batch(_GATE_IDS)
    doc = json.loads(serialize.dumps(good))
    frame = serialize.pack(good)
    packed = struct.pack("<d", accepted[0])
    assert frame.count(packed) == 1
    for value in refused:
        with pytest.raises(ValueError, match=f"{param} must lie"):
            t.build(16, 3, {param: value})
        bad_json = json.dumps({**doc, "params": {param: repr(value)}})
        bad_frame = frame.replace(packed, struct.pack("<d", value))
        for decode, data in ((serialize.loads, bad_json), (serialize.unpack, bad_frame)):
            with pytest.raises(SerializationError, match=f"{param} must lie"):
                decode(data)
        out = tmp_path / "not-written.json"
        code, _, err = _gate_cli(capsys, "sketch", "--type", name, "--m", "16",
                                 f"--{param}", repr(value), "--in", str(ids), "--out", str(out))
        assert code == 3 and f"{param} must lie" in err
        assert not out.exists()
        for suffix, data in (("json", bad_json.encode()), ("bin", bad_frame)):
            path = tmp_path / f"doc.{suffix}"
            path.write_bytes(data)
            code, _, err = _gate_cli(capsys, "estimate", str(path))
            assert code == 3 and f"{param} must lie" in err


@pytest.mark.parametrize("name, param, refused, accepted", RANGE_BOUNDS,
                         ids=[b[0] for b in RANGE_BOUNDS])
def test_in_range_parameters_round_trip_and_estimate(tmp_path, capsys, name, param,
                                                     refused, accepted):
    ids = tmp_path / "ids.txt"
    ids.write_text("\n".join(_GATE_IDS) + "\n")
    t = TYPES[name]
    for value in accepted:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sk = t.build(16, 3, {param: value})
            sk.add_batch(_GATE_IDS)
            est = sk.estimate()
            for back in (serialize.loads(serialize.dumps(sk)),
                         serialize.unpack(serialize.pack(sk))):
                assert getattr(back, param) == value
                for a, b in zip(back.state_arrays(), sk.state_arrays()):
                    np.testing.assert_array_equal(a, b)
                assert back.estimate() == est
        assert math.isfinite(est.c_hat) and est.c_hat > 0
        out = tmp_path / "sketch.bin"
        assert _gate_cli(capsys, "sketch", "--type", name, "--m", "16", "--seed", "3",
                         f"--{param}", repr(value), "--in", str(ids), "--out", str(out),
                         "--binary")[0] == 0
        code, text, _ = _gate_cli(capsys, "estimate", str(out))
        assert code == 0 and json.loads(text)["c_hat"] == est.c_hat
        if name == "projection":
            code, text, _ = _gate_cli(capsys, "estimate", "--median", str(out))
            assert code == 0 and json.loads(text)["c_hat"] == sk.median_estimate()


# -- counts past what a sampler's arithmetic takes ------------------------

def test_sampled_projection_past_double_range_is_saturated(tmp_path, capsys):
    # at the smallest alpha log(c) / alpha overflows once c passes about
    # 6.6e17: each such row is a typed error, with no RuntimeWarning, that
    # fails the replicate, not a ValueError from the state check that
    # stops the run
    alpha = RANGE_BOUNDS[1][3][0]
    fields = {"c": 10**20, "m": 16, "algos": ["max-uniform", "projection", "median"],
              "replicates": 4, "alpha": alpha, "method": "sampled"}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SaturatedSketchError, match="double range"):
            sampling.sample_projection(1e20, 16, alpha, np.random.default_rng(5))
        summary = run_experiment(ExperimentConfig(**fields)).summary
    assert (summary["max-uniform"]["replicates"], summary["max-uniform"]["failed"]) == (4, 0)
    for algo in ("projection", "median"):
        assert (summary[algo]["replicates"], summary[algo]["failed"]) == (0, 4), algo
    config = tmp_path / "config.json"
    config.write_text(json.dumps(fields))
    code, out, _ = _gate_cli(capsys, "simulate", "--config", str(config))
    assert code == 0
    for algo, entry in json.loads(out)["summary"].items():
        assert entry["failed"] == summary[algo]["failed"], algo


@pytest.mark.parametrize("algo", ["loglog", "hll", "mincount"])
def test_bucket_samplers_refuse_a_c_past_the_multinomial_count(tmp_path, capsys, algo):
    # numpy's multinomial takes a signed 64-bit count
    sample = SAMPLERS[algo]
    message = f"c must be at most {2**63 - 1} for this sampler, got {10**20}"
    rng = np.random.default_rng(13)
    before = rng.bit_generator.state
    for c in (2**63, 10**20):
        with pytest.raises(ValueError, match="c must be at most"):
            sample(c, rng)
    assert _refusal(lambda: sample(10**20, rng)) == message
    assert rng.bit_generator.state == before
    sample(2**63 - 1, rng)
    fields = {"c": 10**20, "m": 16, "algos": ["max-uniform", algo], "replicates": 2,
              "method": "sampled"}
    assert _refusal(lambda: run_experiment(ExperimentConfig(**fields))) == message
    config = tmp_path / "config.json"
    config.write_text(json.dumps(fields))
    code, out, err = _gate_cli(capsys, "simulate", "--config", str(config))
    assert (code, out, err) == (3, "", f"error: {message}\n")


# -- entries that compute without building a sketch ----------------------

_Y = np.linspace(0.2, 0.8, 8)  # k-th values, or uniforms by their logs
_SLOTS = np.array([1, 2, 2, 3, 4, 2, 3, 5])

# (function, its call at a parameter value, the constructor that gates
# that parameter, refused values)
ONE_ROW = [
    ("kth_root_estimate", lambda k: order_sketch.kth_root_estimate(_Y, k),
     lambda k: KthOrderSketch(8, k), [0, -1, 2**16]),
    ("kth_closed_form", lambda k: order_sketch.kth_closed_form(_Y, k),
     lambda k: KthOrderSketch(8, k), [0, -1, 2**16]),
    ("geometric_slots", lambda q: order_sketch.geometric_slots(np.log(_Y), q),
     lambda q: GeometricMaxSketch(8, q), [1.5, 1.0, 0.0, -1.0, math.nan, 1e-160]),
    ("solve_geometric_mle", lambda q: order_sketch.solve_geometric_mle(_SLOTS, q),
     lambda q: GeometricMaxSketch(8, q), [1.0, 0.0, -1.0, 1.5, math.nan, 1e-160]),
]


@pytest.mark.parametrize("name, call, build, refused", ONE_ROW, ids=[r[0] for r in ONE_ROW])
def test_one_row_functions_refuse_with_the_constructors_message(name, call, build, refused):
    for value in refused:
        message = _refusal(lambda: build(value))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _refusal(lambda: call(value)) == message, value


def test_one_row_functions_take_the_constructors_extreme_values():
    assert order_sketch.kth_closed_form(_Y, 2**16 - 1) > 2**16 - 1
    assert order_sketch.kth_root_estimate(_Y, 2**16 - 1) > 2**16 - 2
    for q in (RANGE_BOUNDS[0][3][0], 1.0 - 2.0**-26):
        assert (order_sketch.geometric_slots(np.log(_Y), q) >= 1).all()


# (m, alpha, seed) that ProjectionSketch refuses
COUPLED_REFUSED = [(0, 0.05, 0), (-1, 0.05, 0), (2**32, 0.05, 0), (8, 0.0, 0), (8, 1.0, 0),
                   (8, 1.5, 0), (8, -0.5, 0), (8, math.nan, 0), (8, 1e-310, 0),
                   (8, 0.05, -1), (8, 0.05, 2**64)]


@pytest.mark.parametrize("m, alpha, seed", COUPLED_REFUSED)
def test_coupled_residuals_refuses_what_the_projection_constructor_refuses(m, alpha, seed):
    message = _refusal(lambda: ProjectionSketch(m, alpha, seed))
    # the quantities are refused only after the gate: a deletion here would
    # otherwise raise UnsupportedDeletionError, which is no ValueError
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _refusal(lambda: coupled_residuals(["a", "b"], m, alpha, seed, d=[1, -1])) \
            == message


@pytest.mark.parametrize("args", [["--alphas", "0"], ["--alphas", "1"], ["--alphas", "1.5"],
                                  ["--alphas", "-0.5"], ["--alphas", "nan"],
                                  ["--alphas", "1e-310"], ["--alphas", "0.05,0"],
                                  ["--m", "0"], ["--seed", "-1"]])
def test_cli_equivalence_refuses_a_bad_parameter_with_exit_3(capsys, args):
    options = {"--c": "50", "--m": "8", "--alphas": "0.05", "--seed": "0"}
    options.update(zip(args[::2], args[1::2]))
    alpha = float(options["--alphas"].split(",")[-1])
    message = _refusal(lambda: ProjectionSketch(int(options["--m"]), alpha,
                                                int(options["--seed"])))
    code, out, err = _gate_cli(capsys, "equivalence", *(w for kv in options.items() for w in kv))
    assert (code, out, err) == (3, "", f"error: {message}\n")


# -- simulate configs with a field of the wrong type ---------------------

BAD_FIELDS = [
    ({"c": 10.5, "method": "hash"}, "c must be an integer in hash mode, got 10.5"),
    ({"c": 10.5}, "c must be an integer in hash mode, got 10.5"),  # auto picks hash
    ({"c": 100.0, "method": "hash"}, "c must be an integer in hash mode, got 100.0"),
    ({"c": True}, "c must be a number, got True"),
    ({"c": "100"}, "c must be a number, got '100'"),
    ({"m": 4.5}, "m must be an integer, got 4.5"),
    ({"m": True}, "m must be an integer, got True"),
    ({"replicates": 2.5}, "replicates must be an integer, got 2.5"),
    ({"seed": 1.5}, "seed must be an integer, got 1.5"),
    ({"deleted_extra": 1.5}, "deleted_extra must be an integer, got 1.5"),
    ({"repeats": 1.5}, "repeats must be an integer, got 1.5"),
    ({"k": 2.5}, "k must be an integer, got 2.5"),
    ({"k": False}, "k must be an integer, got False"),
    ({"level": "0.9"}, "level must be a number, got '0.9'"),
    ({"q": "0.5"}, "q must be a number, got '0.5'"),
    ({"p": "0.1"}, "p must be a number, got '0.1'"),
    ({"alpha": "0.05"}, "alpha must be a number, got '0.05'"),
    ({"alpha": [0.05]}, "alpha must be a number, got [0.05]"),
    ({"heavy_tail": "no"}, "heavy_tail must be true or false, got 'no'"),
    ({"heavy_tail": 1}, "heavy_tail must be true or false, got 1"),
    ({"algos": "max-uniform"}, "algos must be a list of algorithm names, got 'max-uniform'"),
]


@pytest.mark.parametrize("fields, message", BAD_FIELDS, ids=[str(f) for f, _ in BAD_FIELDS])
def test_configs_with_a_field_of_the_wrong_type_are_refused(tmp_path, capsys, fields, message):
    doc = {"c": 100, "m": 8, "algos": list(ALGOS), "replicates": 2, **fields}
    assert _refusal(lambda: ExperimentConfig.from_dict(doc)) == message
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    code, out, err = _gate_cli(capsys, "simulate", "--config", str(config))
    assert (code, out, err) == (3, "", f"error: bad experiment config: {message}\n")


def test_configs_keep_a_real_c_in_sampled_mode_and_numpy_integers():
    for c in (10.5, 1e20):
        cfg = ExperimentConfig.from_dict({"c": c, "m": 8, "method": "sampled", "p": None})
        assert run_experiment(cfg).summary["max-uniform"]["replicates"] == 1
    cfg = ExperimentConfig(c=np.int64(100), m=np.int64(8), seed=np.uint64(3), q=np.float64(0.5))
    assert cfg.resolved_method() == "hash"


# -- analyze grids whose closed forms leave double range -----------------

# (grid text, exit code, the error message or the printed values it adds)
ANALYZE_GRIDS = [
    ('{"epsilon": [0.1], "m": []}', 3, "m must list at least one value"),
    ('{"q": [1e-320]}', 3, "q must lie at or above about 7.46e-155, got 1e-320"),
    ('{"q": [7.4583407312000825e-155]}', 3,
     "q must lie at or above about 7.46e-155, got 7.4583407312000825e-155"),
    ('{"lambda": [1e6]}', 0, {"are_bernoulli": {"1000000.0": 0.0}}),
    ('{"lambda": [710.0, 1e400]}', 0,
     {"are_bernoulli": {"710.0": 2.256495886362754e-303, "inf": 0.0}}),
    ('{"lambda": [NaN]}', 3, "lambda must be positive"),
    ('{"epsilon": [0.1], "delta": [1e-320]}', 3,
     "delta must lie at or above 2**-1022 (about 2.23e-308), got 1e-320"),
    ('{"epsilon": [0.1], "delta": [0.1], "c": [1e400], "q": [0.5]}', 3, "c must be finite, got inf"),
    ('{"epsilon": [0.1], "delta": [0.1], "c": [NaN], "q": [0.5]}', 3, "c must be >= 1"),
    ('{"epsilon": [1e-300], "delta": [0.5]}', 3,
     "epsilon must lie at or above 2**-26 (about 1.49e-08), got 1e-300"),
    ('{"epsilon": [0.1], "m": [NaN]}', 3, "m must be >= 1"),
    ('{"epsilon": [0.1], "m": [256, 512]}', 3, "m must list one value, got [256, 512]"),
]


@pytest.mark.parametrize("text, code, want", ANALYZE_GRIDS, ids=[g[0] for g in ANALYZE_GRIDS])
def test_cli_analyze_grids_print_finite_values_or_exit_3(tmp_path, capsys, text, code, want):
    grid = tmp_path / "grid.json"
    grid.write_text(text)
    got, out, err = _gate_cli(capsys, "analyze", "--grid", str(grid))
    if code:
        assert (got, out, err) == (3, "", f"error: bad grid values: {want}\n")
    else:
        assert (got, err) == (0, "")
        doc = json.loads(out)
        assert {k: doc[k] for k in want} == want


def test_configs_refuse_algos_as_bytes():
    # a str or bytes would be split into letters, each an unknown algorithm
    assert _refusal(lambda: ExperimentConfig(c=100, m=8, algos=b"hll")) == (
        "algos must be a list of algorithm names, got b'hll'")


@pytest.mark.parametrize("algos", [
    {"max-uniform", "hll"}, frozenset({"max-uniform", "hll"}), {"max-uniform": 1, "hll": 2},
    (a for a in ("max-uniform", "hll")),
], ids=["set", "frozenset", "dict", "generator"])
def test_configs_refuse_algos_that_are_not_a_list_or_tuple(algos):
    # the runner draws replicates type by type in the order of algos, so a
    # set would make the report's bytes depend on PYTHONHASHSEED
    message = _refusal(lambda: ExperimentConfig(c=100, m=8, algos=algos))
    assert message.startswith("algos must be a list of algorithm names, got ")
