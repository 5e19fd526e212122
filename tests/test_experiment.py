"""Experiment harness: determinism, report structure, both build methods."""

import json
import math

import numpy as np
import pytest
from scipy import stats

from cardsketch.experiment import ALGOS, ExperimentConfig, ks_gamma, run_experiment


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(c=0, m=8)
    with pytest.raises(ValueError):
        ExperimentConfig(c=10, m=8, algos=("nope",))
    with pytest.raises(ValueError):
        ExperimentConfig(c=10, m=8, method="nope")
    with pytest.raises(ValueError):
        ExperimentConfig.from_dict({"c": 10, "m": 8, "bogus": 1})


def test_auto_method_switches_on_cost():
    small = ExperimentConfig(c=100, m=8, replicates=2)
    big = ExperimentConfig(c=10**6, m=1024, replicates=500)
    assert small.resolved_method() == "hash"
    assert big.resolved_method() == "sampled"


def test_hash_report_structure_and_coverage():
    cfg = ExperimentConfig(
        c=500, m=32, algos=("max-uniform", "max-geom", "projection", "median", "hll"),
        replicates=4, seed=7, method="hash")
    rep = run_experiment(cfg)
    assert rep.method == "hash"
    assert rep.exact_c == 500
    for algo in cfg.algos:
        s = rep.summary[algo]
        assert s["replicates"] == 4
        assert s["mean_pct_error"] is not None
        assert s["state_bytes"] > 0
        assert len(rep.replicates[algo]["c_hat"]) == 4
    assert "max-uniform/hll" in rep.variance_ratios


def test_sampled_report_runs_all_algos():
    cfg = ExperimentConfig(
        c=5000, m=64, algos=ALGOS, replicates=10, seed=3, method="sampled")
    rep = run_experiment(cfg)
    for algo in ALGOS:
        assert rep.summary[algo]["replicates"] == 10
        assert rep.summary[algo]["mean_pct_error"] < 100.0


def test_fixed_seed_reports_byte_identical():
    cfg = ExperimentConfig(c=300, m=16, algos=("max-uniform", "projection"),
                           replicates=1, seed=11, method="hash")
    a = run_experiment(cfg).to_json(canonical=True)
    b = run_experiment(cfg).to_json(canonical=True)
    assert a == b
    doc = json.loads(a)
    assert "wall_s" not in next(iter(doc["summary"].values()))


def test_seed_changes_results():
    base = ExperimentConfig(c=300, m=16, algos=("max-uniform",), replicates=2,
                            seed=1, method="hash")
    other = ExperimentConfig(c=300, m=16, algos=("max-uniform",), replicates=2,
                             seed=2, method="hash")
    a = run_experiment(base)
    b = run_experiment(other)
    assert a.replicates["max-uniform"]["c_hat"] != b.replicates["max-uniform"]["c_hat"]


def test_projection_and_median_share_state():
    cfg = ExperimentConfig(c=2000, m=33, algos=("projection", "median"),
                           replicates=3, seed=5, method="sampled", alpha=0.05)
    rep = run_experiment(cfg)
    assert rep.summary["median"]["replicates"] == 3


def test_csv_export_shape():
    cfg = ExperimentConfig(c=200, m=16, algos=("max-uniform", "hll"),
                           replicates=3, seed=9, method="hash")
    rep = run_experiment(cfg)
    lines = rep.to_csv().strip().split("\n")
    assert lines[0] == "algo,replicate,c_hat,pct_error,ci_lo,ci_hi,covered"
    assert len(lines) == 1 + 2 * 3


def test_pivot_ks_reported_for_pivot_algos():
    cfg = ExperimentConfig(c=1000, m=32, algos=("max-uniform", "projection"),
                           replicates=20, seed=13, method="sampled", alpha=0.02)
    rep = run_experiment(cfg)
    assert "pivot_ks_pvalue" in rep.summary["max-uniform"]
    assert "pivot_ks_pvalue" in rep.summary["projection"]
    pivots = rep.replicates["max-uniform"]["pivot"]
    assert (rep.summary["max-uniform"]["pivot_ks_stat"],
            rep.summary["max-uniform"]["pivot_ks_pvalue"]) == ks_gamma(pivots, 32)


@pytest.mark.parametrize("n", [8, 50, 200, 1000])
@pytest.mark.parametrize("m, scale", [(1, 1.0), (17, 1.0), (128, 1.0), (128, 1.02)])
def test_ks_matches_scipy_kstest(n, m, scale):
    # scipy is the reference: the same statistic, and a p-value from the
    # exact distribution where scipy may take an asymptotic one
    x = scale * np.random.default_rng(n + m).gamma(m, size=n)
    d, p = ks_gamma(x, m)
    ref = stats.kstest(x, "gamma", args=(m,))
    assert abs(d - ref.statistic) <= 1e-14
    assert p == pytest.approx(ref.pvalue, rel=1e-5, abs=0)


def test_hash_mode_baselines_reject_deletions():
    # every stream carries 200 insert/delete pairs the baselines cannot undo
    cfg = ExperimentConfig(c=300, m=16, algos=("loglog", "hll", "mincount"),
                           replicates=2, seed=3, method="hash", deleted_extra=200)
    rep = run_experiment(cfg)
    assert rep.exact_c == 300
    for algo in cfg.algos:
        assert rep.summary[algo]["failed"] == 2
        assert rep.summary[algo]["replicates"] == 0


def test_median_rows_carry_no_interval():
    cfg = ExperimentConfig(c=2000, m=32, algos=("projection", "median"),
                           replicates=3, seed=5, method="sampled")
    rep = run_experiment(cfg)
    doc = json.loads(rep.to_json())
    median = doc["replicates"]["median"]
    assert median["ci_lo"] == median["ci_hi"] == median["covered"] == [None] * 3
    assert doc["summary"]["median"]["coverage"] is None
    proj = doc["replicates"]["projection"]
    assert all(lo < hi for lo, hi in zip(proj["ci_lo"], proj["ci_hi"]))
    assert doc["summary"]["projection"]["coverage"] is not None
    rows = [line.split(",") for line in rep.to_csv().strip().split("\n")[1:]]
    assert [r[4:] for r in rows if r[0] == "median"] == [["", "", ""]] * 3


def test_hash_with_repeats_and_random_d():
    cfg = ExperimentConfig(c=300, m=16, algos=("max-uniform", "mincount"),
                           replicates=2, seed=21, method="hash",
                           repeats=3, d_model="random")
    rep = run_experiment(cfg)
    assert rep.exact_c == 300
    assert rep.summary["max-uniform"]["mean_pct_error"] < 100.0


@pytest.mark.parametrize("c, algos", [(40, ("mincount", "hll")), (2, ("kth",))])
def test_too_few_items_fail_alike_in_both_modes(c, algos):
    # an exact sampler that cannot draw the state counts the replicate as
    # failed, as hash mode does, instead of aborting the run
    failed = {}
    for method in ("hash", "sampled"):
        cfg = ExperimentConfig(c=c, m=16, algos=algos, replicates=3, seed=4, method=method)
        rep = run_experiment(cfg)
        failed[method] = {a: rep.summary[a]["failed"] for a in algos}
    assert failed["sampled"] == failed["hash"]
    assert failed["sampled"][algos[0]] == 3


def test_sampled_projection_draws_the_repeated_items_target():
    # an item repeated R times has total quantity R, so the projection sketch
    # estimates c * R**alpha; the other sketches ignore repeats
    cfg = dict(c=2000, m=64, algos=ALGOS, replicates=5, seed=3, method="sampled")
    unit = run_experiment(ExperimentConfig(**cfg)).replicates
    twice = run_experiment(ExperimentConfig(**cfg, repeats=2)).replicates
    for algo in ALGOS:
        if algo in ("projection", "median"):
            np.testing.assert_allclose(twice[algo]["c_hat"],
                                       np.array(unit[algo]["c_hat"]) * 2 ** 0.05, rtol=1e-12)
        else:
            assert twice[algo] == unit[algo], algo


def test_sampled_projection_draws_the_random_quantities_target():
    # d_model "random" gives each item a quantity uniform on 1..10, so the
    # projection sketch estimates c E[D**alpha]; the state draws are shared
    # with the unit run, so each replicate's ratio to it is its own
    # (1/c) sum D_i**alpha
    cfg = dict(c=200, m=16, algos=("projection",), replicates=2000, seed=11,
               method="sampled")
    unit = run_experiment(ExperimentConfig(**cfg)).replicates["projection"]["c_hat"]
    rand = run_experiment(ExperimentConfig(**cfg, d_model="random")).replicates
    ratio = np.array(rand["projection"]["c_hat"]) / np.array(unit)
    se = ratio.std(ddof=1) / math.sqrt(len(ratio))
    assert abs(ratio.mean() - np.mean(np.arange(1, 11) ** 0.05)) < 3 * se


def test_unknown_d_model_fails_in_both_modes():
    for method in ("hash", "sampled"):
        with pytest.raises(ValueError, match="unknown d model"):
            run_experiment(ExperimentConfig(c=100, m=8, algos=("projection",),
                                            method=method, d_model="nope"))
