"""Hash-path vs exact-distribution sampling equivalence.

The experiment harness draws sketch states from their sampling
distributions instead of hashing c*m variates when configurations are
large.  These tests pin the two routes to the same law, family by family,
with two-sample KS checks at the 1% level on the quantities the estimators
actually consume.
"""

import math

import numpy as np
from scipy.stats import ks_2samp

from cardsketch import sampling
from cardsketch.baselines import HyperLogLogSketch, MinCountSketch
from cardsketch.order_sketch import (
    BernoulliSketch,
    ContinuousMaxSketch,
    GeometricMaxSketch,
    KthOrderSketch,
)
from cardsketch.projection import ProjectionSketch
from cardsketch.streams import distinct_keys

_CRIT = 1.628  # 1% two-sample KS constant: D_crit = 1.628 * sqrt((n+m)/(n*m))


def _crit(n1, n2):
    return _CRIT * math.sqrt((n1 + n2) / (n1 * n2))


def test_continuous_pivot_distribution_matches():
    c, m, reps = 400, 32, 400
    rng = np.random.default_rng(101)
    hashed = []
    for rep in range(reps):
        sk = ContinuousMaxSketch(m, seed=rep)
        sk.add_batch(distinct_keys(c, seed=rep * 7 + 1))
        hashed.append(sk.pivot_sum())
    sampled = [sampling.sample_continuous(c, m, rng).pivot_sum() for _ in range(reps)]
    d = ks_2samp(hashed, sampled).statistic
    assert d < _crit(reps, reps)


def test_geometric_slot_distribution_matches():
    c, m, reps = 300, 16, 300
    rng = np.random.default_rng(102)
    hashed = []
    for rep in range(reps):
        sk = GeometricMaxSketch(m, q=10 / 11, seed=rep + 1000)
        sk.add_batch(distinct_keys(c, seed=rep * 3 + 5))
        hashed.extend(sk.slots.tolist())
    sampled = []
    for _ in range(reps):
        sampled.extend(sampling.sample_geometric(c, m, 10 / 11, rng).slots.tolist())
    d = ks_2samp(hashed, sampled).statistic
    assert d < _crit(len(hashed), len(sampled))


def test_kth_value_distribution_matches():
    c, k, m, reps = 200, 3, 16, 300
    rng = np.random.default_rng(103)
    hashed = []
    for rep in range(reps):
        sk = KthOrderSketch(m, k=k, seed=rep + 2000)
        sk.add_batch(distinct_keys(c, seed=rep * 5 + 11))
        hashed.extend(sk.kth_values().tolist())
    sampled = []
    for _ in range(reps):
        sampled.extend(sampling.sample_kth(c, k, m, rng).kth_values().tolist())
    d = ks_2samp(hashed, sampled).statistic
    assert d < _crit(len(hashed), len(sampled))


def test_bernoulli_ones_distribution_matches():
    c, m, reps = 500, 256, 500
    p = 1.594 / c
    rng = np.random.default_rng(104)
    hashed = []
    for rep in range(reps):
        sk = BernoulliSketch(m, p=p, seed=rep + 3000)
        sk.add_batch(distinct_keys(c, seed=rep * 11 + 3))
        hashed.append(sk.ones())
    sampled = [sampling.sample_bernoulli(c, m, p, rng).ones() for _ in range(reps)]
    d = ks_2samp(hashed, sampled).statistic
    assert d < _crit(reps, reps)


def test_projection_pivot_distribution_matches():
    c, m, reps = 300, 16, 300
    alpha = 0.05
    rng = np.random.default_rng(105)
    hashed = []
    for rep in range(reps):
        sk = ProjectionSketch(m, alpha=alpha, seed=rep + 4000)
        sk.add_batch(distinct_keys(c, seed=rep * 13 + 7))
        hashed.append(c * sk.pivot_sum())
    sampled = [c * sampling.sample_projection(c, m, alpha, rng).pivot_sum()
               for _ in range(reps)]
    d = ks_2samp(hashed, sampled).statistic
    assert d < _crit(reps, reps)


def test_hll_estimate_distribution_matches():
    c, m, reps = 3000, 64, 400
    rng = np.random.default_rng(106)
    hashed = []
    for rep in range(reps):
        sk = HyperLogLogSketch(m, seed=rep + 5000)
        sk.add_batch(distinct_keys(c, seed=rep * 17 + 9))
        hashed.append(sk.estimate().c_hat)
    sampled = [sampling.sample_hll(c, m, rng).estimate().c_hat for _ in range(reps)]
    d = ks_2samp(hashed, sampled).statistic
    assert d < _crit(reps, reps)


def test_mincount_estimate_distribution_matches():
    c, m, reps = 3000, 64, 400
    rng = np.random.default_rng(107)
    hashed = []
    for rep in range(reps):
        sk = MinCountSketch(m, seed=rep + 6000)
        sk.add_batch(distinct_keys(c, seed=rep * 19 + 13))
        hashed.append(sk.estimate().c_hat)
    sampled = [sampling.sample_mincount(c, m, rng).estimate().c_hat
               for _ in range(reps)]
    d = ks_2samp(hashed, sampled).statistic
    assert d < _crit(reps, reps)


def test_samplers_are_deterministic_given_seed():
    a = sampling.sample_projection(100, 8, 0.05, np.random.default_rng(5))
    b = sampling.sample_projection(100, 8, 0.05, np.random.default_rng(5))
    np.testing.assert_array_equal(a.logmag, b.logmag)


# estimates of the states two rounds of samplers draw from one generator,
# as recorded under numpy 2.4: a sampler that changes its generator calls,
# or their order, moves them far beyond rounding (so would a numpy release
# that changes how Generator draws one of these distributions)
PINNED = [6570.089220898556, 4553.809637833549, 2902.729432123824, 4821.613212016611,
          5250.030073865228, 3507.4907670210423, 5180.695302407907, 6386.349755656109,
          3899.4884191347046, 6545.27636315526, 3895.1176169009746, 6150.026418122771,
          3612.1230681862307, 5635.119290361271, 5250.030073865228, 5678.21894562,
          5180.695302407907, 4582.413298701299, 3150.166745283387, 5471.5584825806445]


def test_samplers_keep_their_generator_draws():
    rng = np.random.default_rng(2024)
    c, m = 5000, 16
    got = []
    for _ in range(2):
        proj = sampling.sample_projection(c, m, 0.05, rng)
        sketches = [
            sampling.sample_continuous(c, m, rng, "uniform"),
            sampling.sample_continuous(c, m, rng, "exponential"),
            sampling.sample_geometric(c, m, 10 / 11, rng),
            sampling.sample_kth(c, 3, m, rng),
            sampling.sample_bernoulli(c, m, 1.594 / c, rng),
            proj,
            sampling.sample_loglog(c, m, rng),
            sampling.sample_hll(c, m, rng),
            sampling.sample_mincount(c, m, rng),
        ]
        got += [sk.estimate().c_hat for sk in sketches] + [proj.median_estimate()]
    np.testing.assert_allclose(got, PINNED, rtol=1e-9)
