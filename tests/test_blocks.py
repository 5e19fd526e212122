"""Block paths: stacked estimates agree row by row with one-row calls,
errors included, and the experiment runner's block-built reports equal
replicate-by-replicate runs of the one-replicate entry points."""

import math
import warnings

import numpy as np
import pytest

from cardsketch import experiment, order_sketch, sampling
from cardsketch.errors import SketchError
from cardsketch.experiment import ALGOS, ExperimentConfig, run_experiment
from cardsketch.sketch_types import TYPES
from cardsketch.streams import exact_count, generate_stream

M = 16
PARAMS = {"max-uniform": {}, "max-exp": {}, "max-geom": {"q": 0.5}, "kth": {"k": 3},
          "bernoulli": {"p": 0.01}, "projection": {"alpha": 0.05},
          "loglog": {}, "hll": {}, "mincount": {}}


def _sampled(name, rng, c):
    """A state of the type drawn at c distinct items, as its arrays."""
    t, params = TYPES[name], PARAMS[name]
    draws = t.sampler.draw(c, M, rng, **params)
    arrays, errors = t.sampler.shape(c, M, *(d[None] for d in draws), **params)
    assert errors == [None]
    return [a[0] for a in arrays]


def _failing(name):
    """States whose estimates fail, or sit on a boundary, each as its arrays."""
    if name in ("max-uniform", "max-exp"):
        empty = np.full(M, -1.0)
        empty[3] = -np.inf
        tiny = np.zeros(M)
        tiny[0] = -5e-324
        return [[empty], [np.zeros(M)], [tiny]]
    if name == "max-geom":
        empty = np.full(M, 3, dtype=np.uint32)
        empty[5] = 0
        beyond = np.array([1] * (M - 1) + [2000], dtype=np.uint32)
        tail = np.array([1] * (M - 1) + [600], dtype=np.uint32)
        return [[empty], [np.ones(M, dtype=np.uint32)], [beyond], [tail]]
    if name == "kth":
        short = np.tile([0.9, 0.8, 0.7], (M, 1))
        short[2, 2] = np.nan
        return [[short], [np.ones((M, 3))]]
    if name == "bernoulli":
        return [[np.zeros(M, dtype=np.uint8)], [np.ones(M, dtype=np.uint8)]]
    if name == "projection":
        signs = np.ones(M, dtype=np.int8)
        signs[4] = -1
        zero = np.ones(M, dtype=np.int8)
        zero[1] = 0
        lm = np.full(M, 30.0)
        lm_zero = lm.copy()
        lm_zero[1] = -np.inf
        return [[signs, lm], [zero, lm_zero], [np.ones(M, dtype=np.int8), np.full(M, 1e300)]]
    if name in ("loglog", "hll"):
        return [[np.zeros(M, dtype=np.uint8)]]
    third = np.full((M, 3), np.inf)
    third[:, 0] = 0.1
    return [[third]]


def _out_of_range_kth():
    """k-th values that no state holds (its check refuses them) but the
    value-taking kth functions accept: a k-th value of 0 gives an infinite
    Newton step, one far above 1 (a product of k-th values above 1) a start
    below the pole k - 1."""
    zero, above = np.tile([0.9, 0.8, 0.7], (2, M, 1))
    zero[4, 2] = 0.0
    above[7, 2] = 1e300
    return [[zero], [above]]


def _outcome(call):
    """What a call returns, or its exception's class, message and attributes."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            return "ok", call()
    except Exception as exc:  # every exception a one-row call raises is compared
        return "error", (type(exc), str(exc), dict(vars(exc)))


def _rows(name):
    rng = np.random.default_rng(sum(map(ord, name)))
    rows = [_sampled(name, rng, c) for c in (200, 1000, 5000, 10**5, 10**6)]
    rows += _failing(name)
    rows += [_sampled(name, rng, c) for c in (300, 3000, 30000)]
    rows.insert(2, rows.pop())  # failing rows between valid ones
    rows.insert(len(rows) // 2, rows.pop())
    return rows


@pytest.mark.parametrize("name", sorted(TYPES) + ["median"])
@pytest.mark.parametrize("level", [0.95, 0.5, 1.5])
def test_block_rows_equal_one_row_calls(name, level):
    kind = "projection" if name == "median" else name
    t, params = TYPES[kind], PARAMS[kind]
    rows = _rows(kind)
    stacked = [np.stack(parts) for parts in zip(*rows)]
    median = name == "median"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        block = t.estimates(stacked, level, params, median=median)
    failed = 0
    for i, arrays in enumerate(rows):
        sk = t.from_state(M, 0, arrays, params)
        one = _outcome(sk.median_estimate if median else lambda: sk.estimate(level))
        got = _outcome(lambda: block.value(i) if median else block.estimate(i))
        assert got == one, (name, i)
        error = block.errors[i]  # what the experiment runner reads
        assert (error is None) == (one[0] == "ok"), (name, i)
        if error is not None:
            assert (type(error), str(error), dict(vars(error))) == one[1], (name, i)
        failed += one[0] == "error"
        if one[0] == "ok" and block.pivot is not None:
            assert block.pivot[i] == sk.pivot_sum()
    assert 0 < failed
    assert failed < len(rows) or (level > 1 and not median)


# -- single-row wrappers against the rows of their blocks -----------------

def _estimates_block(name, median=False):
    """The block step of an accessor: the estimates block of a stack of
    states, as its per-row errors and the values the accessor reads."""
    def block(stacked):
        kind = "projection" if median else name
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            est = TYPES[kind].estimates(stacked, 0.95, PARAMS[kind], median=median)
        if median:
            return est.errors, est.c_hat.tolist()
        if name == "kth":
            return est.errors, list(stacked[0][:, :, PARAMS["kth"]["k"] - 1])
        return est.errors, est.pivot.tolist()
    return block


def _kth_block(stacked, values=True):
    """``kth_roots`` of the stacked k-th values."""
    k = PARAMS["kth"]["k"]
    errors = [None] * len(stacked[0])
    with np.errstate(all="ignore"):
        roots = order_sketch.kth_roots(stacked[0][:, :, k - 1], k, errors)
    return errors, roots.tolist() if values else None


def _geometric_block(stacked):
    """``geometric_mles`` of the stacked slots, checked filled: roots and
    initializers."""
    errors = [None] * len(stacked[0])
    slots = order_sketch._filled(stacked[0], 0, errors)
    with np.errstate(all="ignore"):
        roots, starts = order_sketch.geometric_mles(slots, PARAMS["max-geom"]["q"], errors)
    return errors, list(zip(roots.tolist(), starts.tolist()))


def _built(name, arrays):
    return TYPES[name].from_state(M, 0, arrays, PARAMS[name])


def _kth_y(arrays):
    return arrays[0][:, PARAMS["kth"]["k"] - 1]


# (type, wrapper, its one-row call of a state's arrays, its block step over a
# stack of states, whether the block step is the wrapper's alone: then a row
# fails in the block exactly when the wrapper raises)
WRAPPERS = [
    ("max-uniform", "pivot_sum", lambda a: _built("max-uniform", a).pivot_sum(),
     _estimates_block("max-uniform"), False),
    ("max-exp", "pivot_sum", lambda a: _built("max-exp", a).pivot_sum(),
     _estimates_block("max-exp"), False),
    ("projection", "pivot_sum", lambda a: _built("projection", a).pivot_sum(),
     _estimates_block("projection"), False),
    ("projection", "median_estimate", lambda a: _built("projection", a).median_estimate(),
     _estimates_block("projection", median=True), True),
    ("kth", "kth_values", lambda a: _built("kth", a).kth_values(),
     _estimates_block("kth"), False),
    ("kth", "kth_root_estimate",
     lambda a: order_sketch.kth_root_estimate(_kth_y(a), PARAMS["kth"]["k"]), _kth_block, True),
    ("kth", "kth_closed_form",
     lambda a: order_sketch.kth_closed_form(_kth_y(a), PARAMS["kth"]["k"]),
     lambda stacked: _kth_block(stacked, values=False), False),
    ("max-geom", "solve_geometric_mle",
     lambda a: order_sketch.solve_geometric_mle(a[0], PARAMS["max-geom"]["q"]),
     _geometric_block, True),
]


def _same(a, b) -> bool:
    if isinstance(a, np.ndarray):
        return a.tobytes() == np.asarray(b).tobytes()
    return repr(a) == repr(b)


def _check_wrapper(rows, call, block, alone):
    """Each row's one-row call against the block step's row: a raised
    error is the one the block records, with its message and attributes,
    and a returned value is the block's."""
    errors, values = block([np.stack(parts) for parts in zip(*rows)])
    raised = 0
    for i, arrays in enumerate(rows):
        kind, got = _outcome(lambda: call(arrays))
        error = errors[i]
        if kind == "error":
            raised += 1
            assert error is not None, i
            # repr: an initial of NaN equals itself
            assert (type(error), str(error), repr(vars(error))) == (*got[:2], repr(got[2])), i
            continue
        assert error is None or not alone, (i, error)
        if values is not None:
            assert _same(got, values[i]), i
    return raised


@pytest.mark.parametrize("name, wrapper, call, block, alone", WRAPPERS,
                         ids=[f"{w[0]}-{w[1]}" for w in WRAPPERS])
def test_single_row_wrappers_raise_what_their_block_records(name, wrapper, call, block, alone):
    rows = _rows(name)
    if wrapper in ("kth_root_estimate", "kth_closed_form"):
        rows[3:3] = _out_of_range_kth()  # between valid rows
    assert _check_wrapper(rows, call, block, alone) > 0  # a failing state reaches it


@pytest.mark.parametrize("q", [0.5, 1 - 2.0**-26])
def test_geometric_slots_raise_what_their_block_records(q):
    # log-uniforms of sampled continuous states, and rows whose slots pass
    # the u32 maximum at the largest q
    rng = np.random.default_rng(12)
    rows = [_sampled("max-uniform", rng, c) for c in (200, 10**5)]
    rows[1:1] = [[np.full(M, -1e-30)], [np.array([-1.0] * (M - 1) + [-1e-40])]]

    def block(stacked):
        errors = [None] * len(stacked[0])
        return errors, list(order_sketch.geometric_slot_rows(stacked[0], q, errors))

    raised = _check_wrapper(rows, lambda a: order_sketch.geometric_slots(a[0], q), block, True)
    assert raised == (2 if q > 0.5 else 0)


def test_failing_rows_carry_their_attributes():
    t = TYPES["bernoulli"]
    bits = np.stack([np.ones(M, dtype=np.uint8), np.zeros(M, dtype=np.uint8)])
    block = t.estimates([bits], 0.9, PARAMS["bernoulli"])
    saturated = block.errors[0]
    assert saturated.lower_bound > 0 and saturated.level == 0.9
    assert block.estimate(1).c_hat == 0.0
    geom = TYPES["max-geom"]
    slots = np.stack([np.array([1] * (M - 1) + [2000], dtype=np.uint32)] * 10)
    err = geom.estimates([slots], 0.95, PARAMS["max-geom"]).errors[9]
    assert "not finite" in str(err) and err.initial is not None


def test_stacked_checks_refuse_any_bad_row():
    t = TYPES["kth"]
    good = np.tile([0.9, 0.8, 0.7], (M, 1))
    bad = good.copy()
    bad[3] = [0.7, 0.8, 0.9]  # not descending
    assert t.checked(M, [np.stack([good, good])], {"k": 3})[0].shape == (2, M, 3)
    with pytest.raises(ValueError, match="sorted"):
        t.checked(M, [np.stack([good, bad])], {"k": 3})
    with pytest.raises(ValueError, match="shape"):
        t.checked(M, [good], {"k": 3})


# -- the runner against one replicate at a time ---------------------------

def _sample(name, c, cfg, rng):
    """The one-replicate sampler of a type, called by position."""
    if name in ("max-uniform", "max-exp"):
        return sampling.sample_continuous(c, cfg.m, rng, "uniform" if name == "max-uniform"
                                          else "exponential")
    if name == "max-geom":
        return sampling.sample_geometric(c, cfg.m, cfg.q, rng)
    if name == "kth":
        return sampling.sample_kth(c, cfg.k, cfg.m, rng)
    if name == "bernoulli":
        return sampling.sample_bernoulli(c, cfg.m, cfg.bernoulli_p(), rng)
    if name == "projection":
        return sampling.sample_projection(c, cfg.m, cfg.alpha, rng)
    return getattr(sampling, f"sample_{name}")(c, cfg.m, rng)


def _one_at_a_time(cfg):
    """The report columns and failure counts of cfg, replicate by replicate
    through the one-replicate entry points."""
    cols = {a: {"c_hat": [], "pct_error": [], "ci_lo": [], "ci_hi": [], "covered": [],
                "pivot": [], "failed": 0} for a in cfg.algos}
    for rep in range(cfg.replicates):
        rng = experiment._rep_rng(cfg.seed, rep)
        c_exact = cfg.c
        if cfg.resolved_method() == "hash":
            stream = generate_stream(
                cfg.c, seed=int(rng.integers(0, 2**63)), repeats=cfg.repeats,
                heavy_tail=cfg.heavy_tail, d_model=cfg.d_model,
                deleted_extra=cfg.deleted_extra)
            c_exact = exact_count(stream)
        built = {}
        for algo in cfg.algos:
            t = experiment._sketch_type(algo)
            col = cols[algo]
            try:
                sk = built.get(t.name)
                if sk is None:
                    if cfg.resolved_method() == "hash":
                        sk = t.build(cfg.m, experiment._algo_salt(cfg.seed, rep, algo),
                                     experiment._params(t, cfg))
                        sk.add_batch(stream.keys, stream.d)
                    else:
                        c = (experiment._projection_c(cfg, rep) if t.name == "projection"
                             else cfg.c)
                        sk = _sample(t.name, c, cfg, rng)
                    built[t.name] = sk
                if algo == "median":
                    c_hat, ci, pivot = sk.median_estimate(), None, None
                else:
                    est = sk.estimate(cfg.level)
                    c_hat, ci = est.c_hat, est.ci
                    pivot = sk.pivot_sum() if hasattr(sk, "pivot_sum") else None
            except SketchError:
                col["failed"] += 1
                continue
            col["c_hat"].append(c_hat)
            col["pct_error"].append(100.0 * abs(c_hat - c_exact) / c_exact)
            col["ci_lo"].append(None if ci is None else ci[0])
            col["ci_hi"].append(None if ci is None else ci[1])
            col["covered"].append(None if ci is None else ci[0] <= c_exact <= ci[1])
            if pivot is not None:
                col["pivot"].append(pivot * c_exact)
    return cols


@pytest.mark.parametrize("cfg, block", [
    (dict(c=40, m=16, algos=ALGOS, replicates=12, seed=4, method="sampled", q=0.5, p=0.05,
          d_model="random"), None),
    # blocks of 5 replicates, the last one short
    (dict(c=40, m=16, algos=ALGOS, replicates=12, seed=4, method="sampled", q=0.5, p=0.05,
          d_model="random"), 5),
    (dict(c=200, m=16, algos=ALGOS, replicates=3, seed=5, method="hash", repeats=2,
          d_model="random"), 2),
])
def test_report_equals_one_replicate_runs(cfg, block, monkeypatch):
    cfg = ExperimentConfig(**cfg)
    if block is not None:
        monkeypatch.setattr(experiment, "_BLOCK_ENTRIES", block * cfg.m)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        report = run_experiment(cfg)
    want = _one_at_a_time(cfg)
    failures = 0
    for algo in cfg.algos:
        got = report.replicates[algo]
        for key in ("c_hat", "pct_error", "ci_lo", "ci_hi", "covered", "pivot"):
            assert got[key] == want[algo][key], (algo, key)
        assert report.summary[algo]["failed"] == want[algo]["failed"], algo
        failures += want[algo]["failed"]
    if cfg.method == "sampled":
        assert failures > 0  # the config makes some states fail
    assert all(math.isfinite(v) for v in report.replicates["max-geom"]["c_hat"])
