"""Replicated estimation experiments: build sketches over synthetic streams,
estimate, and aggregate percent errors, empirical variances, efficiency
ratios and pivot diagnostics.

Replicates run in one of two modes.  "hash" ingests every stream through
the real seeded-hash path; "sampled" draws each sketch state directly from
its exact sampling distribution under the truly-random-hash idealization
(see sampling module), which makes desk-scale replication of large-c
configurations affordable.  "auto" picks hash while c*m*replicates stays
small.  Either way a (config, seed) pair fixes the report bytes.

Before its first replicate the runner builds one empty sketch of each
type, in either mode: its constructor checks m and the parameters, and in
sampled mode its sampler checks c, so a refused value raises that
ValueError before any draw or hash, and its
``state_bytes`` is the state size of the type's algorithms, a function
of the type, m and the parameters alone.

The runner loops over replicates only to make their states: to draw
them (sampled mode: each replicate's generator calls, type by type in
the order of the algorithms) or to build and hash them.  It then works
per block of replicates: each sketch type's states are stacked, one row
per replicate, shaped from the draws, checked once, and every algorithm
of the type is estimated and recorded in one call.  A block holds at
most _BLOCK_ENTRIES state entries, so memory does not grow with the
number of replicates.  A row gets the values, or the error, that its
replicate gets alone through ``sampling.sample_*`` (or ``build`` and
``add_batch``) and ``estimate``.  A replicate whose state cannot be
made, or whose estimate raises a SketchError, counts as failed for each
algorithm of that type.

With more than seven pivots an algorithm's summary carries the
Kolmogorov-Smirnov statistic of its pivots c * S against Gamma(m) and the
exact two-sided p-value (``ks_gamma``).
"""

from __future__ import annotations

import csv
import io
import math
import numbers
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import SketchError
from .estimate import incomplete_gamma
from .hashing import item_key, mix64
from .inference import optimal_lambda
from .serialize import json_dumps, json_dumps_indented
from .sketch_types import TYPES
from .streams import exact_count, generate_stream, item_quantities

# every sketch type, plus "median": the projection sketch read through its
# median estimator
ALGOS = tuple(TYPES) + ("median",)

# "auto" hashes while c * m * replicates * repeats stays below this: the
# word count of the per-stream scheme, which bounded the projection and max
# families alike.  The max family now hashes about two words per item (see
# hashing.first_arrivals), so the rule is conservative for it; it is kept
# as it was so that reports do not move.
_HASH_BUDGET = 1 << 25


# the fields that must be integers and those that must be numbers (p may
# also be None); a bool is neither
_INTEGER_FIELDS = ("m", "replicates", "seed", "k", "repeats", "deleted_extra")
_NUMBER_FIELDS = ("c", "level", "q", "p", "alpha")


@dataclass
class ExperimentConfig:
    """One experiment.  A field of the wrong type raises a ValueError that
    names it: c, m, replicates, seed, k, repeats and deleted_extra must be
    integers, except c in sampled mode, where it may be any number (the
    sampler checks its value), level, q, p (or None) and alpha numbers,
    heavy_tail true or false, and algos a list of algorithm names, not a
    str or bytes.
    The ranges of m and the sketch parameters are the constructors' to
    check, and that of c in sampled mode the sampler's."""

    c: int
    m: int
    algos: tuple = ("max-uniform",)
    replicates: int = 1
    seed: int = 0
    level: float = 0.95
    q: float = 10.0 / 11.0
    p: float | None = None      # bernoulli rate; defaults to lambda0/c
    alpha: float = 0.05
    k: int = 3
    repeats: int = 1
    heavy_tail: bool = False
    d_model: str = "unit"
    deleted_extra: int = 0
    method: str = "auto"        # hash | sampled | auto

    def __post_init__(self):
        for name in _INTEGER_FIELDS + _NUMBER_FIELDS:
            value, integer = getattr(self, name), name in _INTEGER_FIELDS
            if name == "p" and value is None:
                continue
            if isinstance(value, bool) or not isinstance(
                    value, numbers.Integral if integer else numbers.Real):
                kind = "an integer" if integer else "a number"
                raise ValueError(f"{name} must be {kind}, got {value!r}")
        if not isinstance(self.heavy_tail, bool):
            raise ValueError(f"heavy_tail must be true or false, got {self.heavy_tail!r}")
        if self.c < 1 or self.m < 1 or self.replicates < 1:
            raise ValueError("c, m and replicates must all be >= 1")
        if isinstance(self.algos, (str, bytes)):
            raise ValueError(f"algos must be a list of algorithm names, got {self.algos!r}")
        self.algos = tuple(self.algos)
        for a in self.algos:
            if a not in ALGOS:
                raise ValueError(f"unknown algorithm {a!r}")
        if self.method not in ("hash", "sampled", "auto"):
            raise ValueError(f"unknown method {self.method!r}")
        if self.resolved_method() == "hash" and not isinstance(self.c, numbers.Integral):
            raise ValueError(f"c must be an integer in hash mode, got {self.c!r}")

    def resolved_method(self) -> str:
        if self.method != "auto":
            return self.method
        cost = self.c * self.m * self.replicates * max(1, self.repeats)
        return "hash" if cost <= _HASH_BUDGET else "sampled"

    def bernoulli_p(self) -> float:
        return self.p if self.p is not None else optimal_lambda() / self.c

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(d) - known
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        return cls(**d)


@dataclass
class ExperimentReport:
    config: dict
    method: str
    exact_c: int
    replicates: dict = field(default_factory=dict)   # algo -> column arrays
    summary: dict = field(default_factory=dict)      # algo -> aggregates
    variance_ratios: dict = field(default_factory=dict)

    def to_json(self, canonical: bool = False, indent: int | None = 2) -> str:
        """The report as ``json_dumps(doc, indent=indent, sort_keys=True)``
        writes it, byte for byte; an indent is written through
        ``json_dumps_indented``, which encodes each replicate column and
        summary with one C-encoder call.  canonical drops the wall-clock
        fields, so that a (config, seed) pair fixes the bytes."""
        doc = {
            "format": "cardsketch-report",
            "version": 1,
            "config": self.config,
            "method": self.method,
            "exact_c": self.exact_c,
            "summary": self.summary,
            "variance_ratios": self.variance_ratios,
            "replicates": self.replicates,
        }
        if canonical:
            doc["summary"] = {
                a: {k: v for k, v in s.items() if k != "wall_s"}
                for a, s in self.summary.items()
            }
        if indent is None:
            return json_dumps(doc, sort_keys=True)
        return json_dumps_indented(doc, indent)

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["algo", "replicate", "c_hat", "pct_error",
                    "ci_lo", "ci_hi", "covered"])
        for algo in sorted(self.replicates):
            cols = self.replicates[algo]
            for i in range(len(cols["c_hat"])):
                covered = cols["covered"][i]
                w.writerow([
                    algo, i, cols["c_hat"][i], cols["pct_error"][i],
                    cols["ci_lo"][i], cols["ci_hi"][i],
                    covered if covered is None else int(covered),
                ])
        return buf.getvalue()


def _rep_rng(seed: int, rep: int):
    return np.random.default_rng((int(seed) & 0xFFFFFFFFFFFFFFFF, 0xC0DE, rep))


def _projection_c(cfg: ExperimentConfig, rep: int) -> float:
    """sum_i D_i**alpha over the c live items of a replicate's stream, D_i an
    item's total quantity: what the projection sketch estimates, and the c
    its sampler takes.  Drawn from a generator of its own, so the other
    algorithms' draws do not move."""
    if not cfg.heavy_tail and cfg.d_model == "unit":
        return cfg.c * cfg.repeats ** cfg.alpha
    rng = np.random.default_rng((int(cfg.seed) & 0xFFFFFFFFFFFFFFFF, 0xD0, rep))
    reps, d = item_quantities(cfg.c, rng, cfg.repeats, cfg.heavy_tail, cfg.d_model)
    totals = np.add.reduceat(d, np.cumsum(reps) - reps)
    return float((totals ** cfg.alpha).sum())


def _algo_salt(seed: int, rep: int, algo: str) -> int:
    return mix64(mix64(seed ^ (rep * 0x9E3779B97F4A7C15)) ^ item_key(algo))


def _sketch_type(algo: str):
    return TYPES["projection" if algo == "median" else algo]


def _params(t, cfg: ExperimentConfig) -> dict:
    return {n: cfg.bernoulli_p() if n == "p" else getattr(cfg, n)
            for n in t.param_names}


def _states(t, cfg: ExperimentConfig, method: str, reps, made: list, params: dict,
            errors: list):
    """The checked stack of the states of the replicates reps that could be
    made, and their rows; a row the sampler cannot shape gets its error."""
    rows = [j for j, e in enumerate(errors) if e is None]
    if not rows:
        return None, rows
    arrays = made if len(rows) == len(errors) else [a[rows] for a in made]
    if method == "sampled":
        c = cfg.c
        if t.name == "projection":
            c = np.array([_projection_c(cfg, reps[j]) for j in rows])
        arrays, shape_errors = t.sampler.shape(c, cfg.m, *arrays, **params)
        keep = [j for j, e in enumerate(shape_errors) if e is None]
        for j, e in enumerate(shape_errors):
            if e is not None:
                errors[rows[j]] = e
        if len(keep) < len(rows):
            rows = [rows[j] for j in keep]
            arrays = [a[keep] for a in arrays]
            if not rows:
                return None, rows
    return t.checked(cfg.m, arrays, params), rows


def _columns(est, rows: list, c_exact: np.ndarray) -> dict:
    """An algorithm's report columns from its block estimates est of the
    block's rows numbered rows (est None when there are none), in row
    order.  A row that failed with a SketchError is counted, any other
    exception is raised."""
    ok = []
    for j, e in enumerate(est.errors if est is not None else ()):
        if e is None:
            ok.append(j)
        elif not isinstance(e, SketchError):
            raise e
    c = c_exact[[rows[j] for j in ok]]
    c_hat = est.c_hat[ok] if ok else np.empty(0)
    col = {"c_hat": c_hat.tolist(), "pct_error": (100.0 * np.abs(c_hat - c) / c).tolist(),
           "ci_lo": [None] * len(ok), "ci_hi": [None] * len(ok),
           "covered": [None] * len(ok), "pivot": [],
           "errors": len(c_exact) - len(ok)}
    if ok and est.ci_lo is not None:
        lo, hi = est.ci_lo[ok], est.ci_hi[ok]
        col["ci_lo"], col["ci_hi"] = lo.tolist(), hi.tolist()
        col["covered"] = ((lo <= c) & (c <= hi)).tolist()
    if ok and est.pivot is not None:
        col["pivot"] = (est.pivot[ok] * c).tolist()
    return col


# replicates are made and estimated in blocks of at most this many state
# entries (replicates times m), so that a block's draws stay a few MiB
# however many replicates run; 512 replicates at m = 128 make one block
_BLOCK_ENTRIES = 1 << 16


def _block(cfg: ExperimentConfig, method: str, types: dict, reps: range, wall: dict):
    """The report columns, per algorithm, of the replicates reps, and
    their exact counts."""
    n = len(reps)
    c_exact = np.full(n, cfg.c)
    # per type, its draws (sampled) or state arrays (hash), stacked as they
    # come, one row per replicate, and the SketchError that stopped a row
    made = {name: None for name in types}
    errors = {name: [None] * n for name in types}
    for j, rep in enumerate(reps):
        rng = _rep_rng(cfg.seed, rep)
        if method == "hash":
            stream = generate_stream(
                cfg.c, seed=int(rng.integers(0, 2**63)), repeats=cfg.repeats,
                heavy_tail=cfg.heavy_tail, d_model=cfg.d_model,
                deleted_extra=cfg.deleted_extra)
            c_exact[j] = exact_count(stream)
        for name, (t, first, params) in types.items():
            t0 = time.perf_counter()
            try:
                if method == "hash":
                    sk = t.build(cfg.m, _algo_salt(cfg.seed, rep, first), params)
                    sk.add_batch(stream.keys, stream.d)
                    parts = sk.state_arrays()
                else:
                    parts = t.sampler.draw(cfg.c, cfg.m, rng, **params)
            except SketchError as exc:
                errors[name][j] = exc
            else:
                if made[name] is None:
                    made[name] = [np.empty((n, *p.shape), p.dtype) for p in parts]
                for stack, p in zip(made[name], parts):
                    stack[j] = p
            wall[first] += time.perf_counter() - t0

    cols = {}
    for name, (t, first, params) in types.items():
        t0 = time.perf_counter()
        arrays, rows = _states(t, cfg, method, reps, made.pop(name), params, errors[name])
        wall[first] += time.perf_counter() - t0
        for algo in cfg.algos:
            if _sketch_type(algo) is not t:
                continue
            t0 = time.perf_counter()
            est = None
            if rows:
                est = t.estimates(arrays, cfg.level, params, median=algo == "median")
            cols[algo] = _columns(est, rows, c_exact)
            wall[algo] += time.perf_counter() - t0
    return cols, c_exact


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    method = cfg.resolved_method()
    # each sketch type once, with the first algorithm that reads it: that
    # algorithm names its hash salt, and its wall time pays for the states;
    # an empty sketch checks m and the parameters and gives the state size
    types, size = {}, {}
    for algo in cfg.algos:
        t = _sketch_type(algo)
        if t.name not in types:
            params = _params(t, cfg)
            size[t.name] = t.build(cfg.m, 0, params).state_bytes()
            if method == "sampled":
                t.sampler.check(cfg.c)
            types[t.name] = (t, algo, params)
    wall = {a: 0.0 for a in cfg.algos}
    cols = {a: {"c_hat": [], "pct_error": [], "ci_lo": [], "ci_hi": [], "covered": [],
                "pivot": [], "errors": 0} for a in cfg.algos}
    step = max(1, _BLOCK_ENTRIES // cfg.m)
    for lo in range(0, cfg.replicates, step):
        reps = range(lo, min(cfg.replicates, lo + step))
        block, c_exact = _block(cfg, method, types, reps, wall)
        for algo, col in block.items():
            for key, values in col.items():
                cols[algo][key] += values
    c_exact = int(c_exact[-1])

    summary = {}
    for algo in cfg.algos:
        ch = np.array(cols[algo]["c_hat"])
        pe = np.array(cols[algo]["pct_error"])
        covered = [c for c in cols[algo]["covered"] if c is not None]
        entry = {
            "replicates": len(ch),
            "failed": cols[algo]["errors"],
            "mean_c_hat": float(ch.mean()) if len(ch) else None,
            "mean_pct_error": float(pe.mean()) if len(pe) else None,
            "sd_pct_error": float(pe.std(ddof=1)) if len(pe) > 1 else None,
            "empirical_var": float(ch.var(ddof=1)) if len(ch) > 1 else None,
            "coverage": float(np.mean(covered)) if covered else None,
            "state_bytes": size[_sketch_type(algo).name] if len(ch) else None,
            "wall_s": round(wall[algo], 6),
        }
        if entry["empirical_var"]:
            entry["are_empirical"] = (c_exact**2 / cfg.m) / entry["empirical_var"]
        pivots = cols[algo]["pivot"]
        if len(pivots) > 7:
            entry["pivot_ks_stat"], entry["pivot_ks_pvalue"] = ks_gamma(pivots, cfg.m)
        summary[algo] = entry

    ratios = {}
    for a in cfg.algos:
        for b in cfg.algos:
            va, vb = summary[a]["empirical_var"], summary[b]["empirical_var"]
            if a != b and va and vb:
                ratios[f"{a}/{b}"] = va / vb

    report = ExperimentReport(
        config=asdict(cfg), method=method, exact_c=c_exact,
        summary=summary, variance_ratios=ratios,
    )
    for algo in cfg.algos:
        report.replicates[algo] = {k: v for k, v in cols[algo].items() if k != "errors"}
    return report


# -- the Kolmogorov-Smirnov test of the pivots -----------------------------

def ks_gamma(sample, m: int) -> tuple[float, float]:
    """The one-sample Kolmogorov-Smirnov statistic D of sample against the
    Gamma(m, 1) law, and its two-sided p-value P(D_n >= D), n = len(sample)."""
    x = np.sort(np.asarray(sample, dtype=np.float64))
    n = len(x)
    cdf = incomplete_gamma(m, x)[0]
    d = max((np.arange(1.0, n + 1) / n - cdf).max(), (cdf - np.arange(0.0, n) / n).max())
    return float(d), kolmogorov_sf(n, float(d))


def kolmogorov_sf(n: int, d: float) -> float:
    """P(D_n >= d) for the two-sided statistic of n points.

    While n d**2 < 2.2 and d < 1/2 this is one minus the exact CDF of
    Marsaglia, Tsang & Wang (J. Stat. Softw. 2003); above, twice Smirnov's
    exact one-sided tail, which is the two-sided one from d = 1/2 on and
    within exp(-6 n d**2) < 2e-6 relative of it before.
    """
    if n * d * d < 2.2 and d < 0.5:
        return max(0.0, 1.0 - _durbin_cdf(n, d))
    return min(1.0, 2.0 * _smirnov_sf(n, d))


def _durbin_cdf(n: int, d: float) -> float:
    """P(D_n < d): entry (k, k) of H**n times n!/n**n, H Durbin's
    (2k-1)-square matrix with k = floor(n d) + 1, powered by squaring with
    each product rescaled by a power of two."""
    k = int(n * d) + 1
    size = 2 * k - 1
    h = k - n * d
    i = np.arange(size)
    gap = i[:, None] - i + 1
    powers = h ** np.arange(1.0, size + 1)
    mat = (gap >= 0).astype(np.float64)
    mat[:, 0] -= powers
    mat[-1] -= powers[::-1]
    if h > 0.5:
        mat[-1, 0] += (2.0 * h - 1.0) ** size
    mat *= np.cumprod(np.r_[1.0, 1.0 / np.arange(1.0, size + 1)])[np.maximum(gap, 0)]

    def scaled(a, e):
        shift = math.frexp(np.abs(a).max())[1]
        return np.ldexp(a, -shift), e + shift

    out, out_e, base, base_e, left = np.eye(size), 0, mat, 0, n
    while left:
        if left & 1:
            out, out_e = scaled(out @ base, out_e + base_e)
        left >>= 1
        if left:
            base, base_e = scaled(base @ base, 2 * base_e)
    corner = out[k - 1, k - 1]
    if corner <= 0.0:
        return 0.0
    return min(1.0, math.exp(math.log(corner) + out_e * math.log(2.0)
                             + math.lgamma(n + 1.0) - n * math.log(n)))


def _smirnov_sf(n: int, d: float) -> float:
    """P(D_n^+ >= d) by the exact sum of Birnbaum & Tingey (1951):
    d sum_{j <= n(1-d)} C(n, j) (1 - d - j/n)**(n-j) (d + j/n)**(j-1)."""
    j = np.arange(int(n * (1.0 - d)) + 1, dtype=np.float64)
    log_binom = np.r_[0.0, np.cumsum(np.log((n - j[1:] + 1.0) / j[1:]))]
    with np.errstate(divide="ignore"):  # a last factor of exactly 0 is a zero term
        log_terms = (log_binom + (n - j) * np.log(np.maximum((n - j) / n - d, 0.0))
                     + (j - 1.0) * np.log(d + j / n))
    return float(d * np.exp(log_terms).sum())
