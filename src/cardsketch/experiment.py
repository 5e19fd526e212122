"""Replicated estimation experiments: build sketches over synthetic streams,
estimate, and aggregate percent errors, empirical variances, efficiency
ratios and pivot diagnostics.

Replicates run in one of two modes.  "hash" ingests every stream through
the real seeded-hash path; "sampled" draws each sketch state directly from
its exact sampling distribution under the truly-random-hash idealization
(see sampling module), which makes desk-scale replication of large-c
configurations affordable.  "auto" picks hash while c*m*replicates stays
small.  Either way a (config, seed) pair fixes the report bytes.
"""

from __future__ import annotations

import csv
import io
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import SketchError
from .hashing import item_key, mix64
from .inference import optimal_lambda
from .serialize import json_dumps
from .sketch_types import TYPES
from .streams import exact_count, generate_stream

# every sketch type, plus "median": the projection sketch read through its
# median estimator
ALGOS = tuple(TYPES) + ("median",)

# full hash ingestion is kept below ~2^25 hashed words per experiment
_HASH_BUDGET = 1 << 25


@dataclass
class ExperimentConfig:
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
        if self.c < 1 or self.m < 1 or self.replicates < 1:
            raise ValueError("c, m and replicates must all be >= 1")
        self.algos = tuple(self.algos)
        for a in self.algos:
            if a not in ALGOS:
                raise ValueError(f"unknown algorithm {a!r}")
        if self.method not in ("hash", "sampled", "auto"):
            raise ValueError(f"unknown method {self.method!r}")

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
        return json_dumps(doc, indent=indent, sort_keys=True)

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


def _plain(values, cast) -> list:
    """JSON-ready column: each value cast, None kept as null."""
    return [None if v is None else cast(v) for v in values]


def _rep_rng(seed: int, rep: int):
    return np.random.default_rng((int(seed) & 0xFFFFFFFFFFFFFFFF, 0xC0DE, rep))


def _algo_salt(seed: int, rep: int, algo: str) -> int:
    return mix64(mix64(seed ^ (rep * 0x9E3779B97F4A7C15)) ^ item_key(algo))


def _sketch_type(algo: str):
    return TYPES["projection" if algo == "median" else algo]


def _params(t, cfg: ExperimentConfig) -> dict:
    return {n: cfg.bernoulli_p() if n == "p" else getattr(cfg, n)
            for n in t.param_names}


def _estimate(algo: str, sk, level: float):
    """(c_hat, (ci_lo, ci_hi) or None, pivot or None) for one replicate."""
    if algo == "median":
        # the median estimator carries no interval of its own
        return sk.median_estimate(), None, None
    est = sk.estimate(level)
    pivot = sk.pivot_sum() if hasattr(sk, "pivot_sum") else None
    return est.c_hat, est.ci, pivot


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    method = cfg.resolved_method()
    c_exact = cfg.c
    cols = {
        a: {"c_hat": [], "pct_error": [], "ci_lo": [], "ci_hi": [],
            "covered": [], "pivot": [], "errors": 0}
        for a in cfg.algos
    }
    wall = {a: 0.0 for a in cfg.algos}
    state_bytes = {a: None for a in cfg.algos}

    for rep in range(cfg.replicates):
        rng = _rep_rng(cfg.seed, rep)
        stream = None
        if method == "hash":
            stream = generate_stream(
                cfg.c, seed=int(rng.integers(0, 2**63)), repeats=cfg.repeats,
                heavy_tail=cfg.heavy_tail, d_model=cfg.d_model,
                deleted_extra=cfg.deleted_extra)
            c_exact = exact_count(stream)
        built = {}  # type name -> this replicate's sketch, shared by its algorithms
        for algo in cfg.algos:
            t0 = time.perf_counter()
            try:
                t = _sketch_type(algo)
                sk = built.get(t.name)
                if sk is None:
                    params = _params(t, cfg)
                    if method == "hash":
                        sk = t.build(cfg.m, _algo_salt(cfg.seed, rep, algo), params)
                        sk.add_batch(stream.keys, stream.d)
                    else:
                        sk = t.sample(cfg.c, cfg.m, rng, params)
                    built[t.name] = sk
                c_hat, ci, pivot = _estimate(algo, sk, cfg.level)
            except SketchError:
                cols[algo]["errors"] += 1
                wall[algo] += time.perf_counter() - t0
                continue
            wall[algo] += time.perf_counter() - t0
            state_bytes[algo] = sk.state_bytes()
            cols[algo]["c_hat"].append(c_hat)
            cols[algo]["pct_error"].append(100.0 * abs(c_hat - c_exact) / c_exact)
            lo, hi = ci if ci is not None else (None, None)
            cols[algo]["ci_lo"].append(lo)
            cols[algo]["ci_hi"].append(hi)
            cols[algo]["covered"].append(None if ci is None else lo <= c_exact <= hi)
            if pivot is not None:
                cols[algo]["pivot"].append(pivot * c_exact)

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
            "state_bytes": state_bytes[algo],
            "wall_s": round(wall[algo], 6),
        }
        if entry["empirical_var"]:
            entry["are_empirical"] = (c_exact**2 / cfg.m) / entry["empirical_var"]
        pivots = cols[algo]["pivot"]
        if len(pivots) > 7:
            from scipy.stats import kstest  # costs most of a second to import
            ks = kstest(np.array(pivots), "gamma", args=(cfg.m,))
            entry["pivot_ks_stat"] = float(ks.statistic)
            entry["pivot_ks_pvalue"] = float(ks.pvalue)
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
        report.replicates[algo] = {
            k: _plain(v, bool if k == "covered" else float)
            for k, v in cols[algo].items()
            if k in ("c_hat", "pct_error", "ci_lo", "ci_hi", "covered", "pivot")
        }
    return report
