"""The four workloads: one timed job each, the checks on its outputs, and
the calls timed for estimate latency and single-item updates.

Every call into the library goes through a module attribute at call time
(``self.cs.projection.coupled_residuals(...)``, ``self.cli.main(...)``), so
that the traced run's wrappers see it.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from time import perf_counter

import numpy as np

import inputs

# an estimate whose log-ratio to the exact count exceeds this many of its
# own relative standard errors (std_error / c_hat) is a wrong answer.  These
# estimators are close to lognormal, so the band is symmetric on a log scale:
# for a relative error of 1/sqrt(128) it spans about 0.59c..1.7c, which
# rejects halved or doubled estimates, while a correct estimator fails it
# with probability near 1e-9
WIDE_SE = 6.0
# relative standard error of the projection median estimator per 1/sqrt(m):
# for small alpha, c * V**-alpha is close to Exponential(1), whose sample
# median has relative error 1/(ln 2 * sqrt(m))
MEDIAN_REL_SE = 1.0 / math.log(2.0)
# share of an algorithm's simulated replicates allowed outside the close()
# band.  MinCount's per-bucket k-th order statistics give its estimate a
# power-law right tail: a correct MinCount lands one of 200 replicates at
# about 2c in roughly 1% of seeds, and three or more about once in 1e7
REPLICATE_TOLERANCE = 0.01


class Ledger:
    """Checked operations: attempted, failed (raised or returned a wrong
    answer), and wrong (returned a wrong answer without raising)."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.errors = {}

    def outcome(self) -> tuple:
        """Everything the ledger holds, for comparing two runs of one job."""
        return self.attempted, self.failed, self.wrong, sorted(self.errors.items())

    def record(self, ok: bool, wrong: bool = False) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
        if wrong:
            self.wrong += 1

    def _raised(self, exc: Exception) -> None:
        self.record(False)
        name = type(exc).__name__
        self.errors[name] = self.errors.get(name, 0) + 1

    def call(self, fn, *args):
        """Run one operation; an exception counts as a failed operation."""
        try:
            result = fn(*args)
        except Exception as exc:  # a failing call must never abort the run
            self._raised(exc)
            return None
        self.record(True)
        return result

    def check_close(self, fn, truth: float, std_error=None) -> None:
        """One estimate call: fails if it raises, is wrong if it returns a
        value that is not close() to the truth.  fn returns an Estimate, or
        a bare float when std_error(value) is given."""
        try:
            est = fn()
        except Exception as exc:  # a failing call must never abort the run
            self._raised(exc)
            return
        if std_error is None:
            value, se = est.c_hat, est.std_error
        else:
            value, se = est, std_error(est)
        ok = close(value, se, truth)
        self.record(ok, wrong=not ok)

    def check_same(self, a, b) -> None:
        ok = same_state(a, b)
        self.record(ok, wrong=not ok)


def close(value: float, std_error: float, truth: float) -> bool:
    """value lies within WIDE_SE relative standard errors of truth, on a log scale."""
    return value > 0 and abs(math.log(value / truth)) <= WIDE_SE * std_error / value


def same_state(a, b) -> bool:
    """Bit-for-bit equality of two sketches' attributes."""
    if a is None or b is None or type(a) is not type(b):
        return False
    va, vb = vars(a), vars(b)
    if va.keys() != vb.keys():
        return False
    for key, x in va.items():
        y = vb[key]
        if isinstance(x, np.ndarray):
            if not (isinstance(y, np.ndarray) and x.dtype == y.dtype
                    and x.shape == y.shape and x.tobytes() == y.tobytes()):
                return False
        elif x != y:
            return False
    return True


def _first_quantiles(cs) -> None:
    cs.estimate.gamma_pivot_interval(1.0, inputs.M, 0.95)
    cs.estimate.normal_interval(1.0, 0.1, 0.95)


class Workload:
    name = ""
    # python run in a fresh interpreter after `import cardsketch as cs`,
    # completing the lazy initialisation the workload pays for
    setup_code = ("cs.estimate.gamma_pivot_interval(1.0, 128, 0.95); "
                  "cs.estimate.normal_interval(1.0, 0.1, 0.95)")
    setup_imports = "import cardsketch as cs"

    def __init__(self, cs, seed: int, workdir: str):
        self.cs = cs
        self.workdir = workdir

    def lazy_init(self) -> None:
        _first_quantiles(self.cs)

    def job(self, ledger: Ledger) -> tuple:
        """One job; returns (items ingested, seconds spent ingesting)."""
        raise NotImplementedError

    def checks(self, ledger: Ledger) -> None:
        """Untimed checks run once, after a job."""

    def sketch_bytes(self) -> int:
        raise NotImplementedError

    def estimate_calls(self) -> dict:
        """Sketch type -> zero-argument estimate call, timed in the traced run."""
        raise NotImplementedError

    def update_calls(self):
        """Zero-argument single-item updates for the traced run, or None."""
        return None


class BulkIngest(Workload):
    name = "bulk-ingest"
    TYPES = ("max-uniform", "max-geom", "kth", "bernoulli", "hll")

    def __init__(self, cs, seed, workdir):
        super().__init__(cs, seed, workdir)
        self.inp = inputs.bulk_inputs(seed)
        self.p = cs.inference.optimal_lambda() / self.inp.true_count
        self.merged = {}

    def _make(self, t):
        cs, salt = self.cs, self.inp.salt
        if t == "max-uniform":
            return cs.order_sketch.ContinuousMaxSketch(inputs.M, salt)
        if t == "max-geom":
            return cs.order_sketch.GeometricMaxSketch(inputs.M, 10.0 / 11.0, salt)
        if t == "kth":
            return cs.order_sketch.KthOrderSketch(inputs.M, 3, salt)
        if t == "bernoulli":
            return cs.order_sketch.BernoulliSketch(inputs.M, self.p, salt)
        return cs.baselines.HyperLogLogSketch(inputs.M, salt)

    def job(self, ledger):
        ingest_s = 0.0
        parts = {t: [] for t in self.TYPES}
        for keys in self.inp.shards:
            for t in self.TYPES:
                sk = self._make(t)
                t0 = perf_counter()
                ledger.call(sk.add_batch, keys)
                ingest_s += perf_counter() - t0
                parts[t].append(sk)
        for t in self.TYPES:
            merged = self.merged[t] = ledger.call(parts[t][0].merge, parts[t][1])
            if merged is None:
                ledger.record(False)
            else:
                ledger.check_close(merged.estimate, self.inp.true_count)
        return len(self.TYPES) * sum(len(k) for k in self.inp.shards), ingest_s

    def checks(self, ledger):
        whole = np.concatenate(self.inp.shards)
        for t in self.TYPES:
            one_pass = self._make(t)
            one_pass.add_batch(whole)
            ledger.check_same(one_pass, self.merged[t])
            _round_trips(self.cs, ledger, self.merged[t])

    def sketch_bytes(self):
        return sum(len(self.cs.serialize.pack(sk)) for sk in self.merged.values())

    def estimate_calls(self):
        return {t: self.merged[t].estimate for t in self.TYPES}

    def update_calls(self):
        sk = self.cs.order_sketch.ContinuousMaxSketch(inputs.M, self.inp.salt)
        return [(sk.add, key) for key in self.inp.update_keys]


def _round_trips(cs, ledger, sk) -> None:
    for encode, decode in ((cs.serialize.dumps, cs.serialize.loads),
                           (cs.serialize.pack, cs.serialize.unpack)):
        try:
            back = decode(encode(sk))
        except Exception:  # a failing codec is a failed check, not a crash
            back = None
        ledger.check_same(back, sk)


class CliText(Workload):
    name = "cli-text"
    setup_imports = "import cardsketch as cs, cardsketch.cli"
    # (sketch type, m, binary output)
    SKETCHES = (("max-uniform", inputs.M, False), ("hll", 1024, True))

    def __init__(self, cs, seed, workdir):
        super().__init__(cs, seed, workdir)
        import cardsketch.cli
        self.cli = cardsketch.cli
        self.inp = inputs.cli_inputs(seed)
        self.shards = []
        for i, text in enumerate(self.inp.shard_texts):
            path = os.path.join(workdir, f"shard{i}.txt")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            self.shards.append(path)

    def _out(self, t, part, binary):
        return os.path.join(self.workdir, f"{t}-{part}.{'bin' if binary else 'json'}")

    def run_cli(self, argv):
        """In-process ``cardsketch`` call; returns (exit code, stdout)."""
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = self.cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        return code, out.getvalue()

    def job(self, ledger):
        sketch_s = 0.0
        for i, path in enumerate(self.shards):
            for t, m, binary in self.SKETCHES:
                argv = ["sketch", "--type", t, "--m", str(m), "--seed", str(self.inp.salt),
                        "--in", path, "--out", self._out(t, i, binary)]
                t0 = perf_counter()
                code, _ = self.run_cli(argv + (["--binary"] if binary else []))
                sketch_s += perf_counter() - t0
                ledger.record(code == 0)
        for t, _, binary in self.SKETCHES:
            argv = ["merge", self._out(t, 0, binary), self._out(t, 1, binary),
                    "--out", self._out(t, "merged", binary)]
            code, _ = self.run_cli(argv + (["--binary"] if binary else []))
            ledger.record(code == 0)
        for t, _, binary in self.SKETCHES:
            code, text = self.run_cli(["estimate", self._out(t, "merged", binary)])
            if code != 0:
                ledger.record(False)
                continue
            doc = json.loads(text)
            ledger.check_close(lambda: doc["c_hat"], self.inp.true_count,
                               std_error=lambda _: doc["std_error"])
        items = len(self.SKETCHES) * len(self.inp.all_ids)
        return items, sketch_s

    def _merged(self, t, binary):
        with open(self._out(t, "merged", binary), "rb") as fh:
            return self.cs.serialize.load_any(fh.read())

    def checks(self, ledger):
        cs = self.cs
        for t, m, binary in self.SKETCHES:
            if t == "hll":
                one_pass = cs.baselines.HyperLogLogSketch(m, self.inp.salt)
            else:
                one_pass = cs.order_sketch.ContinuousMaxSketch(m, self.inp.salt)
            one_pass.add_batch(self.inp.all_ids)
            merged = ledger.call(self._merged, t, binary)
            ledger.check_same(merged, one_pass)
            _round_trips(cs, ledger, one_pass)

    def sketch_bytes(self):
        return sum(os.path.getsize(self._out(t, "merged", binary))
                   for t, _, binary in self.SKETCHES)

    def estimate_calls(self):
        return {t: (lambda path=self._out(t, "merged", binary): self.run_cli(["estimate", path]))
                for t, _, binary in self.SKETCHES}


class Turnstile(Workload):
    name = "turnstile"
    setup_code = Workload.setup_code + "; cs.projection.stable_median_log(0.05)"

    def __init__(self, cs, seed, workdir):
        super().__init__(cs, seed, workdir)
        self.inp = inputs.turnstile_inputs(seed)
        self.merged = []
        tenant = self.inp.tenants[0]
        shard = tenant.shards[0]
        lo, hi = shard.batches[0]
        # the first micro-batch holds insertions only, so this state is valid
        # whatever the deletion path does: the traced run times queries that
        # return on it
        self.snapshot = self._new(tenant.salt)
        self.snapshot.add_batch(shard.keys[lo:hi], shard.d[lo:hi])

    def lazy_init(self):
        _first_quantiles(self.cs)
        self.cs.projection.stable_median_log(inputs.ALPHA)

    def _new(self, salt):
        return self.cs.projection.ProjectionSketch(inputs.M, inputs.ALPHA, salt)

    def _query(self, ledger, sk, truth):
        median_se = lambda v: MEDIAN_REL_SE * v / math.sqrt(inputs.M)  # noqa: E731
        if sk is None:
            ledger.record(False)
            ledger.record(False)
            return
        ledger.check_close(sk.estimate, truth)
        ledger.check_close(sk.median_estimate, truth, std_error=median_se)

    def job(self, ledger):
        ingest_s = 0.0
        items = 0
        self.merged = []
        for tenant in self.inp.tenants:
            built = []
            for shard in tenant.shards:
                sk = self._new(tenant.salt)
                for b, (lo, hi) in enumerate(shard.batches):
                    t0 = perf_counter()
                    ledger.call(sk.add_batch, shard.keys[lo:hi], shard.d[lo:hi])
                    ingest_s += perf_counter() - t0
                    items += hi - lo
                    if b in shard.queries:
                        self._query(ledger, sk, shard.queries[b])
                built.append(sk)
            merged = ledger.call(built[0].merge, built[1])
            self._query(ledger, merged, tenant.true_count)
            self.merged.append(merged)
        return items, ingest_s

    def sketch_bytes(self):
        return sum(len(self.cs.serialize.pack(sk)) for sk in self.merged)

    def estimate_calls(self):
        return {"estimate": self.snapshot.estimate,
                "median_estimate": self.snapshot.median_estimate}

    def update_calls(self):
        sk = self._new(self.inp.tenants[0].salt)
        calls = []
        for i, key in enumerate(self.inp.update_keys):
            d = 1 + i % 10
            calls.append((sk.add, key, d))
            calls.append((sk.add, key, -d))
        return calls


class Simulate(Workload):
    name = "simulate"
    setup_code = Workload.setup_code + "; cs.projection.stable_median_log(0.05)"

    def __init__(self, cs, seed, workdir):
        super().__init__(cs, seed, workdir)
        self.inp = inputs.simulate_inputs(seed)
        self.canonical = None
        self.report = None

    def lazy_init(self):
        _first_quantiles(self.cs)
        self.cs.projection.stable_median_log(inputs.ALPHA)

    def job(self, ledger):
        cs = self.cs
        cfg = cs.experiment.ExperimentConfig(**self.inp.config)
        report = ledger.call(cs.experiment.run_experiment, cfg)
        if report is not None:
            self.report = report
            self._check_report(ledger, report)
        t0 = perf_counter()
        run = ledger.call(cs.projection.coupled_residuals, self.inp.coupled_keys, inputs.M,
                          inputs.ALPHA, self.inp.coupled_salt)
        ingest_s = perf_counter() - t0
        if run is not None:
            ok = bool(run.sandwich_ok) and run.c == len(self.inp.coupled_keys)
            ledger.record(ok, wrong=not ok)
        return len(self.inp.coupled_keys), ingest_s

    def _check_report(self, ledger, report):
        canonical = report.to_json(canonical=True)
        if self.canonical is None:
            self.canonical = canonical
        same = canonical == self.canonical
        ledger.record(same, wrong=not same)
        c = self.inp.config["c"]
        z = 1.959963984540054
        for algo in self.inp.config["algos"]:
            cols = report.replicates.get(algo, {})
            n = outside = 0
            for c_hat, lo, hi in zip(cols.get("c_hat", []), cols.get("ci_lo", []),
                                     cols.get("ci_hi", [])):
                if lo is not None and hi is not None and math.isfinite(hi):
                    se = (hi - lo) / (2.0 * z)
                else:  # the median estimator reports no interval
                    se = MEDIAN_REL_SE * c_hat / math.sqrt(inputs.M)
                n += 1
                outside += not close(c_hat, se, c)
            ok = n > 0 and outside <= REPLICATE_TOLERANCE * n
            ledger.record(ok, wrong=not ok)
            for _ in range(int(report.summary.get(algo, {}).get("failed") or 0)):
                ledger.record(False)

    def sketch_bytes(self):
        return sum(int(s.get("state_bytes") or 0) for s in self.report.summary.values())

    def estimate_calls(self):
        cs, m, c = self.cs, inputs.M, self.inp.config["c"]
        cfg = cs.experiment.ExperimentConfig(**self.inp.config)
        rng = np.random.default_rng(self.inp.sample_seed)
        smp = cs.sampling
        proj = smp.sample_projection(c, m, inputs.ALPHA, rng)
        sketches = {
            "max-uniform": smp.sample_continuous(c, m, rng, "uniform"),
            "max-exp": smp.sample_continuous(c, m, rng, "exponential"),
            "max-geom": smp.sample_geometric(c, m, cfg.q, rng),
            "kth": smp.sample_kth(c, cfg.k, m, rng),
            "bernoulli": smp.sample_bernoulli(c, m, cfg.bernoulli_p(), rng),
            "projection": proj,
            "loglog": smp.sample_loglog(c, m, rng),
            "hll": smp.sample_hll(c, m, rng),
            "mincount": smp.sample_mincount(c, m, rng),
        }
        calls = {algo: sk.estimate for algo, sk in sketches.items()}
        calls["median"] = proj.median_estimate
        return calls


WORKLOADS = {w.name: w for w in (BulkIngest, CliText, Turnstile, Simulate)}
