"""Which library calls the traced run wraps, and the per-layer metrics
computed from their spans.  A layer is a ``cardsketch`` module; ``streams``
is deliberately not wrapped, since the benchmark makes its own inputs.
"""

from __future__ import annotations

import statistics

import numpy as np

from tracer import END, ERROR, JOB, NAME, START, self_times, sketch_label

MAX_TYPES = ("max-uniform", "max-geom", "kth", "bernoulli")
ESTIMATED_MAX_TYPES = ("max-uniform", "max-exp", "max-geom", "kth", "bernoulli")
BASELINE_TYPES = ("loglog", "hll", "mincount")
SAMPLERS = ("continuous", "geometric", "kth", "bernoulli", "projection",
            "loglog", "hll", "mincount")


def _fixed(name):
    return lambda args: name


def _typed(prefix):
    return lambda args: f"{prefix}.{sketch_label(args[0])}"


def _cli_label(args):
    argv = args[0] if args else None
    return f"cli.{argv[0]}" if argv else "cli.main"


def _count_words(tracer, args):
    tracer.count("words", np.size(args[0]))


def _count_items(tracer, args):
    tracer.count("items", len(args[1]))


def _count_one_item(tracer, args):
    tracer.count("items", 1)


def _count_coupled_items(tracer, args):
    tracer.count("items", len(args[0]))


def _count_query(tracer, args):
    tracer.count("queries")
    signs = getattr(args[0], "signs", None)
    if signs is not None:
        tracer.count("nonpositive", int(np.count_nonzero(signs <= 0)))


def _count_replicates(tracer, args):
    tracer.count("replicates", getattr(args[0], "replicates", 0))


def _count_json(tracer, args, result):
    tracer.count("json_bytes", len(result.encode("utf-8")))


def _count_binary(tracer, args, result):
    tracer.count("binary_bytes", len(result))


def _targets():
    """(module, attribute, label, on_call, on_result, span) for each wrapped call."""
    t = [("hashing", "mix64_array", _fixed("hashing.mix64_array"), _count_words, None, False)]
    for fn in ("item_key", "uniform_block", "stable_log_block"):
        t.append(("hashing", fn, _fixed(f"hashing.{fn}"), None, None, True))
    for fn in ("geometric_variate", "bernoulli_variate", "exponential_variate"):
        t.append(("hashing", fn, _fixed("hashing.transform"), None, None, True))
    for cls in ("ContinuousMaxSketch", "GeometricMaxSketch", "KthOrderSketch", "BernoulliSketch"):
        t.append(("order_sketch", f"{cls}.add", _typed("order_sketch.add"), _count_one_item, None, True))
        t.append(("order_sketch", f"{cls}.add_batch", _typed("order_sketch.add_batch"), _count_items, None, True))
        for meth in ("merge", "estimate"):
            t.append(("order_sketch", f"{cls}.{meth}", _typed(f"order_sketch.{meth}"), None, None, True))
    for cls in ("LogLogSketch", "HyperLogLogSketch", "MinCountSketch"):
        t.append(("baselines", f"{cls}.add_batch", _typed("baselines.add_batch"), _count_items, None, True))
        for meth in ("merge", "estimate"):
            t.append(("baselines", f"{cls}.{meth}", _typed(f"baselines.{meth}"), None, None, True))
    t += [
        ("projection", "ProjectionSketch.add", _fixed("projection.add"), _count_one_item, None, True),
        ("projection", "ProjectionSketch.add_batch", _fixed("projection.add_batch"), _count_items, None, True),
        ("projection", "ProjectionSketch.merge", _fixed("projection.merge"), None, None, True),
        ("projection", "ProjectionSketch.estimate", _fixed("projection.estimate"), _count_query, None, True),
        ("projection", "ProjectionSketch.median_estimate", _fixed("projection.median_estimate"),
         _count_query, None, True),
        ("projection", "stable_median_log", _fixed("projection.stable_median_log"), None, None, True),
        ("projection", "coupled_residuals", _fixed("projection.coupled_residuals"),
         _count_coupled_items, None, True),
        ("estimate", "gamma_pivot_interval", _fixed("estimate.gamma_pivot_interval"), None, None, True),
        ("experiment", "run_experiment", _fixed("experiment.run_experiment"), _count_replicates, None, True),
        ("serialize", "dumps", _fixed("serialize.dumps"), None, _count_json, True),
        ("serialize", "loads", _fixed("serialize.loads"), None, None, True),
        ("serialize", "pack", _fixed("serialize.pack"), None, _count_binary, True),
        ("serialize", "unpack", _fixed("serialize.unpack"), None, None, True),
        ("cli", "main", _cli_label, None, None, True),
    ]
    for s in SAMPLERS:
        t.append(("sampling", f"sample_{s}", _fixed(f"sampling.sample.{s}"), None, None, True))
    return t


TARGETS = _targets()


def _median(xs) -> float:
    return statistics.median(xs) if xs else 0.0


def _percentile(xs, q) -> float:
    return float(np.percentile(xs, q)) if xs else 0.0


def layer_metrics(tracer, jobs: list) -> dict:
    """Per-layer metrics from the spans of the traced run.

    Totals marked "per job" are summed over the traced jobs and divided by
    their number; latencies are medians over every call, in any part of the
    run, that returned.  A layer a workload never calls reads 0.
    """
    spans = tracer.spans
    selfs = self_times(spans)
    job_set = set(jobs)
    n_jobs = max(1, len(jobs))

    def per_job(name, use_self=False, startswith=False):
        total = 0.0
        for i, rec in enumerate(spans):
            if rec[JOB] in job_set and (rec[NAME].startswith(name) if startswith else rec[NAME] == name):
                total += selfs[i] if use_self else rec[END] - rec[START]
        return total / n_jobs

    def calls(name, job=None):
        return [rec[END] - rec[START] for rec in spans
                if rec[NAME] == name and not rec[ERROR] and (job is None or rec[JOB] == job)]

    def counted(counter):
        return sum(v for (c, job), v in tracer.counts.items() if c == counter and job in job_set) / n_jobs

    item_key = calls("hashing.item_key")
    items = counted("items")
    run_exp = per_job("experiment.run_experiment")
    first_median = calls("projection.stable_median_log")
    order_adds = calls("order_sketch.add.max-uniform", job="adds")
    proj_adds = calls("projection.add", job="adds")
    query_failures = sum(
        1 for rec in spans
        if rec[JOB] in job_set and rec[ERROR]
        and rec[NAME] in ("projection.estimate", "projection.median_estimate")
    ) / n_jobs

    out = {
        "hashing.item_key_us_per_key": 1e6 * sum(item_key) / len(item_key) if item_key else 0.0,
        "hashing.mix64_words_per_item": counted("words") / items if items else 0.0,
        "hashing.uniform_block_s": per_job("hashing.uniform_block"),
        "hashing.transform_s": per_job("hashing.transform"),
        "hashing.stable_log_block_s": per_job("hashing.stable_log_block"),
        "order_sketch.add_p50_us": 1e6 * _median(order_adds),
        "order_sketch.add_p90_us": 1e6 * _percentile(order_adds, 90),
        "order_sketch.merge_ms": 1e3 * per_job("order_sketch.merge.", startswith=True),
        "baselines.add_batch_s.hll": per_job("baselines.add_batch.hll"),
        "projection.add_batch_self_s": per_job("projection.add_batch", use_self=True),
        "projection.add_p50_us": 1e6 * _median(proj_adds),
        "projection.add_p90_us": 1e6 * _percentile(proj_adds, 90),
        "projection.merge_ms": 1e3 * per_job("projection.merge"),
        "projection.queries": counted("queries"),
        "projection.query_failures": query_failures,
        "projection.nonpositive_accumulators": counted("nonpositive"),
        "projection.stable_median_log_first_s": first_median[0] if first_median else 0.0,
        "projection.estimate_us": 1e6 * _median(calls("projection.estimate")),
        "projection.median_estimate_us": 1e6 * _median(calls("projection.median_estimate")),
        "projection.coupled_residuals_s": per_job("projection.coupled_residuals"),
        "estimate.gamma_pivot_interval_us": 1e6 * _median(calls("estimate.gamma_pivot_interval")),
        "experiment.self_s": per_job("experiment.run_experiment", use_self=True),
        "experiment.replicates_per_s": counted("replicates") / run_exp if run_exp else 0.0,
        "serialize.dumps_ms": 1e3 * per_job("serialize.dumps"),
        "serialize.loads_ms": 1e3 * per_job("serialize.loads"),
        "serialize.pack_ms": 1e3 * per_job("serialize.pack"),
        "serialize.unpack_ms": 1e3 * per_job("serialize.unpack"),
        "serialize.json_bytes": counted("json_bytes"),
        "serialize.binary_bytes": counted("binary_bytes"),
        "cli.sketch_self_s": per_job("cli.sketch", use_self=True),
        "cli.merge_ms": 1e3 * per_job("cli.merge"),
        "cli.estimate_ms": 1e3 * per_job("cli.estimate"),
    }
    for t in MAX_TYPES:
        out[f"order_sketch.add_batch_self_s.{t}"] = per_job(f"order_sketch.add_batch.{t}", use_self=True)
    for t in ESTIMATED_MAX_TYPES:
        out[f"order_sketch.estimate_us.{t}"] = 1e6 * _median(calls(f"order_sketch.estimate.{t}"))
    for t in BASELINE_TYPES:
        out[f"baselines.estimate_us.{t}"] = 1e6 * _median(calls(f"baselines.estimate.{t}"))
    for s in SAMPLERS:
        out[f"sampling.sample_us.{s}"] = 1e6 * _median(calls(f"sampling.sample.{s}"))
    return out
