"""Run one cardsketch benchmark workload and print its metrics.

    python3 bench/run.py --workload bulk-ingest --seed 1 --seconds 25 --trace 0

The inputs are made from --seed.  With --trace 0 the run measures the
end-to-end metrics with tracing off; with --trace 1 it wraps the library's
public calls and reports per-layer metrics instead (see README.md).  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the line before it is the run record.

The library is imported from src/ of the checkout this file sits in, never
from an installed copy; without src/ the run exits with code 2.
"""

import argparse
import contextlib
import functools
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

SETUP_SHARE = 0.3       # share of --seconds spent on setup_s probes
MIN_SETUP_RUNS = 3      # setup_s probes at least, however short --seconds is
IMPORT_RUNS = 3         # `python -X importtime` probes per traced run
MIN_JOBS = 3            # timed jobs at least, however short --seconds is
MIN_ESTIMATE_ROUNDS = 100
MIN_UPDATES = 400
CHILD_TIMEOUT_S = 120

# set before numpy is imported, here and in every child interpreter
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}

# The shared host's speed drifts by 20-40% over minutes, and interpreter-
# bound code slows more than bulk numpy work.  A reference kernel timed
# before and after every setup probe and every job measures that drift, and
# setup_s, job_s and ingest_items_per_s are reported in seconds of a
# nominal host on which the kernel takes REFERENCE_S.  Its three parts are
# weighted so that it tracks every workload (see README.md).
REFERENCE_NUMPY_ROUNDS = 4
REFERENCE_PYTHON_ROUNDS = 20
REFERENCE_MEMORY_ROUNDS = 1
REFERENCE_REPEATS = 3
REFERENCE_S = 0.015

# the traced run times this many jobs untraced, then as many traced (spans
# stay in memory, so their number is fixed), then gives single-item updates
# and estimate calls each this share of --seconds
TRACED_JOBS = 3
UPDATE_SHARE = 0.15


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def run_child(argv) -> subprocess.CompletedProcess:
    proc = subprocess.run(argv, env=child_env(), cwd=ROOT, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"child {argv[1:3]} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return proc


def measure_setup(wl) -> float:
    """Import plus the workload's lazy initialisation, in a fresh interpreter."""
    code = "\n".join([
        "import time",
        "t0 = time.perf_counter()",
        wl.setup_imports,
        wl.setup_code,
        "print(repr(time.perf_counter() - t0))",
    ])
    return float(run_child([sys.executable, "-c", code]).stdout.split()[-1])


def import_cumulative(stderr: str, package: str) -> float:
    """Microseconds spent importing package and its submodules, from the
    tree `python -X importtime` prints (children before their parent, one
    indentation step per level).  A package imported lazily has no line of
    its own, so the cumulative times of its outermost submodules are summed.
    """
    rows = []
    for line in stderr.splitlines():
        parts = line.split("|")
        if not line.startswith("import time:") or len(parts) != 3:
            continue
        try:
            cumulative = int(parts[1])
        except ValueError:  # the header line
            continue
        name = parts[2].strip()
        rows.append((len(parts[2]) - len(parts[2].lstrip()), name, cumulative))

    def inside(name):
        return name == package or name.startswith(package + ".")

    total = 0
    for i, (indent, name, cumulative) in enumerate(rows):
        if inside(name):
            parent = next((n for d, n, _ in rows[i + 1:] if d < indent), None)
            if parent is None or not inside(parent):
                total += cumulative
    return total


def import_times() -> dict:
    """Import times from `python -X importtime`, medians over fresh interpreters."""
    modules = {"cardsketch": "cardsketch", "scipy_stats": "scipy.stats", "numpy": "numpy"}
    runs = [run_child([sys.executable, "-X", "importtime", "-c", "import cardsketch"]).stderr
            for _ in range(IMPORT_RUNS)]
    return {f"import.{key}_s": statistics.median(import_cumulative(r, mod) for r in runs) / 1e6
            for key, mod in modules.items()}


@functools.lru_cache(maxsize=None)
def _reference_inputs():
    import numpy as np

    words = np.random.default_rng(7).integers(0, 2**63, size=1 << 16, dtype=np.uint64)
    return words, [f"w{i:05d}" for i in range(4096)]


def _reference_kernel() -> float:
    import numpy as np

    words, names = _reference_inputs()
    # made afresh on each call, so that it never adds to peak_rss_mb
    big = np.full(1 << 20, 1.5)
    t0 = perf_counter()
    for _ in range(REFERENCE_NUMPY_ROUNDS):
        h = words * np.uint64(0x9E3779B97F4A7C15)
        h ^= h >> np.uint64(31)
        u = (h >> np.uint64(11)).astype(np.float64) * 2.0**-53
        np.sort(u)
        np.log1p(u).sum()
    counts = {}
    for _ in range(REFERENCE_PYTHON_ROUNDS):
        for name in names:
            counts[name] = counts.get(name, 0) + len(name)
    for _ in range(REFERENCE_MEMORY_ROUNDS):
        y = big * 1.0001
        y += big
        y.sum()
    return perf_counter() - t0


def reference_s() -> float:
    """Wall seconds of a fixed kernel that calls nothing in the library:
    numpy hashing, sorting and logs over 2**16 words, dict updates over
    4096 strings in the interpreter, then arithmetic streaming through an
    8 MiB array, larger than the caches; the median of REFERENCE_REPEATS
    timings, so that one preempted timing does not count.  Timed next to
    the workload, it measures how fast the shared host runs at that moment."""
    return statistics.median(_reference_kernel() for _ in range(REFERENCE_REPEATS))


def host_factors(references) -> list:
    """For each sample timed between references[i] and references[i + 1],
    how much slower than the nominal host the host ran: the mean of the
    two reference times over REFERENCE_S."""
    return [(a + b) / (2.0 * REFERENCE_S) for a, b in zip(references, references[1:])]


def host_scaled(samples, references) -> float:
    """Median of wall-time samples in seconds of the nominal host."""
    return statistics.median(x / f for x, f in zip(samples, host_factors(references)))


def timed_job(wl, expected: tuple) -> tuple:
    """One job, checked into a fresh ledger; returns its wall seconds, its
    ingest rate in items/s, and whether its checked outcome matched the
    counted job's (jobs of one run repeat the same inputs)."""
    from workloads import Ledger

    ledger = Ledger()
    t0 = perf_counter()
    items, ingest_s = wl.job(ledger)
    elapsed = perf_counter() - t0
    return elapsed, items / ingest_s, ledger.outcome() == expected


def counted_job(wl):
    """The warm-up job, the only one whose operations are counted, so that
    attempted and failed depend on the seed alone, not on how many jobs
    fit in --seconds.  Returns its ledger and the ledger's outcome."""
    from workloads import Ledger

    ledger = Ledger()
    wl.job(ledger)
    return ledger, ledger.outcome()


def record_mismatches(ledger, jobs) -> None:
    """A repeated job whose outcome differs from the counted job's is a
    wrong answer: the same inputs must give the same results."""
    for *_, same in jobs:
        if not same:
            ledger.record(False, wrong=True)


def run_estimates(calls: dict, budget: float) -> None:
    """Estimate calls, interleaved across sketch types, for the budget."""
    end = perf_counter() + budget
    rounds = 0
    while rounds < MIN_ESTIMATE_ROUNDS or perf_counter() < end:
        for fn in calls.values():
            fn()
        rounds += 1


def run_updates(calls, budget: float) -> None:
    """Single-item updates, cycling through calls, for the budget."""
    end = perf_counter() + budget
    for i, (fn, *args) in enumerate(itertools.cycle(calls)):
        if i >= MIN_UPDATES and perf_counter() >= end:
            break
        fn(*args)


def result_metrics(values: dict, traced: bool) -> dict:
    """Attach units from BENCHMARK.json, refusing a metric set that differs
    from the one it declares for this kind of run."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if traced else "end_to_end"]}
    if set(values) != set(units):
        missing = sorted(set(units) - set(values))
        extra = sorted(set(values) - set(units))
        raise KeyError(f"metric set mismatch: missing {missing}, unexpected {extra}")
    return {name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(wl, seconds: float):
    """End-to-end metrics, tracing off.

    setup_s probes take the first SETUP_SHARE of --seconds and timed jobs
    the rest; every metric is a median over its samples.  The probes come
    first and a warm-up job separates them from the timed jobs: a job that
    directly follows a probe's child interpreter runs slower, and jobs
    interleaved with probes spread four times as widely between runs.
    The reference kernel runs before and after each probe and each job,
    and the timings are scaled by it (see host_scaled).
    """
    # before the first reference kernel: run after it, the temporaries of
    # stable_median_log stayed resident and added 11 MiB to peak_rss_mb
    wl.lazy_init()
    reference_s()  # warm-up: the kernel's first call pays for first-touch pages
    setup, setup_refs = [], [reference_s()]
    end = perf_counter() + SETUP_SHARE * seconds
    while len(setup) < MIN_SETUP_RUNS or perf_counter() < end:
        setup.append(measure_setup(wl))
        setup_refs.append(reference_s())
    ledger, expected = counted_job(wl)  # also the warm-up: first-call costs are not a job's
    jobs, job_refs = [], [reference_s()]
    end = perf_counter() + (1.0 - SETUP_SHARE) * seconds
    while len(jobs) < MIN_JOBS or perf_counter() < end:
        jobs.append(timed_job(wl, expected))
        job_refs.append(reference_s())
    peak = peak_rss_mb()  # before the checks, whose one-pass sketches are not the job's
    record_mismatches(ledger, jobs)
    wl.checks(ledger)
    values = {
        "setup_s": host_scaled(setup, setup_refs),
        "job_s": host_scaled([t for t, *_ in jobs], job_refs),
        "ingest_items_per_s": statistics.median(
            r * f for (_, r, _), f in zip(jobs, host_factors(job_refs))),
        "peak_rss_mb": peak,
        "success_rate": (ledger.attempted - ledger.failed) / ledger.attempted,
        "sketch_bytes": wl.sketch_bytes(),
    }
    return ledger, values


def measure_traced(wl, seconds: float, spans_path: Path):
    """Per-layer metrics from a traced run, plus the tracing overhead."""
    from layers import TARGETS, layer_metrics
    from tracer import Tracer

    values = import_times()
    tracer = Tracer()
    tracer.install("cardsketch", TARGETS)
    try:
        wl.lazy_init()
    finally:
        tracer.uninstall()
    ledger, expected = counted_job(wl)
    plain = [timed_job(wl, expected) for _ in range(TRACED_JOBS)]
    jobs = [f"job{i}" for i in range(TRACED_JOBS)]
    traced = []
    tracer.install("cardsketch", TARGETS)
    try:
        for job in jobs:
            tracer.job = job
            traced.append(timed_job(wl, expected))
        updates = wl.update_calls()
        if updates:
            tracer.job = "adds"
            run_updates(updates, UPDATE_SHARE * seconds)
        tracer.job = "estimates"
        run_estimates(wl.estimate_calls(), UPDATE_SHARE * seconds)
    finally:
        tracer.uninstall()
    spans_path.parent.mkdir(exist_ok=True)
    tracer.write(spans_path)
    values.update(layer_metrics(tracer, jobs))
    record_mismatches(ledger, plain + traced)
    values["trace.overhead_ratio"] = (statistics.median(t for t, *_ in traced)
                                      / statistics.median(t for t, *_ in plain))
    return ledger, values


def git_sha():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_record(args) -> dict:
    import numpy
    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": git_sha(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy_version, "nproc": nproc, "thread_env": THREAD_ENV,
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    os.environ.update(THREAD_ENV)
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "cardsketch" / "__init__.py").is_file():
        print(f"error: no library sources at {SRC}/cardsketch", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import cardsketch as cs

    workload_cls = WORKLOADS[args.workload]
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        wl = workload_cls(cs, args.seed, str(workdir))
        if args.trace:
            spans = ROOT / ".bench_out" / f"spans-{args.workload}.csv"
            ledger, values = measure_traced(wl, args.seconds, spans)
        else:
            ledger, values = measure(wl, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()
    if ledger.errors:
        print(f"failed operations by error: {ledger.errors}", file=sys.stderr)
    print(json.dumps({"run_record": run_record(args)}))
    print(json.dumps({
        "correct": ledger.wrong == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": result_metrics(values, traced=bool(args.trace)),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
