"""Steadiness report for the end-to-end metrics.

    python3 bench/steady.py [--runs 10]

Runs every workload in BENCHMARK.json once per seed 1..runs, for the
benchmark's run_seconds, one run at a time, and prints for every end-to-end
metric the median, the quartile spread (q3 - q1, from
statistics.quantiles(values, n=4)) as a share of the median, and the
metric's bound.  A spread above a third of its bound is flagged NOISY.
Exits 1 if any run fails or any metric is flagged.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else float("inf")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    status = 0
    for workload in (w["name"] for w in spec["workloads"]):
        values = {name: [] for name in bounds}
        for seed in range(1, args.runs + 1):
            cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                return 1
            result = json.loads(lines[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: outputs incorrect")
                status = 1
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        print(f"{workload}: {args.runs} runs", flush=True)
        for name, bound in bounds.items():
            s = spread(values[name])
            verdict = "ok" if s <= bound / 3 else "NOISY"
            if verdict == "NOISY":
                status = 1
            print(f"  {name:20s} median {statistics.median(values[name]):14.6g}"
                  f"  spread {s:7.4f}  bound {bound:5.3f}  {verdict}", flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
