"""Run-to-run spread of the end-to-end metrics, and the run record.

Run from the repository root:

    python3 bench/spread.py --runs 10
    python3 bench/spread.py --runs 5 --workload heisenberg-curve

Runs `bench/run.py --trace 0` once per seed (seeds 0, 1, ...) on each
workload and prints, for every end-to-end metric, the median of the runs
and the distance between the first and third quartiles as a share of the
median, next to the metric's bound from `BENCHMARK.json`.  A benchmark is
steady when each spread, `setup_s` aside, stays below a third of its bound.
`--record PATH` also writes these figures with the run record (git SHA,
Python, numpy, scipy, BLAS and thread count, nproc) as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload, seed, seconds):
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    start = time.perf_counter()
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    elapsed = time.perf_counter() - start
    if done.returncode != 0:
        sys.exit(f"error: {' '.join(command)} exited {done.returncode}\n"
                 f"{done.stderr}")
    lines = done.stdout.splitlines()
    record = next(json.loads(line.split(":", 1)[1]) for line in lines
                  if line.startswith("run record:"))
    return json.loads(lines[-1]), record, elapsed


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--record", type=Path)
    args = parser.parse_args()

    summary = {}
    record = None
    for workload in args.workload or names:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        failed = attempted = 0
        for seed in range(args.runs):
            result, record, elapsed = run(workload, seed, spec["run_seconds"])
            attempted += result["attempted"]
            failed += result["failed"]
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: {elapsed:.1f} s, failed "
                  f"{result['failed']}/{result['attempted']}, " + ", ".join(
                      f"{k} {v[-1]:.6g}" for k, v in values.items()),
                  flush=True)
        summary[workload] = {"error_rate": failed / attempted, "metrics": {}}
        for metric in spec["end_to_end"]:
            runs = values[metric["name"]]
            median = statistics.median(runs)
            q1, _, q3 = statistics.quantiles(runs, n=4)
            spread = (q3 - q1) / median
            summary[workload]["metrics"][metric["name"]] = {
                "median": median, "q1": q1, "q3": q3, "spread": spread,
                "unit": metric["unit"]}
            steady = "" if spread < metric["bound"] / 3 else "  NOT STEADY"
            print(f"  {metric['name']}: median {median:.6g} {metric['unit']}, "
                  f"spread {spread:.4f} (bound {metric['bound']}){steady}")
        print(f"  error_rate: {failed}/{attempted}", flush=True)

    if args.record:
        args.record.write_text(json.dumps({
            "run_record": record,
            "runs_per_workload": args.runs,
            "run_seconds": spec["run_seconds"],
            "workloads": summary,
        }, indent=1) + "\n")


if __name__ == "__main__":
    main()
