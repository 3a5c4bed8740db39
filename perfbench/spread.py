#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

For every workload and metric this prints the median of the runs, the
quartiles from statistics.quantiles(values, n=4), and the spread: the
distance between the quartiles as a share of the median. Untraced runs
also print the same for the uncalibrated figures of the report line
(`raw.*`). Run from the repository root:

    python3 perfbench/spread.py --workloads serve-hot,olap-scan --seeds 1-10 --seconds 10
"""

import argparse
import json
import statistics
import subprocess
import sys
import time

COMMAND = ["cargo", "run", "--release", "--quiet", "--offline",
           "--manifest-path", "perfbench/Cargo.toml", "--"]
WORKLOADS = ["oltp-wire", "serve-hot", "olap-scan", "hybrid-search"]


def seeds(spec):
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def run(workload, seed, seconds, trace):
    args = COMMAND + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    start = time.monotonic()
    proc = subprocess.run(args, capture_output=True, text=True, timeout=600)
    wall = time.monotonic() - start
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    report = json.loads(lines[-2])["report"]
    return result, report, wall


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", default="10")
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    for workload in args.workloads.split(","):
        values, walls = {}, []
        for seed in seeds(args.seeds):
            result, report, wall = run(workload, seed, args.seconds, args.trace)
            walls.append(wall)
            if not result["correct"] or result["failed"]:
                sys.exit(f"{workload} seed {seed}: incorrect result {result}")
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            for name, v in report.get("raw", {}).items():
                values.setdefault("raw." + name, []).append(v)
            print(f"{workload} seed {seed}: {wall:.1f} s "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                  flush=True)
        print(f"== {workload}: {len(walls)} runs, wall max {max(walls):.1f} s")
        for name, vs in values.items():
            med = statistics.median(vs)
            if len(vs) >= 2:
                q1, _, q3 = statistics.quantiles(vs, n=4)
            else:
                q1 = q3 = vs[0]
            spread = (q3 - q1) / med if med else float("nan")
            print(f"   {name:45s} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  "
                  f"spread {spread:7.2%}", flush=True)


if __name__ == "__main__":
    main()
