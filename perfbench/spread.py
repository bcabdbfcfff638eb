#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload infer-hot --seeds 1-10 [--trace 0]

For every metric: the median over the runs and the spread, the distance
between the first and third quartile (statistics.quantiles, n=4) as a
share of the median.  End-to-end metrics are also checked against their
bound in BENCHMARK.json: a spread above a third of the bound is flagged.
Run it from the root of the repository.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def seeds_of(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--seconds", default=None)
    ap.add_argument("--verbose", action="store_true",
                    help="also print every run's value")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or str(bench["run_seconds"])
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {}
    for seed in seeds_of(args.seeds):
        t0 = time.time()
        out = subprocess.run(
            bench["command"]
            + ["--workload", args.workload, "--seed", str(seed),
               "--seconds", seconds, "--trace", args.trace],
            capture_output=True, text=True)
        wall = time.time() - t0
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            print(f"seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
            sys.exit(1)
        result = json.loads(lines[-1])
        print(f"seed {seed}: {wall:.1f} s wall, correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    worst = 0
    for name, vs in values.items():
        med = statistics.median(vs)
        if len(vs) >= 2 and med != 0:
            q = statistics.quantiles(vs, n=4)
            spread = (q[2] - q[0]) / abs(med)
        else:
            spread = 0.0
        flag = ""
        if name in bounds and name != "setup_s" and spread > bounds[name] / 3:
            flag = f"  <-- above a third of the bound {bounds[name]}"
            worst += 1
        print(f"{name:36s} median {med:14.6g}  spread {spread:7.3f}{flag}")
        if args.verbose:
            print("    " + " ".join(f"{v:.4g}" for v in vs))
    sys.exit(1 if worst else 0)


if __name__ == "__main__":
    main()
