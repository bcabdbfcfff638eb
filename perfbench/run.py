#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of the repository.  The first call builds
perfbench/bench.exe from source with dune (in a fresh checkout that
builds the libraries too), then runs it.  The last line of standard
output is the result JSON; build output goes to standard error.  Exits
non-zero, printing no result, when the build fails, as it does in a
directory holding only the benchmark.

An end-to-end run (--trace 0) is split into PARTS processes of equal
length, run one after another, and each metric is the mean over them.
On a 2-core VM a process settles into a speed of its own that holds for
its whole life (request rates of one workload differ by a fifth between
processes, and by a few percent between the quarters of one process),
so a run of one process measures mostly that draw; several processes
average it.  The tail is the median of the window tails of all parts.
Attempted and failed requests are summed.  A traced run
(--trace 1) is one process.

--self-test runs every workload briefly, with tracing off and on, and
checks that each metric BENCHMARK.json names is printed with its unit,
that the traced run writes its span file, and that a deliberately wrong
reference output makes the run fail.
"""

import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")


def build():
    r = subprocess.run(
        ["dune", "build", "--root", ROOT, "./perfbench/bench.exe"],
        cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    return r.returncode == 0 and os.path.exists(EXE)


PARTS = 4


def run(args, capture=False):
    return subprocess.run([EXE] + args, cwd=ROOT, text=True,
                          capture_output=capture)


def option(args, name):
    return args[args.index(name) + 1] if name in args else None


def run_parts(args):
    """Run an end-to-end measurement as PARTS processes and merge them."""
    seconds = float(option(args, "--seconds") or 10)
    rest = [a for i, a in enumerate(args)
            if a != "--seconds" and (i == 0 or args[i - 1] != "--seconds")]
    results = []
    tails = []
    code = 0
    for part in range(PARTS):
        out = run(rest + ["--seconds", str(seconds / PARTS)], capture=True)
        sys.stderr.write(out.stderr)
        lines = out.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(f"part {part}: {line}")
            if line.startswith("windows latency_tail_ms "):
                tails += [float(v) for v in line.split()[2:]]
        try:
            results.append(json.loads(lines[-1]))
        except (IndexError, ValueError):
            print(f"perfbench: part {part} printed no result", file=sys.stderr)
            return out.returncode or 1
        code = code or out.returncode
    merged = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {
            name: {"value": sum(r["metrics"][name]["value"]
                                for r in results) / len(results),
                   "unit": m["unit"]}
            for name, m in results[0]["metrics"].items()},
    }
    # The tail is the median over the windows of every part, as within
    # one process: a mean of per-process tails would follow the worst one.
    if tails:
        merged["metrics"]["latency_tail_ms"]["value"] = statistics.median(tails)
    print(json.dumps(merged))
    return code


def self_test():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    problems = []

    def result_of(args, expect_ok):
        out = subprocess.run([sys.executable, __file__] + args, cwd=ROOT,
                             text=True, capture_output=True)
        lines = out.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            problems.append(f"{args}: no result line (exit {out.returncode})")
            return None
        if (out.returncode == 0) != expect_ok or result["correct"] != expect_ok:
            problems.append(f"{args}: exit {out.returncode}, "
                            f"correct={result['correct']}, expected {expect_ok}")
        return result

    for w in bench["workloads"]:
        name = w["name"]
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            args = ["--workload", name, "--seed", "1", "--seconds", "1",
                    "--trace", trace]
            result = result_of(args, True)
            if result is None:
                continue
            got = result["metrics"]
            want = {m["name"]: m["unit"] for m in bench[key]}
            for metric, unit in want.items():
                if metric not in got:
                    problems.append(f"{name} trace={trace}: {metric} missing")
                elif got[metric]["unit"] != unit:
                    problems.append(f"{name} trace={trace}: {metric} unit "
                                    f"{got[metric]['unit']}, expected {unit}")
            for metric in got:
                if metric not in want:
                    problems.append(f"{name} trace={trace}: {metric} not in "
                                    "BENCHMARK.json")
            if trace == "1":
                spans = os.path.join(ROOT, "perfbench", "out",
                                     f"spans-{name}-seed1.jsonl")
                if not os.path.exists(spans) or os.path.getsize(spans) == 0:
                    problems.append(f"{name}: no span file {spans}")
        result_of(["--workload", name, "--seed", "1", "--seconds", "0.5",
                   "--trace", "0", "--corrupt-reference"], False)
        print(f"self-test: {name} done", file=sys.stderr)
    for p in problems:
        print("self-test: " + p, file=sys.stderr)
    print("self-test: " + ("FAILED" if problems else "ok"), file=sys.stderr)
    return 1 if problems else 0


def main():
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    args = sys.argv[1:]
    if args == ["--self-test"]:
        return self_test()
    if option(args, "--trace") == "1" or "--workload" not in args:
        return run(args).returncode
    return run_parts(args)


if __name__ == "__main__":
    sys.exit(main())
