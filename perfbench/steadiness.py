#!/usr/bin/env python3
"""Run each workload repeatedly and report how steady every end-to-end metric is.

    python3 perfbench/steadiness.py [--runs 10] [--workloads a,b] [--save FILE]
                                    [--compare FILE]

Run from the root of the checkout. Each run uses the command in
BENCHMARK.json with run_seconds and its own seed (1, 2, ..., runs). For each
workload and metric it prints the median, the quartiles (Python's
statistics.quantiles(values, n=4)), the spread (Q3 - Q1) / median, and that
spread against the metric's bound: a metric is steady when its spread stays
below a third of the bound. --save writes the raw values; --compare reads a
saved set and checks that this set's median is not worse than that one's by
more than the bound.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(command, workload, seed, seconds):
    cmd = command + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
                     "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] != 0:
        print(f"  {workload} seed {seed}: correct={result['correct']} failed={result['failed']}",
              file=sys.stderr)
    return {name: m["value"] for name, m in result["metrics"].items()}


def worse_by(first, second, better):
    """Relative amount by which `second` is worse than `first` (negative = better)."""
    if first == 0:
        return 0.0
    change = (second - first) / first
    return change if better == "lower" else -change


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--save", default="")
    parser.add_argument("--compare", default="")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        workloads = args.workloads.split(",")
    metrics = bench["end_to_end"]
    earlier = {}
    if args.compare:
        with open(args.compare) as f:
            earlier = json.load(f)

    raw = {}
    steady = True
    for workload in workloads:
        values = {m["name"]: [] for m in metrics}
        for i in range(args.runs):
            got = run_once(bench["command"], workload, 1 + i, seconds)
            for m in metrics:
                values[m["name"]].append(got[m["name"]])
        raw[workload] = values
        print(f"\n{workload}: {args.runs} runs of {seconds} s")
        print(f"  {'metric':<16}{'median':>14}{'q1':>14}{'q3':>14}{'spread':>9}{'bound':>7}"
              f"{'spread/bound':>14}  verdict")
        for m in metrics:
            vals = values[m["name"]]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            verdict = "steady" if spread < m["bound"] / 3 else "NOISY"
            if spread >= m["bound"] / 3:
                steady = False
            line = (f"  {m['name']:<16}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}{spread:>9.3f}"
                    f"{m['bound']:>7.2f}{spread / m['bound']:>14.2f}  {verdict}")
            if workload in earlier:
                first = statistics.median(earlier[workload][m["name"]])
                drift = worse_by(first, med, m["better"])
                line += f"  vs earlier median {first:.6g}: worse by {drift:+.3f}"
                if drift > m["bound"]:
                    line += " OUT OF BOUND"
                    steady = False
            print(line)
    if args.save:
        with open(args.save, "w") as f:
            json.dump(raw, f, indent=1)
    print("\nall spreads below a third of their bounds" if steady else "\nNOT STEADY")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
