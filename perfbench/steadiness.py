#!/usr/bin/env python3
"""Steadiness check: runs workloads repeatedly, one seed per run, and prints
for every end-to-end metric the median, the quartiles and the spread
(Q3 - Q1) / median against the metric's bound in BENCHMARK.json. It also
prints each run's failed/attempted share, which must not vary.

    python3 perfbench/steadiness.py [--runs 10] [--first-seed 1]
                                    [--workloads a,b] [--seconds N]

Run from the repository root. A spread at or below a third of its bound is
marked "ok", one above its bound "TOO WIDE"; every metric is judged so.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit("%s seed %d: exit %d" % (workload, seed, out.returncode))
    return json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = ap.parse_args()

    worst = 0.0
    for workload in args.workloads.split(","):
        runs = [run_once(workload, args.first_seed + i, args.seconds) for i in range(args.runs)]
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        correct = all(r["correct"] for r in runs)
        print("== %s: %d runs, correct=%s, failed share %s" %
              (workload, len(runs), correct, " ".join("%.6f" % s for s in shares)))
        print("%-16s %12s %12s %12s %8s %6s  %-12s %s" %
              ("metric", "median", "q1", "q3", "spread", "bound", "verdict", "values"),
              flush=True)
        for m in bench["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            worst = max(worst, spread / m["bound"])
            verdict = ("ok" if spread <= m["bound"] / 3 else
                       "within bound" if spread <= m["bound"] else "TOO WIDE")
            print("%-16s %12.6g %12.6g %12.6g %8.4f %6.3f  %-12s %s" %
                  (m["name"], med, q1, q3, spread, m["bound"], verdict,
                   " ".join("%.4g" % v for v in vals)), flush=True)
        if len(shares) != 1 or not correct:
            print("!! failed share varies or a run was incorrect")
    print("worst spread/bound: %.3f" % worst)


if __name__ == "__main__":
    main()
