#!/usr/bin/env python3
"""Runs one workload N times and reports how steady each metric is.

    python3 perfbench/steady.py --workload bank-correct --runs 10 \\
        [--first-seed 1] [--seconds S]

Each run uses the next seed, as the acceptance runs do, and the run
length from BENCHMARK.json unless --seconds is given. For every
end-to-end metric it prints the median, the quartiles
(statistics.quantiles(values, n=4)), min and max, and the spread: the
distance between the quartiles as a share of the median. A spread wider
than the metric's bound is flagged FAIL, setup_s included; one wider
than a third of the bound is flagged WIDE (the benchmark aims to stay
below a third).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_config():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, seconds):
    result = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if result.returncode != 0:
        sys.exit("run with seed %d exited with %d" % (seed, result.returncode))
    return json.loads(result.stdout.strip().splitlines()[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args()

    config = load_config()
    seconds = args.seconds or config["run_seconds"]
    values = {m["name"]: [] for m in config["end_to_end"]}
    incorrect = 0
    for i in range(args.runs):
        seed = args.first_seed + i
        result = run_once(args.workload, seed, seconds)
        incorrect += not result["correct"]
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print("run %2d seed %d: %s" % (i + 1, seed, " ".join(
            "%s=%.4g" % (n, v[-1]) for n, v in values.items())), flush=True)

    print("\n%-12s %12s %12s %12s %12s %12s %8s %6s" % (
        "metric", "median", "q1", "q3", "min", "max", "spread", "bound"))
    worst = "ok"
    for metric in config["end_to_end"]:
        v = values[metric["name"]]
        q1, median, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / median if median else float("inf")
        bound = metric["bound"]
        flag = ""
        if spread > bound:
            flag, worst = "FAIL", "FAIL"
        elif spread > bound / 3:
            flag = "WIDE"
            worst = worst if worst == "FAIL" else "WIDE"
        print("%-12s %12.5g %12.5g %12.5g %12.5g %12.5g %8.4f %6.3f %s" % (
            metric["name"], median, q1, q3, min(v), max(v), spread, bound,
            flag))
    print("\n%s: %d runs, %d reported correct=false" % (
        worst, args.runs, incorrect))
    return 1 if worst == "FAIL" or incorrect else 0


if __name__ == "__main__":
    sys.exit(main())
